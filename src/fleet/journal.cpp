#include "fleet/journal.h"

namespace mlpm::fleet {

namespace {

constexpr auto kFleetMetaFields = [](auto& v, auto& m) {
  v.Required("version", m.version);
  v("seed", m.seed);
  v.Required("shard_count", m.shard_count);
  v("config_hash", m.config_hash);
};

constexpr auto kShardFields = [](auto& v, auto& s) {
  v("shard_id", s.shard_id);
  v("chipset", s.chipset);
  v("task_id", s.task_id);
  v("numerics", s.numerics, DataType::kInt32);
  v("config_key", s.config_key);
  v("state", s.state, harness::TaskStatus::kErrored);
  v("slo_met", s.slo_met);
  v("breaker_trips", s.breaker_trips);
  v("fault_count", s.fault_count);
  v("energy_j", s.energy_j);
  v("peak_temperature_c", s.peak_temperature_c);
  v("accuracy", s.accuracy);
  v("fp32_reference", s.fp32_reference);
  v("ratio_to_fp32", s.ratio_to_fp32);
  v("quality_passed", s.quality_passed);
  v.Nested("result", s.result, harness::kTestResultFields);
};

}  // namespace

std::uint64_t HashFleetConfig(const FleetOptions& options,
                              const std::vector<FleetMixEntry>& mix) {
  // Workers and the journal/cancel plumbing are deliberately absent.
  harness::ConfigText canon;
  canon.Add("version", ToString(options.version));
  canon.Add("mix", FormatFleetMix(mix));
  canon.Add("scenario", ToString(options.settings.scenario));
  canon.Add(options.settings);
  canon.AddU("accuracy", options.accuracy ? 1 : 0);
  canon.Add("kernel_isa", ToString(options.kernel_isa));
  if (options.fault_plan) canon.Add(*options.fault_plan);
  if (options.circuit_breaker) canon.Add(*options.circuit_breaker);
  return canon.Hash();
}

std::string EncodeFleetMeta(const FleetJournalMeta& meta) {
  return harness::wire::Encode(meta, kFleetMetaFields);
}

FleetJournalMeta DecodeFleetMeta(const std::string& payload) {
  return harness::wire::Decode<FleetJournalMeta>(payload, kFleetMetaFields);
}

std::string EncodeShardResult(const ShardResult& shard) {
  return harness::wire::Encode(shard, kShardFields);
}

ShardResult DecodeShardResult(const std::string& payload) {
  return harness::wire::Decode<ShardResult>(payload, kShardFields);
}

}  // namespace mlpm::fleet
