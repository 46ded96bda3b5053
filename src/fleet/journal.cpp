#include "fleet/journal.h"

#include <utility>

#include "common/check.h"
#include "harness/journal.h"

namespace mlpm::fleet {

using harness::Fnv1a64;
using harness::wire::Field;
using harness::wire::HexDouble;
using harness::wire::ParseDouble;
using harness::wire::ParseU64;
using harness::wire::PayloadParser;
using harness::wire::PutB;
using harness::wire::PutD;
using harness::wire::PutS;
using harness::wire::PutU;

std::uint64_t HashFleetConfig(const FleetOptions& options,
                              const std::vector<FleetMixEntry>& mix) {
  // Canonical text of everything result-shaping, then FNV-1a 64 — the same
  // scheme as harness::HashRunConfig.  Workers and the journal/cancel
  // plumbing are deliberately absent.
  std::string canon;
  canon += "version=";
  canon += ToString(options.version);
  canon += "\nmix=" + FormatFleetMix(mix) + '\n';
  const loadgen::TestSettings& s = options.settings;
  canon += "scenario=";
  canon += ToString(s.scenario);
  canon += "\nseed=" + std::to_string(s.seed);
  canon += "\nmin_query_count=" + std::to_string(s.min_query_count);
  canon += "\nmin_duration_s=" + HexDouble(s.min_duration.count());
  canon += "\noffline_sample_count=" + std::to_string(s.offline_sample_count);
  canon += "\nlatency_percentile=" + HexDouble(s.latency_percentile);
  canon += "\nserver_target_qps=" + HexDouble(s.server_target_qps);
  canon +=
      "\nserver_latency_bound_s=" + HexDouble(s.server_latency_bound.count());
  canon += "\nserver_query_count=" + std::to_string(s.server_query_count);
  canon +=
      "\nserver_max_queue_depth=" + std::to_string(s.server_max_queue_depth);
  canon +=
      "\nserver_max_shed_fraction=" + HexDouble(s.server_max_shed_fraction);
  canon += "\nperformance_sample_count=" +
           std::to_string(s.performance_sample_count);
  canon += "\nquery_timeout_s=" + HexDouble(s.query_timeout.count());
  canon += "\naccuracy=" + std::to_string(options.accuracy ? 1 : 0);
  canon += "\nkernel_isa=";
  canon += ToString(options.kernel_isa);
  if (options.fault_plan.has_value()) {
    const soc::FaultPlan& p = *options.fault_plan;
    canon += "\nfault_seed=" + std::to_string(p.seed);
    for (const soc::FaultSpec& spec : p.specs) {
      canon += "\nfault_kind=";
      canon += ToString(spec.kind);
      canon += "\nfault_probability=" + HexDouble(spec.probability);
      canon += "\nfault_stall_scale=" + HexDouble(spec.stall_scale);
      canon += "\nfault_crash_latency_fraction=" +
               HexDouble(spec.crash_latency_fraction);
    }
  }
  if (options.circuit_breaker.has_value()) {
    const backends::CircuitBreakerOptions& b = *options.circuit_breaker;
    canon += "\nbreaker_trip=" + std::to_string(b.trip_threshold);
    canon += "\nbreaker_open_s=" + HexDouble(b.open_duration_s);
    canon += "\nbreaker_backoff=" + HexDouble(b.backoff_factor);
    canon += "\nbreaker_max_open_s=" + HexDouble(b.max_open_duration_s);
    canon += "\nbreaker_jitter=" + HexDouble(b.probe_jitter_frac);
    canon += "\nbreaker_seed=" + std::to_string(b.seed);
    canon += "\nbreaker_reject_s=" + HexDouble(b.rejection_latency_s);
  }
  canon += '\n';
  return Fnv1a64(canon);
}

std::string EncodeFleetMeta(const FleetJournalMeta& meta) {
  std::string out;
  PutS(out, "version", meta.version);
  PutU(out, "seed", meta.seed);
  PutU(out, "shard_count", meta.shard_count);
  PutU(out, "config_hash", meta.config_hash);
  return out;
}

FleetJournalMeta DecodeFleetMeta(const std::string& payload) {
  FleetJournalMeta meta;
  bool saw_shard_count = false;
  PayloadParser parser(payload);
  Field f;
  while (parser.Next(f)) {
    if (f.key == "version") {
      meta.version = std::move(f.bytes);
    } else if (f.key == "seed") {
      meta.seed = ParseU64(f.scalar);
    } else if (f.key == "shard_count") {
      meta.shard_count = ParseU64(f.scalar);
      saw_shard_count = true;
    } else if (f.key == "config_hash") {
      meta.config_hash = ParseU64(f.scalar);
    }
  }
  Expects(!meta.version.empty(), "fleet journal: meta has no version");
  Expects(saw_shard_count, "fleet journal: meta has no shard_count");
  return meta;
}

std::string EncodeShardResult(const ShardResult& shard) {
  std::string out;
  PutU(out, "shard_id", shard.shard_id);
  PutS(out, "chipset", shard.chipset);
  PutS(out, "task_id", shard.task_id);
  PutU(out, "numerics", static_cast<std::uint64_t>(shard.numerics));
  PutS(out, "config_key", shard.config_key);
  PutU(out, "state", static_cast<std::uint64_t>(shard.state));
  PutB(out, "slo_met", shard.slo_met);
  PutU(out, "breaker_trips", shard.breaker_trips);
  PutU(out, "fault_count", shard.fault_count);
  PutD(out, "energy_j", shard.energy_j);
  PutD(out, "peak_temperature_c", shard.peak_temperature_c);
  PutD(out, "accuracy", shard.accuracy);
  PutD(out, "fp32_reference", shard.fp32_reference);
  PutD(out, "ratio_to_fp32", shard.ratio_to_fp32);
  PutB(out, "quality_passed", shard.quality_passed);
  PutS(out, "result", harness::EncodeTestResult(shard.result));
  return out;
}

ShardResult DecodeShardResult(const std::string& payload) {
  ShardResult shard;
  PayloadParser parser(payload);
  Field f;
  while (parser.Next(f)) {
    if (f.key == "shard_id") {
      shard.shard_id = ParseU64(f.scalar);
    } else if (f.key == "chipset") {
      shard.chipset = std::move(f.bytes);
    } else if (f.key == "task_id") {
      shard.task_id = std::move(f.bytes);
    } else if (f.key == "numerics") {
      shard.numerics = static_cast<DataType>(ParseU64(f.scalar));
    } else if (f.key == "config_key") {
      shard.config_key = std::move(f.bytes);
    } else if (f.key == "state") {
      const std::uint64_t v = ParseU64(f.scalar);
      Expects(v <= 3, "fleet journal: bad shard state " + f.scalar);
      shard.state = static_cast<harness::TaskStatus>(v);
    } else if (f.key == "slo_met") {
      shard.slo_met = f.scalar == "1";
    } else if (f.key == "breaker_trips") {
      shard.breaker_trips = ParseU64(f.scalar);
    } else if (f.key == "fault_count") {
      shard.fault_count = ParseU64(f.scalar);
    } else if (f.key == "energy_j") {
      shard.energy_j = ParseDouble(f.scalar);
    } else if (f.key == "peak_temperature_c") {
      shard.peak_temperature_c = ParseDouble(f.scalar);
    } else if (f.key == "accuracy") {
      shard.accuracy = ParseDouble(f.scalar);
    } else if (f.key == "fp32_reference") {
      shard.fp32_reference = ParseDouble(f.scalar);
    } else if (f.key == "ratio_to_fp32") {
      shard.ratio_to_fp32 = ParseDouble(f.scalar);
    } else if (f.key == "quality_passed") {
      shard.quality_passed = f.scalar == "1";
    } else if (f.key == "result") {
      shard.result = harness::DecodeTestResult(f.bytes);
    }
    // Unknown keys are skipped: older binaries read newer journals.
  }
  return shard;
}

FleetJournalLoad LoadFleetJournal(const std::string& path) {
  FleetJournalLoad load;
  const harness::FrameLogLoad raw = harness::LoadFrameLog(path);
  load.notes = raw.notes;
  load.torn_tail = raw.torn_tail;
  load.valid_prefix_bytes = raw.header_valid ? raw.valid_prefix_bytes : 0;

  // Interpret frames until the first semantic failure; everything after a
  // bad frame is untrusted (same policy as the submission journal).
  std::size_t pos = load.valid_prefix_bytes;
  bool interpreted_all = true;
  for (std::size_t i = 0; i < raw.frames.size(); ++i) {
    const harness::RawFrame& frame = raw.frames[i];
    try {
      if (i == 0) {
        Expects(frame.kind == "meta",
                "fleet journal: first frame is '" + frame.kind + "'");
        load.meta = DecodeFleetMeta(frame.payload);
        load.meta_valid = true;
      } else {
        Expects(frame.kind == "shard",
                "fleet journal: unexpected frame kind '" + frame.kind + "'");
        ShardResult shard = DecodeShardResult(frame.payload);
        load.shards[shard.shard_id] = std::move(shard);
      }
    } catch (const CheckError& e) {
      load.notes.push_back(e.what());
      pos = frame.offset;
      interpreted_all = false;
      break;
    }
  }
  load.valid_prefix_bytes = pos;
  if (!interpreted_all) {
    load.torn_tail = true;
    // Physical-damage notes describe bytes past the semantic cut; keep only
    // the semantic note (mirrors harness::LoadJournal).
    load.notes.erase(load.notes.begin(),
                     load.notes.begin() +
                         static_cast<std::ptrdiff_t>(raw.notes.size()));
  }
  return load;
}

std::unique_ptr<FleetJournalWriter> FleetJournalWriter::Create(
    const std::string& path, const FleetJournalMeta& meta) {
  harness::FrameLogWriter log = harness::FrameLogWriter::Create(path);
  log.AppendFrame("meta", EncodeFleetMeta(meta));
  return std::unique_ptr<FleetJournalWriter>(
      new FleetJournalWriter(std::move(log)));
}

std::unique_ptr<FleetJournalWriter> FleetJournalWriter::Resume(
    const std::string& path, std::size_t valid_prefix_bytes) {
  return std::unique_ptr<FleetJournalWriter>(new FleetJournalWriter(
      harness::FrameLogWriter::OpenAt(path, valid_prefix_bytes)));
}

void FleetJournalWriter::Append(const ShardResult& shard) {
  std::scoped_lock lock(mu_);
  log_.AppendFrame("shard", EncodeShardResult(shard));
}

}  // namespace mlpm::fleet
