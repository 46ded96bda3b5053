#include "harness/journal.h"

#include <exception>

namespace mlpm::harness {

// ---- field lists ------------------------------------------------------

namespace {

constexpr auto kTaskFields = [](auto& v, auto& r) {
  v.Required("task", r.entry.id);
  v("numerics", r.numerics, DataType::kInt32);
  v("framework", r.framework_name);
  v("accelerator", r.accelerator_label);
  v("accuracy", r.accuracy);
  v("fp32_reference", r.fp32_reference);
  v("ratio_to_fp32", r.ratio_to_fp32);
  v("quality_passed", r.quality_passed);
  v("calibration_indices", r.calibration_indices);
  v("accuracy_sample_count", r.accuracy_sample_count);
  v("dataset_size", r.dataset_size);
  v.Nested("single_stream", r.single_stream, kTestResultFields);
  v.Nested("offline", r.offline, kTestResultFields);
  v("energy_per_inference_j", r.energy_per_inference_j);
  v("peak_temperature_c", r.peak_temperature_c);
  v("peak_arena_bytes", r.peak_arena_bytes);
  v("naive_activation_bytes", r.naive_activation_bytes);
  v("status", r.status, TaskStatus::kErrored);
  v("status_detail", r.status_detail);
  v("fault_count", r.fault_count);
  v("degradation_count", r.degradation_count);
  v("shed_count", r.shed_count);
  v("rejected_count", r.rejected_count);
  v("breaker_trips", r.breaker_trips);
  v("degraded_to_cpu", r.degraded_to_cpu);
  v("performance_attempts", r.performance_attempts);
  v("fault_log", r.fault_log);
  v("lint_error_count", r.lint_error_count);
  v("lint_warning_count", r.lint_warning_count);
  v("lint_log", r.lint_log);
  v("kernel_isa", r.kernel_isa);
  v("transform_requested", r.transform_requested);
  v("transform_applied", r.transform_applied);
  v("transform_passes", r.transform_passes);
  v("transform_rewrites", r.transform_rewrites);
  v("transform_nodes_before", r.transform_nodes_before);
  v("transform_nodes_after", r.transform_nodes_after);
  v("transform_detail", r.transform_detail);
  v("tiling_requested", r.tiling_requested);
  v("tiling_applied", r.tiling_applied);
  v("tile_segments", r.tile_segments);
  v("tile_rows", r.tile_rows);  // -1 (auto) travels as its u64 image
  v("tile_slab_bytes", r.tile_slab_bytes);
  // accuracy_outputs are deliberately not journaled: they are only needed
  // transiently for scoring, and the derived score is recorded above.
};

constexpr auto kMetaFields = [](auto& v, auto& m) {
  v.Required("chipset", m.chipset);
  v.Required("version", m.version);
  v("seed", m.seed);
  v("config_hash", m.config_hash);
};

}  // namespace

std::string EncodeTaskRecord(const TaskRunResult& tr) {
  return wire::Encode(tr, kTaskFields);
}

TaskRunResult DecodeTaskRecord(const std::string& payload) {
  return wire::Decode<TaskRunResult>(payload, kTaskFields);
}

std::string EncodeMeta(const JournalMeta& meta) {
  return wire::Encode(meta, kMetaFields);
}

JournalMeta DecodeMeta(const std::string& payload) {
  return wire::Decode<JournalMeta>(payload, kMetaFields);
}

// ---- config digests ---------------------------------------------------

void ConfigText::Add(std::string_view key, std::string_view value) {
  text_ += key;
  text_ += '=';
  text_ += value;
  text_ += ';';
}

void ConfigText::AddU(std::string_view key, std::uint64_t value) {
  Add(key, std::to_string(value));
}

void ConfigText::AddD(std::string_view key, double value) {
  Add(key, wire::HexDouble(value));
}

void ConfigText::Add(const loadgen::TestSettings& s) {
  AddU("seed", s.seed);
  AddU("min_query_count", s.min_query_count);
  AddD("min_duration_s", s.min_duration.count());
  AddU("offline_sample_count", s.offline_sample_count);
  AddD("latency_percentile", s.latency_percentile);
  AddD("server_target_qps", s.server_target_qps);
  AddD("server_latency_bound_s", s.server_latency_bound.count());
  AddU("server_query_count", s.server_query_count);
  AddU("server_max_queue_depth", s.server_max_queue_depth);
  AddD("server_max_shed_fraction", s.server_max_shed_fraction);
  AddU("multistream_samples_per_query", s.multistream_samples_per_query);
  AddD("multistream_interval_s", s.multistream_interval.count());
  AddU("multistream_query_count", s.multistream_query_count);
  AddU("performance_sample_count", s.performance_sample_count);
  AddD("query_timeout_s", s.query_timeout.count());
}

void ConfigText::Add(const soc::FaultPlan& plan) {
  AddU("fault_seed", plan.seed);
  for (const soc::FaultSpec& spec : plan.specs) {
    Add("fault_kind", ToString(spec.kind));
    AddD("fault_probability", spec.probability);
    AddD("fault_stall_scale", spec.stall_scale);
    AddD("fault_crash_latency_fraction", spec.crash_latency_fraction);
  }
}

void ConfigText::Add(const backends::CircuitBreakerOptions& cb) {
  AddU("cb_trip_threshold", static_cast<std::uint64_t>(cb.trip_threshold));
  AddD("cb_open_duration_s", cb.open_duration_s);
  AddD("cb_backoff_factor", cb.backoff_factor);
  AddD("cb_max_open_duration_s", cb.max_open_duration_s);
  AddD("cb_probe_jitter_frac", cb.probe_jitter_frac);
  AddU("cb_seed", cb.seed);
  AddD("cb_rejection_latency_s", cb.rejection_latency_s);
}

std::uint64_t HashRunConfig(const soc::ChipsetDesc& chipset,
                            models::SuiteVersion version,
                            const RunOptions& o) {
  ConfigText canon;
  canon.Add("chipset", chipset.name);
  canon.Add("version", ToString(version));
  canon.AddU("run_accuracy", o.run_accuracy ? 1 : 0);
  canon.AddU("run_performance", o.run_performance ? 1 : 0);
  canon.AddU("run_offline", o.run_offline ? 1 : 0);
  canon.AddD("cooldown_s", o.cooldown_s);
  canon.AddU("end_to_end", o.end_to_end ? 1 : 0);
  canon.AddU("use_qat_weights", o.use_qat_weights ? 1 : 0);
  canon.AddU("max_test_retries",
             static_cast<std::uint64_t>(o.max_test_retries));
  canon.AddU("lint", static_cast<std::uint64_t>(o.lint));
  // The *requested* ISA, not the resolved one: the hash guards against
  // mixing journals from differently-configured runs, and f32 accuracy
  // results differ across kernel tables.
  canon.Add("kernel_isa", ToString(o.kernel_isa));
  // The transform stage changes the executed graph, so resumed accuracy
  // results are only interchangeable within one setting of it.
  canon.AddU("transform", o.transform ? 1 : 0);
  // Tiling is bit-identical to whole-op execution, but the memory-plan
  // figures and applied/segment fields in each record depend on it, so
  // journals are only interchangeable within one tiling configuration.
  canon.AddU("tiling", o.tiling.enabled ? 1 : 0);
  canon.AddU("tile_rows", static_cast<std::uint64_t>(o.tiling.rows));
  canon.AddU("tile_cache_bytes", o.tiling.cache_bytes);
  canon.Add(o.performance_settings);
  if (o.fault_plan) {
    canon.Add(*o.fault_plan);
    // A submission recovers with the default policy; hashing its values
    // keeps the hash of every existing journal unchanged.
    const backends::FaultToleranceOptions ft;
    canon.AddU("ft_max_attempts", static_cast<std::uint64_t>(ft.max_attempts));
    canon.AddD("ft_backoff_base_s", ft.backoff_base_s);
    canon.AddU("ft_crash_fallback_threshold",
               static_cast<std::uint64_t>(ft.crash_fallback_threshold));
    canon.AddD("ft_emergency_cooldown_s", ft.emergency_cooldown_s);
    canon.AddD("ft_backoff_jitter_frac", ft.backoff_jitter_frac);
    canon.AddU("ft_backoff_seed", ft.backoff_seed);
  }
  if (o.circuit_breaker) canon.Add(*o.circuit_breaker);
  // threads / profile / trace_path / journal_path are excluded: they do
  // not change any result field.
  return canon.Hash();
}

// ---- loader -----------------------------------------------------------

JournalState ScanJournal(
    const std::string& path, std::string_view record_kind,
    const std::function<void(const std::string&)>& decode_meta,
    const std::function<void(const std::string&)>& decode_record) {
  JournalState state;
  FrameLogLoad raw;
  try {
    raw = LoadFrameLog(path);
  } catch (const std::exception& e) {
    state.unreadable = true;
    state.notes = {"cannot read journal " + path + ": " + e.what()};
    return state;
  }
  state.notes = raw.notes;
  std::size_t pos = raw.valid_prefix_bytes;
  for (const RawFrame& frame : raw.frames) {
    const bool first = !state.meta_valid;
    const std::string_view expected = first ? "meta" : record_kind;
    std::string problem;
    if (frame.kind != expected) {
      problem = "expected a '" + std::string(expected) + "' frame";
    } else {
      try {
        (first ? decode_meta : decode_record)(frame.payload);
      } catch (const std::exception& e) {
        problem = "undecodable, " + std::string(e.what());
      }
    }
    if (!problem.empty()) {
      state.notes = {"cut at byte " + std::to_string(frame.offset) + ", '" +
                     frame.kind + "' frame: " + problem};
      pos = frame.offset;
      break;
    }
    state.meta_valid = true;
  }
  state.valid_prefix_bytes = pos;
  state.torn_bytes = raw.file_size - pos;
  state.torn_tail = state.torn_bytes > 0;
  return state;
}

}  // namespace mlpm::harness
