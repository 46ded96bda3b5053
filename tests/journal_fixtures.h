// Journal test fixtures: records with every journaled field set to a
// non-default, hostile value (multi-line strings, doubles with no finite
// decimal form, the smallest denormal, a negative tile_rows image), shared
// by the codec, golden and mutation tests.
#pragma once

#include <string>

#include "fleet/journal.h"
#include "harness/journal.h"

namespace mlpm::journal_fixtures {

inline harness::JournalMeta TestMeta() {
  harness::JournalMeta m;
  m.chipset = "Test Chipset";
  m.version = "v1.0";
  m.seed = 0xC0FFEE;
  m.config_hash = 0x1234;
  return m;
}

inline fleet::FleetJournalMeta TestFleetMeta() {
  fleet::FleetJournalMeta m;
  m.version = "v0.7";
  m.seed = 424242;
  m.shard_count = 16;
  m.config_hash = 0xFEEDFACECAFEBEEFULL;
  return m;
}

// A LoadGen result exercising every TestResult field.
inline loadgen::TestResult HostileTestResult() {
  loadgen::TestResult r;
  r.scenario = loadgen::TestScenario::kServer;
  r.mode = loadgen::TestMode::kAccuracyOnly;
  r.latencies_s = {0.001, 1.0 / 7.0, 0x1.5p-3};
  r.duration_s = 0.123456789123456789;
  r.sample_count = 3;
  r.percentile_latency_s = 0x1.fffffffffffffp-7;  // exact hexfloat
  r.mean_latency_s = 5e-324;                      // smallest denormal
  r.throughput_sps = 24.5;
  r.min_duration_met = true;
  r.min_query_count_met = true;
  r.latency_bound_met = true;
  r.shed_bound_met = false;
  r.dropped_count = 1;
  r.timed_out_count = 2;
  r.duplicate_count = 3;
  r.unknown_count = 4;
  r.shed_count = 5;
  r.rejected_count = 6;
  r.issued_count = 7;
  r.error_log = {"query 7 timed out", "line\nwith\nbreaks"};
  r.invalid_reason = "stalled SUT\nno completions";
  r.log.SetField("seed", "123");
  r.log.Record(loadgen::LogEventKind::kQueryIssued, 1, loadgen::Seconds{0.5});
  r.log.Record(loadgen::LogEventKind::kQueryShed, 2, loadgen::Seconds{0.6});
  r.log.Record(loadgen::LogEventKind::kQueryRejected, 1,
               loadgen::Seconds{0.7});
  return r;
}

// A task record with hostile content; `offline` stays absent (no entry on
// the wire) and transform_applied false, FullTask sets both.
inline harness::TaskRunResult HostileTask(const std::string& id) {
  harness::TaskRunResult t;
  t.entry.id = id;
  t.numerics = DataType::kInt8;
  t.framework_name = "TF,Lite \"nightly\"\nbuild";
  t.accelerator_label = "npu + dsp";
  t.accuracy = 1.0 / 3.0;  // no finite decimal representation
  t.fp32_reference = 0.1;
  t.ratio_to_fp32 = 0.9999999999999999;
  t.quality_passed = true;
  t.calibration_indices = {3, 1, 4, 1, 5};
  t.accuracy_sample_count = 128;
  t.dataset_size = 128;

  loadgen::TestResult ss;
  ss.sample_count = 3;
  ss.duration_s = 0.123456789123456789;
  ss.percentile_latency_s = 0x1.fffffffffffffp-7;
  ss.mean_latency_s = 5e-324;
  ss.latencies_s = {0.001, 1.0 / 7.0, 0x1.5p-3};
  ss.error_log = {"query 7 timed out", "line\nwith\nbreaks"};
  ss.log.SetField("seed", "123");
  ss.log.Record(loadgen::LogEventKind::kQueryIssued, 1, loadgen::Seconds{0.5});
  ss.log.Record(loadgen::LogEventKind::kQueryShed, 2, loadgen::Seconds{0.6});
  ss.log.Record(loadgen::LogEventKind::kQueryRejected, 1,
                loadgen::Seconds{0.7});
  t.single_stream = ss;

  t.energy_per_inference_j = 0.00123;
  t.peak_temperature_c = 43.5;
  t.peak_arena_bytes = 1 << 20;
  t.naive_activation_bytes = 1 << 22;
  t.status = harness::TaskStatus::kValidDegraded;
  t.status_detail = "retried twice";
  t.fault_count = 5;
  t.degradation_count = 2;
  t.shed_count = 7;
  t.rejected_count = 3;
  t.breaker_trips = 1;
  t.degraded_to_cpu = true;
  t.performance_attempts = 2;
  t.fault_log = "fault stall q=1\nbreaker closed->open query=9\n";
  t.lint_error_count = 1;
  t.lint_warning_count = 4;
  t.lint_log = "warning: something\n";
  t.kernel_isa = "avx2";
  t.transform_requested = true;
  t.transform_applied = false;
  t.transform_passes = "split-activations,constant-fold\nwith\nbreaks";
  t.transform_rewrites = 42;
  t.transform_nodes_before = 103;
  t.transform_nodes_after = 70;
  t.transform_detail = "equivalence probe failed on sample 0";
  t.tiling_requested = true;
  t.tiling_applied = true;
  t.tile_segments = 19;
  t.tile_rows = -1;  // auto: exercises the signed u64 image round trip
  t.tile_slab_bytes = 465920;
  return t;
}

// HostileTask with both optional LoadGen blobs present and no field left
// at its default.
inline harness::TaskRunResult FullTask(const std::string& id) {
  harness::TaskRunResult t = HostileTask(id);
  t.numerics = DataType::kUInt8;
  t.offline = HostileTestResult();
  t.transform_applied = true;
  return t;
}

inline fleet::ShardResult HostileShard(std::size_t id) {
  fleet::ShardResult s;
  s.shard_id = id;
  s.chipset = "Snapdragon 888";
  s.task_id = "ic_tf";
  s.numerics = DataType::kUInt8;
  s.config_key = "v1.0|ic_tf|Snapdragon 888";
  s.result = HostileTestResult();
  s.state = harness::TaskStatus::kInvalid;
  s.slo_met = true;
  s.breaker_trips = 2;
  s.fault_count = 9;
  s.energy_j = 1.0 / 3.0;
  s.peak_temperature_c = 51.25;
  s.accuracy = 0.7071067811865476;
  s.fp32_reference = 0.75;
  s.ratio_to_fp32 = 0.9428090415820635;
  s.quality_passed = true;
  return s;
}

}  // namespace mlpm::journal_fixtures
