#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "backends/simulated_backend.h"
#include "backends/vendor_policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/thread_pool.h"
#include "core/dataset_qsl.h"
#include "datasets/stub_dataset.h"
#include "fleet/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "soc/simulator.h"

namespace mlpm::fleet {
namespace {

// One shard's static identity, fixed before any worker runs.
struct ShardSpec {
  std::size_t id = 0;
  soc::ChipsetDesc chipset;
  models::BenchmarkEntry entry;
  std::string config_key;
  std::uint64_t seed = 0;  // per-shard LoadGen seed
};

[[nodiscard]] std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t tag,
                                       std::size_t shard_id) {
  Rng r = Rng(base).Split(tag).Split(shard_id);
  return r.NextU64();
}

// One version|task|chipset config's vendor submission and compiled
// single-stream plan.
struct ConfigPlan {
  backends::SubmissionConfig sub;
  soc::CompiledModel single_stream;
};

[[nodiscard]] ShardResult RunOneShard(const ShardSpec& spec,
                                      const FleetOptions& options,
                                      const ConfigPlan& plan) {
  ShardResult out;
  out.shard_id = spec.id;
  out.chipset = spec.chipset.name;
  out.task_id = spec.entry.id;
  out.config_key = spec.config_key;
  out.numerics = plan.sub.numerics;

  loadgen::TestSettings settings = options.settings;
  settings.mode = loadgen::TestMode::kPerformanceOnly;
  settings.seed = spec.seed;

  loadgen::VirtualClock clock;
  soc::SocSimulator sim(spec.chipset);
  sim.SetTraceLanePrefix("shard-" + std::to_string(spec.id) + "/");
  if (options.fault_plan.has_value()) {
    soc::FaultPlan faults = *options.fault_plan;
    faults.seed = DeriveSeed(faults.seed, 0xFA17, spec.id);
    sim.InjectFaults(std::move(faults));
  }

  // The simulator (thermal/DVFS state) and the plan copy are per-shard:
  // devices share a config, not temperature.
  backends::SimulatedBackend sut(
      spec.chipset.name + "/" + plan.sub.framework.name, std::move(sim),
      plan.single_stream, {}, clock);
  const datasets::StubDataset stub;
  loadgen::DatasetQsl qsl(stub);

  if (options.circuit_breaker.has_value()) {
    backends::CircuitBreakerOptions cb = *options.circuit_breaker;
    cb.seed = DeriveSeed(cb.seed, 0xCB, spec.id);
    backends::CircuitBreakerBackend breaker(sut, clock, cb);
    out.result = loadgen::RunTest(breaker, qsl, settings, clock);
    out.breaker_trips = breaker.stats().trips;
  } else {
    out.result = loadgen::RunTest(sut, qsl, settings, clock);
  }

  out.fault_count = sut.simulator().fault_count();
  out.energy_j = sut.total_energy_j();
  out.peak_temperature_c = sut.simulator().thermal().temperature_c();
  out.slo_met = !out.result.Errored() && out.result.latency_bound_met &&
                out.result.shed_bound_met;
  if (out.result.Errored()) {
    out.state = harness::TaskStatus::kInvalid;
  } else if (out.result.AnomalyCount() > 0 || out.fault_count > 0 ||
             out.breaker_trips > 0) {
    out.state = harness::TaskStatus::kValidDegraded;
  } else {
    out.state = harness::TaskStatus::kValid;
  }
  return out;
}

// Builds the plan of every config with at least one shard left to run,
// serially on the coordinator before any shard starts (a few milliseconds
// for the whole default mix); workers then only read the map.  Replayed
// shards build nothing.
[[nodiscard]] std::map<std::string, ConfigPlan> BuildPlans(
    const FleetOptions& options, const std::vector<ShardSpec>& specs,
    const std::vector<std::optional<ShardResult>>& slots) {
  std::map<std::string, ConfigPlan> plans;
  for (const ShardSpec& spec : specs) {
    if (slots[spec.id].has_value() || plans.contains(spec.config_key))
      continue;
    ConfigPlan plan;
    plan.sub = backends::GetSubmission(spec.chipset, spec.entry.task,
                                       options.version);
    plan.single_stream = backends::CompileSubmission(
        spec.chipset, plan.sub,
        models::BuildReferenceGraph(spec.entry, options.version,
                                    models::ModelScale::kFull));
    plans.emplace(spec.config_key, std::move(plan));
  }
  return plans;
}

// Scores each distinct (task, numerics) config once on the functional
// plane and stamps the result onto every shard of that config — including
// replayed shards, so a journal cut before the accuracy plane ran still
// resumes to a field-identical report (scores are deterministic per
// config).  Serial by design: TaskBundle preparation caches through an
// unguarded map, so the accuracy plane stays on the coordinator thread.
void RunAccuracyPlane(const FleetOptions& options,
                      const std::vector<ShardSpec>& specs,
                      std::vector<std::optional<ShardResult>>& slots) {
  harness::SuiteBundles bundles;
  struct Scores {
    double accuracy = 0.0;
    double fp32 = 0.0;
    double ratio = 0.0;
    bool passed = false;
  };
  std::map<std::string, Scores> scored;
  for (const ShardSpec& spec : specs) {
    std::optional<ShardResult>& slot = slots[spec.id];
    if (!slot.has_value()) continue;
    const std::string key =
        spec.entry.id + "|" + std::string(ToString(slot->numerics));
    auto it = scored.find(key);
    if (it == scored.end()) {
      const harness::TaskBundle& bundle =
          bundles.Get(spec.entry, options.version);
      const infer::NumericsMode mode = infer::NumericsModeFor(slot->numerics);
      const harness::TaskBundle::PreparedModel prepared =
          bundle.Prepare(mode, false, options.kernel_isa);
      Scores s;
      s.accuracy = bundle.ScoreAccuracy(
          *NotNull(prepared.executor,
                   "TaskBundle::Prepare returned no executor"),
          nullptr);
      s.fp32 = bundle.Fp32Score(nullptr, options.kernel_isa);
      s.ratio = s.fp32 > 0 ? s.accuracy / s.fp32 : 0.0;
      s.passed = s.ratio >= spec.entry.quality_target;
      it = scored.emplace(key, s).first;
    }
    slot->accuracy = it->second.accuracy;
    slot->fp32_reference = it->second.fp32;
    slot->ratio_to_fp32 = it->second.ratio;
    slot->quality_passed = it->second.passed;
  }
}

}  // namespace

FleetReport RunFleet(const FleetOptions& options) {
  Expects(options.shard_count > 0, "fleet needs at least one shard");
  Expects(options.settings.scenario == loadgen::TestScenario::kServer ||
              options.settings.scenario ==
                  loadgen::TestScenario::kSingleStream,
          "fleet shards run the server or single-stream scenario");
  Expects(!options.resume || !options.journal_path.empty(),
          "--resume needs a journal path");

  const std::vector<FleetMixEntry> mix =
      options.mix.empty() ? DefaultFleetMix(options.version) : options.mix;
  const std::vector<ResolvedMixEntry> resolved =
      ResolveMix(mix, options.version);
  const std::vector<std::size_t> counts =
      AssignShardCounts(mix, options.shard_count);

  // Shards 0..N-1 in mix order; each knows its config and derived seed
  // before any worker runs, so nothing depends on scheduling.
  std::vector<ShardSpec> specs;
  specs.reserve(options.shard_count);
  for (std::size_t m = 0; m < resolved.size(); ++m) {
    for (std::size_t k = 0; k < counts[m]; ++k) {
      ShardSpec spec;
      spec.id = specs.size();
      spec.chipset = resolved[m].chipset;
      spec.entry = resolved[m].entry;
      spec.config_key = std::string(ToString(options.version)) + "|" +
                        spec.entry.id + "|" + spec.chipset.name;
      spec.seed = DeriveSeed(options.settings.seed, 0xF1EE7, spec.id);
      specs.push_back(std::move(spec));
    }
  }
  Ensures(specs.size() == options.shard_count, "shard apportioning bug");

  FleetReport report;
  report.version = options.version;
  report.seed = options.settings.seed;
  report.shard_count = options.shard_count;
  report.mix_spec = FormatFleetMix(mix);

  // Journal: replay intact shard records of a matching previous run, then
  // append freshly-run shards.
  FleetJournalMeta meta;
  meta.version = std::string(ToString(options.version));
  meta.seed = options.settings.seed;
  meta.shard_count = options.shard_count;
  meta.config_hash = HashFleetConfig(options, mix);

  std::vector<std::optional<ShardResult>> slots(options.shard_count);
  std::unique_ptr<FleetJournal::Writer> journal;
  if (!options.journal_path.empty()) {
    FleetJournal::Opened opened =
        kFleetJournal.Open(options.journal_path, meta, options.resume);
    for (auto& [id, shard] : ShardsById(std::move(opened.replay.records))) {
      if (id >= options.shard_count) continue;
      shard.resumed = true;
      slots[id] = std::move(shard);
    }
    journal = std::move(opened.writer);
  }
  for (const std::optional<ShardResult>& slot : slots)
    if (slot.has_value()) ++report.resumed_shards;

  const std::map<std::string, ConfigPlan> plans =
      BuildPlans(options, specs, slots);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  std::atomic<std::size_t> active{0};
  std::atomic<std::size_t> started{0};
  std::atomic<bool> interrupted{false};
  std::mutex cancel_mu;
  const auto cancelled = [&] {
    if (!options.cancel) return false;
    std::scoped_lock lock(cancel_mu);
    return options.cancel();
  };
  metrics.SetGauge("fleet.queue_depth",
                   static_cast<double>(options.shard_count));

  const ThreadPool pool(options.workers);
  pool.ParallelFor(
      0, static_cast<std::int64_t>(options.shard_count),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          const ShardSpec& spec = specs[static_cast<std::size_t>(i)];
          if (slots[spec.id].has_value()) continue;  // replayed
          if (interrupted.load(std::memory_order_relaxed) || cancelled()) {
            interrupted.store(true, std::memory_order_relaxed);
            continue;
          }
          const std::size_t now_started =
              started.fetch_add(1, std::memory_order_relaxed) + 1;
          metrics.SetGauge(
              "fleet.queue_depth",
              static_cast<double>(options.shard_count - now_started));
          const std::size_t now_active =
              active.fetch_add(1, std::memory_order_relaxed) + 1;
          metrics.SetGauge("fleet.shards.active",
                           static_cast<double>(now_active));
          metrics.MaxGauge("fleet.shards.active.peak",
                           static_cast<double>(now_active));

          const std::uint64_t span_id = recorder.NextAsyncId();
          const std::string span_name = "shard-" + std::to_string(spec.id);
          recorder.AddAsyncBegin(obs::Domain::kHost, "fleet", span_name,
                                 "fleet", span_id, recorder.NowUs());
          ShardResult shard =
              RunOneShard(spec, options, plans.at(spec.config_key));
          recorder.AddAsyncEnd(obs::Domain::kHost, "fleet", span_name,
                               "fleet", span_id, recorder.NowUs());

          // Shards journal as they finish unless the accuracy plane still
          // has fields to stamp (then the coordinator journals after it).
          if (journal != nullptr && !options.accuracy)
            journal->Append(shard);
          slots[spec.id] = std::move(shard);
          metrics.SetGauge(
              "fleet.shards.active",
              static_cast<double>(
                  active.fetch_sub(1, std::memory_order_relaxed) - 1));
        }
      });

  report.interrupted = interrupted.load();
  if (options.accuracy && !report.interrupted)
    RunAccuracyPlane(options, specs, slots);
  if (journal != nullptr && options.accuracy) {
    for (const std::optional<ShardResult>& slot : slots)
      if (slot.has_value() && !slot->resumed) journal->Append(*slot);
  }

  // Aggregate from the sorted shard vector; a resumed run aggregates
  // identically to an uninterrupted one.
  std::set<std::string> distinct;
  for (const ShardSpec& spec : specs) distinct.insert(spec.config_key);
  report.distinct_configs = distinct.size();
  report.prepared_models_built = plans.size();

  std::vector<double> merged_latencies;
  std::size_t slo_met = 0;
  for (const std::optional<ShardResult>& slot : slots) {
    if (!slot.has_value()) continue;
    const ShardResult& s = *slot;
    report.shards.push_back(s);
    const loadgen::TestResult& r = s.result;
    report.offered += r.issued_count + r.shed_count;
    report.issued += r.issued_count;
    report.completed += r.sample_count;
    report.shed += r.shed_count;
    report.rejected += r.rejected_count;
    report.timed_out += r.timed_out_count;
    report.dropped += r.dropped_count;
    report.breaker_trips += s.breaker_trips;
    report.fleet_qps += r.throughput_sps;
    if (s.slo_met) ++slo_met;
    switch (s.state) {
      case harness::TaskStatus::kValid: ++report.valid_count; break;
      case harness::TaskStatus::kValidDegraded:
        ++report.degraded_count;
        break;
      default: ++report.invalid_count; break;
    }
    merged_latencies.insert(merged_latencies.end(), r.latencies_s.begin(),
                            r.latencies_s.end());
  }
  if (!report.shards.empty())
    report.slo_met_fraction = static_cast<double>(slo_met) /
                              static_cast<double>(report.shards.size());
  if (!merged_latencies.empty()) {
    const double ps[] = {50.0, 90.0, 99.0};
    const std::vector<double> v = Percentiles(merged_latencies, ps);
    report.p50_ms = v[0] * 1e3;
    report.p90_ms = v[1] * 1e3;
    report.p99_ms = v[2] * 1e3;
  }

  metrics.SetGauge("fleet.shards.active", 0.0);
  metrics.SetGauge("fleet.queue_depth", 0.0);
  metrics.SetGauge("fleet.qps", report.fleet_qps);
  return report;
}

}  // namespace mlpm::fleet
