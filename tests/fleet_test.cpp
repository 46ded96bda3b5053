// Fleet serving mode (DESIGN.md §16): build-once plan sharing, seeded
// determinism of the aggregated report, query-accounting conformance under
// overload, shard-for-shard equivalence with the simulated backend, and
// crash-safe journal resume.  Also pins loadgen::FindMaxServerQps
// bisection behavior (monotone convergence, errored probes, the shed
// bound).
#include <atomic>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backends/circuit_breaker.h"
#include "backends/simulated_backend.h"
#include "backends/vendor_policy.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "datasets/stub_dataset.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "fleet/mix.h"
#include "fleet/report.h"
#include "harness/frame_log.h"
#include "harness/run_session.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "soc/chipset.h"
#include "soc/faults.h"

namespace mlpm {
namespace {

// ---------------------------------------------------------------------------
// Fleet determinism + sharing (property)

fleet::FleetOptions SmallFleet(std::size_t shards) {
  fleet::FleetOptions fo;
  fo.shard_count = shards;
  fo.settings.server_query_count = 256;
  fo.settings.server_max_queue_depth = 64;
  fo.settings.server_max_shed_fraction = 1.0;
  return fo;
}

TEST(Fleet, SameSeedSixtyFourShardsIsByteIdentical) {
  const fleet::FleetOptions fo = SmallFleet(64);
  const fleet::FleetReport a = fleet::RunFleet(fo);
  const fleet::FleetReport b = fleet::RunFleet(fo);
  EXPECT_EQ(fleet::FormatFleetReport(a), fleet::FormatFleetReport(b));
  EXPECT_EQ(a.shards.size(), 64u);
  EXPECT_FALSE(a.interrupted);
}

TEST(Fleet, ReportInvariantUnderWorkerCount) {
  fleet::FleetOptions fo = SmallFleet(16);
  fo.workers = 1;
  const std::string serial = fleet::FormatFleetReport(fleet::RunFleet(fo));
  fo.workers = 4;
  const std::string parallel = fleet::FormatFleetReport(fleet::RunFleet(fo));
  EXPECT_EQ(serial, parallel);
}

TEST(Fleet, DifferentSeedsDiverge) {
  fleet::FleetOptions fo = SmallFleet(8);
  const std::string a = fleet::FormatFleetReport(fleet::RunFleet(fo));
  fo.settings.seed = fo.settings.seed + 1;
  const std::string b = fleet::FormatFleetReport(fleet::RunFleet(fo));
  EXPECT_NE(a, b);
}

TEST(Fleet, SharesPreparedModelsAcrossShardsOfOneConfig) {
  const fleet::FleetReport r = fleet::RunFleet(SmallFleet(64));
  // Default v1.0 mix: full catalog x suite tasks, far fewer configs than
  // shards — and exactly one build per distinct config.
  EXPECT_GT(r.shard_count, r.distinct_configs);
  EXPECT_EQ(r.prepared_models_built, r.distinct_configs);
}

// ---------------------------------------------------------------------------
// Query-accounting conformance under 2x overload (conformance)

TEST(Fleet, OverloadAccountingIdentityHolds) {
  fleet::FleetOptions fo;
  fo.shard_count = 4;
  fo.mix = fleet::ParseFleetMix("Dimensity 1100:ic");
  fo.settings.server_query_count = 512;
  // Far past any mobile SoC's single-stream service rate: admission
  // control must shed, and the identity has to hold anyway.
  fo.settings.server_target_qps = 2000.0;
  fo.settings.server_max_queue_depth = 8;
  fo.settings.server_max_shed_fraction = 1.0;
  fo.settings.query_timeout = loadgen::Seconds{0.200};

  const fleet::FleetReport r = fleet::RunFleet(fo);
  ASSERT_EQ(r.shards.size(), 4u);
  std::size_t total_shed = 0;
  for (const fleet::ShardResult& s : r.shards) {
    const loadgen::TestResult& t = s.result;
    // Every offered query is either issued or shed...
    EXPECT_EQ(t.issued_count + t.shed_count,
              fo.settings.server_query_count)
        << "shard " << s.shard_id;
    // ...and every issued query resolves exactly once.
    EXPECT_EQ(t.issued_count, t.sample_count + t.timed_out_count +
                                  t.dropped_count + t.rejected_count)
        << "shard " << s.shard_id;
    total_shed += t.shed_count;
  }
  EXPECT_GT(total_shed, 0u) << "2x overload should trip admission control";
  EXPECT_EQ(r.offered, r.issued + r.shed);
  EXPECT_EQ(r.issued,
            r.completed + r.timed_out + r.dropped + r.rejected);
}

// Shards count shed, rejected and simulated queries locally and publish
// once per test; the registry must still hold true sums, at any worker
// count.
TEST(Fleet, PublishedCountersSumTheReport) {
  fleet::FleetOptions fo = SmallFleet(64);
  fo.settings.server_target_qps = 400.0;
  fo.settings.server_max_queue_depth = 4;
  fo.settings.query_timeout = loadgen::Seconds{0.200};
  soc::FaultPlan faults;
  faults.DriverCrashes(0.2);
  fo.fault_plan = faults;
  fo.circuit_breaker = backends::CircuitBreakerOptions{};

  std::vector<std::vector<std::uint64_t>> runs;
  for (const std::size_t workers : {1u, 4u}) {
    fo.workers = workers;
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    metrics.Reset();
    const fleet::FleetReport r = fleet::RunFleet(fo);
    ASSERT_EQ(r.shards.size(), 64u);
    std::size_t faulted = 0;
    for (const fleet::ShardResult& s : r.shards) faulted += s.fault_count;
    ASSERT_GT(r.shed, 0u) << "the fleet must shed for the test to bite";
    ASSERT_GT(r.rejected, 0u) << "the breaker must reject";
    ASSERT_GT(faulted, 0u) << "the fault plan must fire";

    const std::vector<std::uint64_t> counters = {
        metrics.counter("loadgen.queries_shed"),
        metrics.counter("loadgen.queries_rejected"),
        metrics.counter("loadgen.queries_issued"),
        metrics.counter("soc.inferences"),
        metrics.counter("soc.faults_injected")};
    EXPECT_EQ(counters[0], r.shed) << workers << " worker(s)";
    EXPECT_EQ(counters[1], r.rejected) << workers << " worker(s)";
    EXPECT_EQ(counters[2], r.issued) << workers << " worker(s)";
    // A rejected query never reaches the simulator; every other issued
    // query is one attempt, crashed or not.
    EXPECT_EQ(counters[3], r.issued - r.rejected) << workers << " worker(s)";
    EXPECT_EQ(counters[4], faulted) << workers << " worker(s)";
    runs.push_back(counters);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

// FNV-1a 64 of the report of a 64-shard overloaded fleet whose shards
// crash and run behind breakers: pins the faulted shard path byte for byte.
TEST(Fleet, FaultedBreakerReportIsPinned) {
  fleet::FleetOptions fo = SmallFleet(64);
  fo.settings.server_target_qps = 400.0;
  fo.settings.server_max_queue_depth = 4;
  fo.settings.query_timeout = loadgen::Seconds{0.200};
  soc::FaultPlan faults;
  faults.DriverCrashes(0.2);
  fo.fault_plan = faults;
  fo.circuit_breaker = backends::CircuitBreakerOptions{};
  const fleet::FleetReport r = fleet::RunFleet(fo);
  ASSERT_GT(r.breaker_trips, 0u) << "the breakers must trip";
  EXPECT_EQ(harness::Fnv1a64(fleet::FormatFleetReport(r)), 0xddfe9b3ae9d0b6faull);
}

// ---------------------------------------------------------------------------
// Fleet shards vs an independent SimulatedBackend replay (property)

// Every shard of a mixed fleet equals a run of the one simulated backend on
// the shard's chipset and compiled plan at the documented per-shard seed
// Rng(seed).Split(0xF1EE7).Split(i).
TEST(Fleet, EveryShardMatchesSimulatedBackendReplay) {
  const models::SuiteVersion version = models::SuiteVersion::kV1_0;
  fleet::FleetOptions fo = SmallFleet(8);
  fo.version = version;
  fo.mix = fleet::ParseFleetMix("Dimensity 1100:ic:1;Exynos 2100:qa:1");
  fo.settings.server_target_qps = 120.0;
  fo.settings.server_max_queue_depth = 8;
  const fleet::FleetReport r = fleet::RunFleet(fo);
  ASSERT_EQ(r.shards.size(), 8u);
  EXPECT_EQ(r.distinct_configs, 2u);

  const std::vector<fleet::ResolvedMixEntry> resolved =
      fleet::ResolveMix(fo.mix, version);
  const std::vector<std::size_t> counts =
      fleet::AssignShardCounts(fo.mix, fo.shard_count);
  loadgen::TestSettings settings = fo.settings;
  settings.mode = loadgen::TestMode::kPerformanceOnly;
  const datasets::StubDataset stub;
  std::size_t id = 0;
  std::size_t total_shed = 0;
  for (std::size_t m = 0; m < resolved.size(); ++m) {
    const soc::ChipsetDesc& chipset = resolved[m].chipset;
    const backends::SubmissionConfig sub =
        backends::GetSubmission(chipset, resolved[m].entry.task, version);
    const soc::CompiledModel plan = backends::CompileSubmission(
        chipset, sub,
        models::BuildReferenceGraph(resolved[m].entry, version,
                                    models::ModelScale::kFull));
    for (std::size_t k = 0; k < counts[m]; ++k, ++id) {
      settings.seed = Rng(fo.settings.seed).Split(0xF1EE7).Split(id).NextU64();
      loadgen::VirtualClock clock;
      backends::SimulatedBackend sut(chipset.name, soc::SocSimulator(chipset),
                                     plan, {}, clock);
      loadgen::DatasetQsl qsl(stub);
      const loadgen::TestResult oracle =
          loadgen::RunTest(sut, qsl, settings, clock);

      const loadgen::TestResult& shard = r.shards[id].result;
      EXPECT_EQ(shard.latencies_s, oracle.latencies_s) << "shard " << id;
      EXPECT_EQ(shard.throughput_sps, oracle.throughput_sps) << "shard " << id;
      EXPECT_EQ(shard.percentile_latency_s, oracle.percentile_latency_s)
          << "shard " << id;
      EXPECT_EQ(shard.shed_count, oracle.shed_count) << "shard " << id;
      EXPECT_EQ(shard.issued_count, oracle.issued_count) << "shard " << id;
      total_shed += oracle.shed_count;
    }
  }
  EXPECT_EQ(id, 8u);
  EXPECT_GT(total_shed, 0u) << "the replay should cover admission shedding";
}

TEST(Fleet, AccuracyPlaneMatchesTaskBundleScores) {
  const models::SuiteVersion version = models::SuiteVersion::kV1_0;
  fleet::FleetOptions fo;
  fo.shard_count = 2;  // two shards, one config: scored once, stamped twice
  fo.mix = fleet::ParseFleetMix("Dimensity 1100:ic");
  fo.settings.server_query_count = 128;
  fo.accuracy = true;
  const fleet::FleetReport r = fleet::RunFleet(fo);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_GT(r.shards[0].accuracy, 0.0);
  EXPECT_EQ(r.shards[0].accuracy, r.shards[1].accuracy);
  EXPECT_EQ(r.shards[0].ratio_to_fp32, r.shards[1].ratio_to_fp32);

  // Oracle: the same scores the harness accuracy plane computes.
  models::BenchmarkEntry entry;
  for (const models::BenchmarkEntry& e : models::SuiteFor(version))
    if (e.task == models::TaskType::kImageClassification) entry = e;
  harness::SuiteBundles bundles;
  const harness::TaskBundle& bundle = bundles.Get(entry, version);
  const harness::TaskBundle::PreparedModel prepared =
      bundle.Prepare(infer::NumericsMode::kInt8, false);
  ASSERT_NE(prepared.executor, nullptr);
  const double accuracy = bundle.ScoreAccuracy(*prepared.executor, nullptr);
  const double fp32 = bundle.Fp32Score(nullptr);
  EXPECT_DOUBLE_EQ(r.shards[0].accuracy, accuracy);
  EXPECT_DOUBLE_EQ(r.shards[0].fp32_reference, fp32);
  EXPECT_EQ(r.shards[0].quality_passed,
            fp32 > 0 && accuracy / fp32 >= entry.quality_target);
}

// The accuracy plane fans each config out over the process pool; the
// report must not depend on its lane count.
TEST(Fleet, AccuracyPlaneReportInvariantUnderGlobalLanes) {
  fleet::FleetOptions fo = SmallFleet(2);
  fo.mix = fleet::ParseFleetMix("Dimensity 1100:ic;Exynos 2100:qa");
  fo.settings.server_query_count = 64;
  fo.accuracy = true;
  const std::size_t lanes = ThreadPool::Global().thread_count();
  ThreadPool::SetGlobalThreadCount(1);
  const std::string one = fleet::FormatFleetReport(fleet::RunFleet(fo));
  ThreadPool::SetGlobalThreadCount(4);
  const std::string four = fleet::FormatFleetReport(fleet::RunFleet(fo));
  ThreadPool::SetGlobalThreadCount(lanes);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("of fp32"), std::string::npos) << one;
}

// ---------------------------------------------------------------------------
// Journal kill-and-resume (property)

TEST(Fleet, KillAndResumeReplaysIntactShardsToIdenticalReport) {
  const std::string path = testing::TempDir() + "/fleet_resume.journal";

  fleet::FleetOptions fo = SmallFleet(8);
  fo.workers = 1;  // deterministic interruption point

  // Uninterrupted reference run, no journal.
  const std::string reference =
      fleet::FormatFleetReport(fleet::RunFleet(fo));

  // Killed run: cancel after three shards started.
  fleet::FleetOptions killed = fo;
  killed.journal_path = path;
  std::atomic<int> starts{0};
  killed.cancel = [&] { return starts.fetch_add(1) >= 3; };
  const fleet::FleetReport partial = fleet::RunFleet(killed);
  EXPECT_TRUE(partial.interrupted);
  ASSERT_GT(partial.shards.size(), 0u);
  ASSERT_LT(partial.shards.size(), 8u);

  // The journal holds exactly the finished shards, intact.
  const fleet::FleetJournal::Load load = fleet::kFleetJournal.Read(path);
  ASSERT_TRUE(load.meta_valid);
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(load.records.size(), partial.shards.size());

  // Resumed run: replays the journal, runs the rest, matches byte-for-byte.
  fleet::FleetOptions resumed = fo;
  resumed.journal_path = path;
  resumed.resume = true;
  const fleet::FleetReport full = fleet::RunFleet(resumed);
  EXPECT_FALSE(full.interrupted);
  EXPECT_EQ(full.resumed_shards, partial.shards.size());
  EXPECT_EQ(fleet::FormatFleetReport(full), reference);

  // A second resume replays every shard and compiles no plan at all.
  const fleet::FleetReport replayed = fleet::RunFleet(resumed);
  EXPECT_EQ(replayed.resumed_shards, 8u);
  EXPECT_EQ(replayed.prepared_models_built, 0u);
  EXPECT_EQ(fleet::FormatFleetReport(replayed), reference);
}

TEST(Fleet, ResumeIgnoresJournalOfDifferentConfiguration) {
  const std::string path = testing::TempDir() + "/fleet_mismatch.journal";
  fleet::FleetOptions fo = SmallFleet(4);
  fo.journal_path = path;
  const fleet::FleetReport first = fleet::RunFleet(fo);
  EXPECT_EQ(first.resumed_shards, 0u);

  // Different seed → different config identity → full re-run.
  fleet::FleetOptions other = fo;
  other.settings.seed = fo.settings.seed + 7;
  other.resume = true;
  const fleet::FleetReport second = fleet::RunFleet(other);
  EXPECT_EQ(second.resumed_shards, 0u);
  EXPECT_EQ(second.shards.size(), 4u);

  // Same seed and shard count, different settings: only the config hash
  // differs, and that alone forces a re-run.
  fleet::FleetOptions resized = other;
  resized.settings.server_query_count = 200;
  const fleet::FleetReport third = fleet::RunFleet(resized);
  EXPECT_EQ(third.resumed_shards, 0u);

  // Each mismatched resume replaced the journal rather than appending to
  // it: the file holds the last run's meta and exactly its four shards.
  const fleet::FleetJournal::Load load = fleet::kFleetJournal.Read(path);
  ASSERT_TRUE(load.meta_valid);
  EXPECT_EQ(load.meta.seed, other.settings.seed);
  EXPECT_EQ(load.meta.config_hash,
            fleet::HashFleetConfig(resized, fleet::DefaultFleetMix(
                                                resized.version)));
  EXPECT_NE(load.meta.config_hash,
            fleet::HashFleetConfig(other, fleet::DefaultFleetMix(
                                              other.version)));
  EXPECT_FALSE(load.torn_tail);
  ASSERT_EQ(load.records.size(), 4u);
  EXPECT_EQ(fleet::ShardsById(load.records).size(), 4u);
}

TEST(Fleet, ShardJournaledTwiceReplaysItsLaterRecord) {
  std::vector<fleet::ShardResult> records(3);
  records[0].shard_id = 1;
  records[0].config_key = "first";
  records[1].shard_id = 0;
  records[2].shard_id = 1;
  records[2].config_key = "later";
  const std::map<std::size_t, fleet::ShardResult> shards =
      fleet::ShardsById(records);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards.at(1).config_key, "later");
}

// ---------------------------------------------------------------------------
// FindMaxServerQps bisection behavior (unit)

loadgen::TestResult ProbeResult(bool latency_ok, bool shed_ok,
                                bool errored = false) {
  loadgen::TestResult r;
  r.scenario = loadgen::TestScenario::kServer;
  r.sample_count = 1;
  r.latency_bound_met = latency_ok;
  r.shed_bound_met = shed_ok;
  if (errored) r.invalid_reason = "synthetic probe failure";
  return r;
}

TEST(FindMaxServerQps, ConvergesOnMonotonePredicate) {
  const double capacity = 37.5;
  int probes = 0;
  const double qps = loadgen::FindMaxServerQps(
      [&](double q) {
        ++probes;
        return ProbeResult(q <= capacity, true);
      },
      1.0, 100.0, 20);
  EXPECT_LE(qps, capacity);
  EXPECT_NEAR(qps, capacity, (100.0 - 1.0) / (1 << 20) * 4);
  EXPECT_EQ(probes, 22);  // lo + hi + 20 bisection probes
}

TEST(FindMaxServerQps, ReturnsHiWhenHiPasses) {
  const double qps = loadgen::FindMaxServerQps(
      [](double) { return ProbeResult(true, true); }, 1.0, 64.0);
  EXPECT_DOUBLE_EQ(qps, 64.0);
}

TEST(FindMaxServerQps, ErroredLoProbeStopsSearchImmediately) {
  int probes = 0;
  const double qps = loadgen::FindMaxServerQps(
      [&](double) {
        ++probes;
        return ProbeResult(true, true, /*errored=*/true);
      },
      1.0, 100.0);
  EXPECT_DOUBLE_EQ(qps, 0.0);
  EXPECT_EQ(probes, 1);
}

TEST(FindMaxServerQps, AlwaysFailingPredicateReturnsZero) {
  const double qps = loadgen::FindMaxServerQps(
      [](double) { return ProbeResult(false, true); }, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(qps, 0.0);
}

TEST(FindMaxServerQps, ErroredMidProbeCountsAsFailure) {
  // Valid at low rates, structurally broken above 30: the search must
  // treat errored probes as failures and stay below the error cliff.
  const double qps = loadgen::FindMaxServerQps(
      [](double q) { return ProbeResult(true, true, /*errored=*/q > 30.0); },
      1.0, 100.0, 20);
  EXPECT_LE(qps, 30.0);
  EXPECT_NEAR(qps, 30.0, 0.01);
}

TEST(FindMaxServerQps, ShedBoundViolationIsNotServingTheRate) {
  // The SUT "meets latency" at any rate by refusing most of the load past
  // 20 qps; the search must not count those probes as passes.
  const double qps = loadgen::FindMaxServerQps(
      [](double q) { return ProbeResult(true, /*shed_ok=*/q <= 20.0); },
      1.0, 100.0, 20);
  EXPECT_LE(qps, 20.0);
  EXPECT_NEAR(qps, 20.0, 0.01);
}

// ---------------------------------------------------------------------------
// Mix parsing (unit)

TEST(FleetMix, ParsesSpecWithAliasesAndWeights) {
  const std::vector<fleet::FleetMixEntry> mix =
      fleet::ParseFleetMix("Dimensity 1100:ic:2;Exynos 2100:qa");
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix[0].chipset, "Dimensity 1100");
  EXPECT_EQ(mix[0].task_id, "image_classification");
  EXPECT_DOUBLE_EQ(mix[0].weight, 2.0);
  EXPECT_EQ(mix[1].task_id, "question_answering");
  EXPECT_DOUBLE_EQ(mix[1].weight, 1.0);
}

TEST(FleetMix, ShardCountsFollowWeightsExactly) {
  std::vector<fleet::FleetMixEntry> mix =
      fleet::ParseFleetMix("A:ic:3;B:ic:1");
  const std::vector<std::size_t> counts =
      fleet::AssignShardCounts(mix, 8);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 6u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[0] + counts[1], 8u);
}

TEST(FleetMix, UnknownChipsetThrows) {
  fleet::FleetOptions fo;
  fo.shard_count = 1;
  fo.mix = fleet::ParseFleetMix("No Such SoC:ic");
  EXPECT_THROW({ auto r = fleet::RunFleet(fo); }, CheckError);
}

}  // namespace
}  // namespace mlpm
