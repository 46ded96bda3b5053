// Tests for the fault-injection framework and the fault-tolerant run
// pipeline: seeded determinism, the simulated backend's recovery policy
// (retry / CPU fallback / emergency cooldown), the LoadGen watchdog, the
// degraded-run states the harness reports, and pinned faulted output.
#include <gtest/gtest.h>

#include "backends/simulated_backend.h"
#include "backends/vendor_policy.h"
#include "common/check.h"
#include "core/loadgen.h"
#include "harness/frame_log.h"
#include "harness/report.h"
#include "harness/run_session.h"
#include "models/mobilenet_edgetpu.h"
#include "models/zoo.h"
#include "soc/faults.h"
#include "soc/simulator.h"

namespace mlpm {
namespace {

soc::CompiledModel AcceleratedPlan(const soc::ChipsetDesc& chip,
                                   const graph::Graph& model) {
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chip, models::TaskType::kImageClassification,
      models::SuiteVersion::kV1_0);
  return backends::CompileSubmission(chip, sub, model);
}

backends::Recovery CpuRecovery(const soc::ChipsetDesc& chip,
                               const graph::Graph& model,
                               backends::FaultToleranceOptions opts = {}) {
  return {backends::CompileCpuFallback(chip, model, DataType::kInt8), opts};
}

struct CountingSink final : loadgen::ResponseSink {
  void Complete(loadgen::QuerySampleResponse r) override {
    ids.push_back(r.id);
  }
  std::vector<std::uint64_t> ids;
};

TEST(FaultInjector, RejectsOutOfRangeProbability) {
  soc::FaultPlan bad;
  bad.DriverCrashes(1.5);
  EXPECT_THROW(soc::FaultInjector{bad}, CheckError);
  soc::FaultPlan negative;
  negative.TransientStalls(-0.1);
  EXPECT_THROW(soc::FaultInjector{negative}, CheckError);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const soc::FaultPlan plan = soc::FaultPlan{}
                                  .TransientStalls(0.1)
                                  .DriverCrashes(0.05)
                                  .SampleDrops(0.02);
  const auto schedule = [&plan](std::uint64_t seed) {
    soc::FaultPlan p = plan;
    p.seed = seed;
    soc::FaultInjector inj(p);
    std::string s;
    for (int i = 0; i < 500; ++i) {
      if (const soc::FaultSpec* spec = inj.NextAttempt()) {
        inj.RecordFault(*spec, static_cast<double>(i), 0.001);
        s += ToString(spec->kind);
        s += ';';
      }
    }
    return s + inj.EventLogText();
  };
  EXPECT_EQ(schedule(7), schedule(7));    // byte-identical repro
  EXPECT_NE(schedule(7), schedule(8));    // and actually seed-dependent
}

TEST(FaultInjector, DrawsOncePerSpecPerAttempt) {
  // The schedule of a given spec must not shift when another spec is
  // added in front of it at probability zero.
  soc::FaultPlan lone;
  lone.DriverCrashes(0.1);
  soc::FaultPlan padded;
  padded.TransientStalls(0.0);  // never fires, still draws
  padded.DriverCrashes(0.1);
  soc::FaultInjector a(lone), b(padded);
  int fires_a = 0, fires_b = 0;
  for (int i = 0; i < 300; ++i) {
    if (a.NextAttempt() != nullptr) ++fires_a;
    if (b.NextAttempt() != nullptr) ++fires_b;
  }
  EXPECT_GT(fires_a, 0);
  // The padded plan consumes two draws per attempt, so its crash schedule
  // legitimately differs from the lone plan's — what must hold is that
  // probability-zero specs never fire and both plans fire *some* crashes.
  EXPECT_GT(fires_b, 0);
}

TEST(SocSimulator, CpuOnlyPlansAreImmuneToFaults) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph model =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kFull);
  const soc::CompiledModel cpu_plan =
      backends::CompileCpuFallback(chip, model, DataType::kInt8);

  soc::SocSimulator sim(chip);
  EXPECT_TRUE(sim.IsCpuOnly(cpu_plan));
  EXPECT_FALSE(sim.IsCpuOnly(AcceleratedPlan(chip, model)));

  sim.InjectFaults(soc::FaultPlan{}.DriverCrashes(1.0));
  for (int i = 0; i < 10; ++i) {
    const soc::InferenceResult r = sim.RunInference(cpu_plan);
    EXPECT_EQ(r.outcome, soc::InferenceOutcome::kOk);
    EXPECT_TRUE(r.completed);
  }
  EXPECT_EQ(sim.fault_count(), 0u);
}

TEST(SocSimulator, CertainCrashFailsEveryAcceleratedInference) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph model =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kFull);
  const soc::CompiledModel plan = AcceleratedPlan(chip, model);

  soc::SocSimulator faulty(chip), clean(chip);
  faulty.InjectFaults(soc::FaultPlan{}.DriverCrashes(1.0, 0.1));
  const soc::InferenceResult bad = faulty.RunInference(plan);
  const soc::InferenceResult good = clean.RunInference(plan);
  EXPECT_EQ(bad.outcome, soc::InferenceOutcome::kDriverCrash);
  EXPECT_FALSE(bad.completed);
  // The crash burns only a fraction of the nominal inference.
  EXPECT_LT(bad.latency_s, good.latency_s);
  EXPECT_GT(bad.latency_s, 0.0);
  EXPECT_EQ(faulty.fault_count(), 1u);
}

TEST(SimulatedBackendRecovery, RefusesAnInvalidRecovery) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph model =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kFull);
  const auto build = [&](backends::Recovery recovery) {
    loadgen::VirtualClock clock;
    backends::SimulatedBackend sut("ft", soc::SocSimulator(chip),
                                   AcceleratedPlan(chip, model), {}, clock,
                                   {}, std::move(recovery));
  };
  EXPECT_NO_THROW(build(CpuRecovery(chip, model)));
  backends::FaultToleranceOptions no_attempts;
  no_attempts.max_attempts = 0;
  EXPECT_THROW(build(CpuRecovery(chip, model, no_attempts)), CheckError);
  backends::FaultToleranceOptions no_threshold;
  no_threshold.crash_fallback_threshold = 0;
  EXPECT_THROW(build(CpuRecovery(chip, model, no_threshold)), CheckError);
  // A jitter fraction of 2 or more could make a backoff delay negative.
  backends::FaultToleranceOptions wide_jitter;
  wide_jitter.backoff_jitter_frac = 2.5;
  EXPECT_THROW(build(CpuRecovery(chip, model, wide_jitter)), CheckError);
  // The fallback must be immune to accelerator faults, so CPU-only.
  EXPECT_THROW(build(backends::Recovery{AcceleratedPlan(chip, model), {}}),
               CheckError);
}

TEST(SimulatedBackendRecovery, DegradesAfterExactlyNConsecutiveCrashes) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph model =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kFull);

  soc::SocSimulator sim(chip);
  sim.InjectFaults(soc::FaultPlan{}.DriverCrashes(1.0));
  backends::FaultToleranceOptions opts;
  opts.crash_fallback_threshold = 3;
  opts.max_attempts = 5;  // enough room to fall back within one query
  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      "ft", std::move(sim), AcceleratedPlan(chip, model), {}, clock, {},
      CpuRecovery(chip, model, opts));

  CountingSink sink;
  const loadgen::QuerySample q{1, 0};
  sut.IssueQuery({&q, 1}, sink);

  // Attempts 1-3 crash on the accelerator; the 3rd trips the fallback and
  // attempt 4 completes on the immune CPU plan.
  ASSERT_EQ(sink.ids.size(), 1u);
  EXPECT_TRUE(sut.degraded_to_cpu());
  EXPECT_EQ(sut.stats().driver_crashes, 3u);
  EXPECT_EQ(sut.stats().completed, 1u);
  ASSERT_FALSE(sut.events().empty());
  bool saw_fallback = false;
  for (const backends::DegradationEvent& e : sut.events())
    if (e.action == backends::RecoveryAction::kCpuFallback) {
      saw_fallback = true;
      EXPECT_EQ(e.attempt, 3);
    }
  EXPECT_TRUE(saw_fallback);
}

TEST(SimulatedBackendRecovery, ThermalEmergencyCompletesThenCoolsDown) {
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph model =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kFull);

  soc::SocSimulator sim(chip);
  sim.InjectFaults(soc::FaultPlan{}.ThermalEmergencies(1.0));
  backends::FaultToleranceOptions opts;
  opts.emergency_cooldown_s = 2.0;
  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      "ft", std::move(sim), AcceleratedPlan(chip, model), {}, clock, {},
      CpuRecovery(chip, model, opts));

  CountingSink sink;
  const loadgen::QuerySample q{1, 0};
  sut.IssueQuery({&q, 1}, sink);
  EXPECT_EQ(sink.ids.size(), 1u);  // the query still completes
  EXPECT_EQ(sut.stats().thermal_emergencies, 1u);
  EXPECT_GE(clock.Now().count(), opts.emergency_cooldown_s);
  EXPECT_FALSE(sut.degraded_to_cpu());
}

TEST(SimulatedBackendRecovery, FullyFaultedAcceleratorStillYieldsValidRun) {
  // Acceptance: a 100%-crashing accelerator must still produce a valid
  // (degraded) single-stream result via the CPU fallback.
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph model =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kFull);

  soc::SocSimulator sim(chip);
  sim.InjectFaults(soc::FaultPlan{}.DriverCrashes(1.0));
  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      "ft", std::move(sim), AcceleratedPlan(chip, model), {}, clock, {},
      CpuRecovery(chip, model));

  struct TinyQsl final : loadgen::QuerySampleLibrary {
    [[nodiscard]] std::string_view name() const override { return "tiny"; }
    [[nodiscard]] std::size_t TotalSampleCount() const override { return 4; }
    [[nodiscard]] std::size_t PerformanceSampleCount() const override {
      return 4;
    }
    void LoadSamplesToRam(std::span<const std::size_t>) override {}
    void UnloadSamplesFromRam(std::span<const std::size_t>) override {}
  } qsl;

  loadgen::TestSettings s;
  s.min_query_count = 16;
  s.min_duration = loadgen::Seconds{0.1};
  const loadgen::TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_FALSE(r.Errored());
  EXPECT_GT(r.sample_count, 0u);
  EXPECT_TRUE(sut.degraded_to_cpu());
  EXPECT_GT(sut.stats().DegradationCount(), 0u);
}

TEST(SimulatedBackendRecovery, SampleDropsExpireUnderTheWatchdog) {
  // Lost completions are not retried (the work ran); the LoadGen watchdog
  // expires them at the configured virtual-clock deadline and the run
  // stays valid.
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  const graph::Graph model =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kFull);

  soc::SocSimulator sim(chip);
  sim.InjectFaults(soc::FaultPlan{}.SampleDrops(0.3));
  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      "ft", std::move(sim), AcceleratedPlan(chip, model), {}, clock, {},
      CpuRecovery(chip, model));

  struct TinyQsl final : loadgen::QuerySampleLibrary {
    [[nodiscard]] std::string_view name() const override { return "tiny"; }
    [[nodiscard]] std::size_t TotalSampleCount() const override { return 4; }
    [[nodiscard]] std::size_t PerformanceSampleCount() const override {
      return 4;
    }
    void LoadSamplesToRam(std::span<const std::size_t>) override {}
    void UnloadSamplesFromRam(std::span<const std::size_t>) override {}
  } qsl;

  loadgen::TestSettings s;
  s.min_query_count = 64;
  s.min_duration = loadgen::Seconds{0.1};
  s.query_timeout = loadgen::Seconds{1.0};
  const loadgen::TestResult r = RunTest(sut, qsl, s, clock);
  EXPECT_FALSE(r.Errored());
  EXPECT_GT(r.timed_out_count, 0u);
  EXPECT_EQ(r.dropped_count, 0u);  // watchdog reclassifies drops
  EXPECT_EQ(r.timed_out_count, sut.stats().lost_completions);
  EXPECT_GT(r.sample_count, 0u);
}

// ---- the full pipeline: RunSubmission under a seeded fault plan ----

harness::SuiteBundles& Bundles() {
  static harness::SuiteBundles bundles;
  return bundles;
}

harness::RunOptions FaultyOptions() {
  harness::RunOptions o;
  o.run_accuracy = false;  // faults target the performance plane
  o.performance_settings.min_query_count = 64;
  o.performance_settings.min_duration = loadgen::Seconds{0.5};
  o.performance_settings.offline_sample_count = 2048;
  o.performance_settings.query_timeout = loadgen::Seconds{10.0};
  o.cooldown_s = 30.0;
  o.fault_plan = soc::FaultPlan{}.DriverCrashes(0.9).TransientStalls(0.05);
  return o;
}

TEST(RunSubmissionFaults, CrashPlanYieldsValidDegradedTasks) {
  const harness::SubmissionResult r = harness::RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, Bundles(),
      FaultyOptions());
  ASSERT_EQ(r.tasks.size(), 4u);
  for (const harness::TaskRunResult& t : r.tasks) {
    // With 90% crash probability the accelerator plan collapses quickly;
    // every task must still finish, degraded, with a usable result.
    EXPECT_EQ(t.status, harness::TaskStatus::kValidDegraded)
        << t.entry.id << ": " << t.status_detail;
    ASSERT_TRUE(t.single_stream.has_value());
    EXPECT_FALSE(t.single_stream->Errored());
    EXPECT_GT(t.single_stream->sample_count, 0u);
    EXPECT_GT(t.fault_count, 0u);
    EXPECT_GT(t.degradation_count, 0u);
    EXPECT_GE(t.performance_attempts, 1);
    EXPECT_FALSE(t.fault_log.empty());
  }
}

TEST(RunSubmissionFaults, SameSeedReproducesByteIdenticalFaultLogs) {
  const harness::SubmissionResult a = harness::RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, Bundles(),
      FaultyOptions());
  const harness::SubmissionResult b = harness::RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, Bundles(),
      FaultyOptions());
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_FALSE(a.tasks[i].fault_log.empty());
    EXPECT_EQ(a.tasks[i].fault_log, b.tasks[i].fault_log);
    EXPECT_EQ(a.tasks[i].fault_count, b.tasks[i].fault_count);
    EXPECT_EQ(a.tasks[i].status, b.tasks[i].status);
  }
}

// FNV-1a 64 of the report plus every task's fault log for a
// performance-only Exynos 990 submission under a plan that mixes all four
// fault kinds.  Scalar kernels keep the report's ISA column host-neutral.
struct PinnedRun {
  std::uint64_t hash = 0;
  std::string fault_logs;
  std::size_t breaker_trips = 0;
};

PinnedRun RunPinnedFaultedSubmission(bool e2e_with_breaker) {
  harness::RunOptions o = FaultyOptions();
  o.kernel_isa = infer::kernels::KernelIsa::kScalar;
  o.fault_plan = soc::FaultPlan{}
                     .DriverCrashes(0.25)
                     .TransientStalls(0.25)
                     .ThermalEmergencies(0.02)
                     .SampleDrops(0.2);
  if (e2e_with_breaker) {
    o.end_to_end = true;
    backends::CircuitBreakerOptions breaker;
    breaker.trip_threshold = 1;
    breaker.open_duration_s = 0.05;
    o.circuit_breaker = breaker;
  }
  const harness::SubmissionResult r = harness::RunSubmission(
      soc::Exynos990(), models::SuiteVersion::kV1_0, Bundles(), o);
  PinnedRun pinned;
  std::string text = harness::FormatSubmission(r);
  for (const harness::TaskRunResult& t : r.tasks) {
    pinned.fault_logs += t.fault_log;
    pinned.breaker_trips += t.breaker_trips;
  }
  pinned.hash = harness::Fnv1a64(text + pinned.fault_logs);
  return pinned;
}

TEST(RunSubmissionFaults, FaultedSubmissionOutputIsPinned) {
  const PinnedRun plain = RunPinnedFaultedSubmission(false);
  // The pin only means something if every recovery action fired.
  for (const char* action : {"recovery retry", "recovery cpu_fallback",
                             "recovery emergency_cooldown",
                             "recovery lost_completion", "recovery gave_up"})
    EXPECT_NE(plain.fault_logs.find(action), std::string::npos) << action;
  EXPECT_EQ(plain.hash, 0xfe1fcace2c3422d2ull);
}

TEST(RunSubmissionFaults, FaultedEndToEndBreakerOutputIsPinned) {
  const PinnedRun guarded = RunPinnedFaultedSubmission(true);
  EXPECT_GT(guarded.breaker_trips, 0u);
  EXPECT_NE(guarded.fault_logs.find("breaker closed->open"),
            std::string::npos);
  EXPECT_EQ(guarded.hash, 0xd3e03e75584a93c3ull);
}

TEST(RunSubmissionFaults, NoPlanMeansNoFaultMachinery) {
  harness::RunOptions o = FaultyOptions();
  o.fault_plan.reset();
  const harness::SubmissionResult r = harness::RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, Bundles(), o);
  for (const harness::TaskRunResult& t : r.tasks) {
    EXPECT_EQ(t.status, harness::TaskStatus::kValid);
    EXPECT_EQ(t.fault_count, 0u);
    EXPECT_EQ(t.degradation_count, 0u);
    EXPECT_TRUE(t.fault_log.empty());
    EXPECT_EQ(t.performance_attempts, 1);
  }
}

}  // namespace
}  // namespace mlpm
