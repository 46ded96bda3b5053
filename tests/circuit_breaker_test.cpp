// Tests for the per-backend circuit breaker (backends/circuit_breaker.h):
// the full closed/open/half-open state machine, deterministic seeded probe
// scheduling, and the harness-level integration with fault injection and
// the rejected/breaker columns of the submission artifacts.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "backends/circuit_breaker.h"
#include "common/check.h"
#include "core/clock.h"
#include "harness/app.h"
#include "harness/export.h"

namespace mlpm::backends {
namespace {

// Inner SUT whose per-query outcome follows a script: true = complete,
// false = return without completing (a lost completion / give-up).  Every
// attempt costs 1 ms of virtual time.
class ScriptedSut final : public loadgen::SystemUnderTest {
 public:
  explicit ScriptedSut(loadgen::VirtualClock& clock) : clock_(clock) {}
  [[nodiscard]] std::string_view name() const override { return "scripted"; }

  void IssueQuery(std::span<const loadgen::QuerySample> samples,
                  loadgen::ResponseSink& sink) override {
    for (const loadgen::QuerySample& s : samples) {
      ++issued_;
      clock_.Advance(loadgen::Seconds{0.001});
      bool ok = true;
      if (!script_.empty()) {
        ok = script_.front();
        script_.pop_front();
      }
      if (ok) sink.Complete(loadgen::QuerySampleResponse{s.id, {}});
    }
  }

  std::deque<bool> script_;  // empty = always complete
  std::size_t issued_ = 0;

 private:
  loadgen::VirtualClock& clock_;
};

class RecordingSink final : public loadgen::ResponseSink {
 public:
  void Complete(loadgen::QuerySampleResponse response) override {
    completed_.push_back(response.id);
  }
  void Reject(std::uint64_t id, std::string_view reason) override {
    rejected_.push_back(id);
    last_reason_ = std::string(reason);
  }
  std::vector<std::uint64_t> completed_;
  std::vector<std::uint64_t> rejected_;
  std::string last_reason_;
};

void Issue(CircuitBreakerBackend& breaker, std::uint64_t id,
           loadgen::ResponseSink& sink) {
  const loadgen::QuerySample s{id, 0};
  breaker.IssueQuery({&s, 1}, sink);
}

// Jitter-free options so window arithmetic in the tests is exact.
CircuitBreakerOptions ExactOptions() {
  CircuitBreakerOptions o;
  o.trip_threshold = 3;
  o.open_duration_s = 1.0;
  o.backoff_factor = 2.0;
  o.max_open_duration_s = 30.0;
  o.probe_jitter_frac = 0.0;
  return o;
}

TEST(CircuitBreaker, StaysClosedBelowThreshold) {
  loadgen::VirtualClock clock;
  ScriptedSut sut(clock);
  CircuitBreakerBackend breaker(sut, clock, ExactOptions());
  RecordingSink sink;
  // Failure pairs broken by successes never reach 3 consecutive.
  sut.script_ = {false, false, true, false, false, true};
  for (std::uint64_t id = 1; id <= 6; ++id) Issue(breaker, id, sink);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().trips, 0u);
  EXPECT_TRUE(breaker.transitions().empty());
  EXPECT_EQ(sut.issued_, 6u);
}

TEST(CircuitBreaker, TripsAtExactlyThresholdConsecutiveFailures) {
  loadgen::VirtualClock clock;
  ScriptedSut sut(clock);
  CircuitBreakerBackend breaker(sut, clock, ExactOptions());
  RecordingSink sink;
  sut.script_ = {false, false, false};
  Issue(breaker, 1, sink);
  Issue(breaker, 2, sink);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  Issue(breaker, 3, sink);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 1u);
  ASSERT_EQ(breaker.transitions().size(), 1u);
  EXPECT_EQ(breaker.transitions()[0].from, BreakerState::kClosed);
  EXPECT_EQ(breaker.transitions()[0].to, BreakerState::kOpen);
  EXPECT_EQ(breaker.transitions()[0].query_id, 3u);
}

TEST(CircuitBreaker, OpenFastFailsWithoutTouchingTheInnerSut) {
  loadgen::VirtualClock clock;
  ScriptedSut sut(clock);
  CircuitBreakerBackend breaker(sut, clock, ExactOptions());
  RecordingSink sink;
  sut.script_ = {false, false, false};
  for (std::uint64_t id = 1; id <= 3; ++id) Issue(breaker, id, sink);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  const std::size_t issued_before = sut.issued_;
  const double t_before = clock.Now().count();
  for (std::uint64_t id = 4; id <= 8; ++id) Issue(breaker, id, sink);
  EXPECT_EQ(sut.issued_, issued_before);  // inner SUT never saw them
  EXPECT_EQ(breaker.stats().rejected, 5u);
  EXPECT_EQ(sink.rejected_,
            (std::vector<std::uint64_t>{4, 5, 6, 7, 8}));
  EXPECT_EQ(sink.last_reason_, "circuit breaker open");
  // Each rejection costs exactly the configured virtual-clock latency.
  EXPECT_NEAR(clock.Now().count() - t_before,
              5 * ExactOptions().rejection_latency_s, 1e-12);
}

TEST(CircuitBreaker, HalfOpenProbeSuccessCloses) {
  loadgen::VirtualClock clock;
  ScriptedSut sut(clock);
  CircuitBreakerBackend breaker(sut, clock, ExactOptions());
  RecordingSink sink;
  sut.script_ = {false, false, false, true};
  for (std::uint64_t id = 1; id <= 3; ++id) Issue(breaker, id, sink);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  clock.Advance(loadgen::Seconds{1.001});  // past the 1 s open window
  Issue(breaker, 4, sink);                 // the probe; script says success
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().probes, 1u);
  ASSERT_EQ(breaker.transitions().size(), 3u);
  EXPECT_EQ(breaker.transitions()[1].to, BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.transitions()[2].to, BreakerState::kClosed);
  EXPECT_EQ(sink.completed_.back(), 4u);
}

TEST(CircuitBreaker, ProbeFailureReopensExponentiallyLonger) {
  loadgen::VirtualClock clock;
  ScriptedSut sut(clock);
  CircuitBreakerBackend breaker(sut, clock, ExactOptions());
  RecordingSink sink;
  sut.script_ = {false, false, false, false, true};
  for (std::uint64_t id = 1; id <= 3; ++id) Issue(breaker, id, sink);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  clock.Advance(loadgen::Seconds{1.001});
  Issue(breaker, 4, sink);  // probe fails -> reopen with a 2 s window
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.stats().trips, 2u);

  // 1.5 s into the doubled window the breaker still rejects...
  clock.Advance(loadgen::Seconds{1.5});
  Issue(breaker, 5, sink);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(sink.rejected_.back(), 5u);

  // ...and past 2 s it probes again; this probe succeeds and closes.
  clock.Advance(loadgen::Seconds{0.6});
  Issue(breaker, 6, sink);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.stats().probes, 2u);
}

TEST(CircuitBreaker, SuccessfulCloseResetsTheBackoffWindow) {
  loadgen::VirtualClock clock;
  ScriptedSut sut(clock);
  CircuitBreakerBackend breaker(sut, clock, ExactOptions());
  RecordingSink sink;
  // Trip, probe-fail (window doubles to 2 s), probe-succeed (close), then
  // trip again: the new window must be back to 1 s, not 4 s.
  sut.script_ = {false, false, false, false, true,
                 false, false, false, true};
  for (std::uint64_t id = 1; id <= 3; ++id) Issue(breaker, id, sink);
  clock.Advance(loadgen::Seconds{1.001});
  Issue(breaker, 4, sink);  // failed probe -> 2 s window
  clock.Advance(loadgen::Seconds{2.001});
  Issue(breaker, 5, sink);  // successful probe -> closed, streak reset
  ASSERT_EQ(breaker.state(), BreakerState::kClosed);
  for (std::uint64_t id = 6; id <= 8; ++id) Issue(breaker, id, sink);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  clock.Advance(loadgen::Seconds{1.001});  // > 1 s: probes if streak reset
  Issue(breaker, 9, sink);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, OfflineBurstsBypassTheBreaker) {
  loadgen::VirtualClock clock;
  ScriptedSut sut(clock);
  CircuitBreakerBackend breaker(sut, clock, ExactOptions());
  RecordingSink sink;
  sut.script_ = {false, false, false};
  for (std::uint64_t id = 1; id <= 3; ++id) Issue(breaker, id, sink);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  const loadgen::QuerySample burst[] = {{10, 0}, {11, 1}};
  breaker.IssueQuery(burst, sink);
  EXPECT_EQ(sut.issued_, 5u);  // both samples reached the inner SUT
  EXPECT_TRUE(sink.rejected_.empty());
  EXPECT_EQ(sink.completed_.size(), 2u);
}

TEST(CircuitBreaker, TransitionLogIsSeededAndDeterministic) {
  // Drive two breakers through an identical schedule; with the same seed
  // the jittered probe deadlines — and therefore the transition log —
  // must match byte for byte.  A different seed probes at different times.
  const auto drive = [](std::uint64_t seed) {
    loadgen::VirtualClock clock;
    ScriptedSut sut(clock);
    CircuitBreakerOptions o = ExactOptions();
    o.probe_jitter_frac = 1.0;  // windows in [0.5, 1.5) s
    o.seed = seed;
    CircuitBreakerBackend breaker(sut, clock, o);
    RecordingSink sink;
    sut.script_ = {false, false, false};  // trip; all later queries succeed
    for (std::uint64_t id = 1; id <= 3; ++id) Issue(breaker, id, sink);
    // Step until the breaker has probed and closed again.
    std::uint64_t id = 4;
    while (breaker.state() != BreakerState::kClosed && id < 4096) {
      clock.Advance(loadgen::Seconds{0.001});
      Issue(breaker, id++, sink);
    }
    return breaker.EventLogText();
  };
  const std::string a = drive(7), b = drive(7), c = drive(8);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(CircuitBreaker, RejectsInvalidOptions) {
  loadgen::VirtualClock clock;
  ScriptedSut sut(clock);
  CircuitBreakerOptions o;
  o.rejection_latency_s = 0.0;  // would freeze the issue loop's clock
  EXPECT_THROW(CircuitBreakerBackend(sut, clock, o), CheckError);
  o = CircuitBreakerOptions{};
  o.trip_threshold = 0;
  EXPECT_THROW(CircuitBreakerBackend(sut, clock, o), CheckError);
  o = CircuitBreakerOptions{};
  o.backoff_factor = 0.5;
  EXPECT_THROW(CircuitBreakerBackend(sut, clock, o), CheckError);
}

// ---- harness integration ----

TEST(CircuitBreakerIntegration, InvalidBreakerBackoffFailsTheTask) {
  // A backoff factor below 1 would shrink the open window on every
  // reopen, so the breaker refuses it at construction; the harness
  // surfaces that as an errored task and goes on to the next one.
  harness::SuiteBundles bundles;
  harness::RunOptions o;
  o.run_accuracy = false;
  o.run_offline = false;
  o.performance_settings.min_query_count = 64;
  o.performance_settings.min_duration = loadgen::Seconds{0.5};
  CircuitBreakerOptions breaker;
  breaker.backoff_factor = 0.5;
  o.circuit_breaker = breaker;
  const harness::SubmissionResult r = harness::RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, bundles, o);
  ASSERT_EQ(r.tasks.size(), 4u);
  for (const harness::TaskRunResult& t : r.tasks)
    EXPECT_EQ(t.status, harness::TaskStatus::kErrored);
}

TEST(CircuitBreakerIntegration, SubmissionRecordsRejectionsAndTrips) {
  harness::SuiteBundles bundles;
  harness::RunOptions o;
  o.run_accuracy = false;
  o.run_offline = false;
  o.performance_settings.min_query_count = 64;
  o.performance_settings.min_duration = loadgen::Seconds{0.5};
  o.performance_settings.query_timeout = loadgen::Seconds{10.0};
  o.cooldown_s = 30.0;
  soc::FaultPlan plan;
  plan.SampleDrops(0.8);  // most attempts lose their completion
  o.fault_plan = plan;
  CircuitBreakerOptions breaker;
  breaker.trip_threshold = 2;
  breaker.open_duration_s = 0.05;
  o.circuit_breaker = breaker;

  const harness::SubmissionResult r = harness::RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, bundles, o);
  ASSERT_EQ(r.tasks.size(), 4u);
  std::size_t trips = 0, rejected = 0;
  for (const harness::TaskRunResult& t : r.tasks) {
    trips += t.breaker_trips;
    rejected += t.rejected_count;
  }
  EXPECT_GT(trips, 0u);
  EXPECT_GT(rejected, 0u);
  // The breaker's transition log rides along in the fault log.
  bool breaker_logged = false;
  for (const harness::TaskRunResult& t : r.tasks)
    breaker_logged |= t.fault_log.find("breaker closed->open") !=
                      std::string::npos;
  EXPECT_TRUE(breaker_logged);
  // ...and the counters surface in the CSV artifact.
  const std::string csv = harness::ToCsv(r);
  EXPECT_NE(csv.find("shed,rejected,breaker_trips"), std::string::npos);
}

TEST(CircuitBreakerIntegration, FaultAndBreakerLogsAreReproducible) {
  // Same seed, same plan, same breaker options: the concatenated fault +
  // breaker event log is byte-identical across runs (the satellite
  // determinism contract for the seeded backoff jitter and probe windows).
  const auto run = [] {
    harness::SuiteBundles bundles;
    harness::RunOptions o;
    o.run_accuracy = false;
    o.run_offline = false;
    o.performance_settings.min_query_count = 64;
    o.performance_settings.min_duration = loadgen::Seconds{0.5};
    o.performance_settings.query_timeout = loadgen::Seconds{10.0};
    o.cooldown_s = 30.0;
    soc::FaultPlan plan;
    plan.SampleDrops(0.6);
    o.fault_plan = plan;
    o.circuit_breaker = CircuitBreakerOptions{};
    const harness::SubmissionResult r = harness::RunSubmission(
        soc::Dimensity1100(), models::SuiteVersion::kV1_0, bundles, o);
    std::string logs;
    for (const harness::TaskRunResult& t : r.tasks) logs += t.fault_log;
    return logs;
  };
  const std::string a = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run());
}

}  // namespace
}  // namespace mlpm::backends
