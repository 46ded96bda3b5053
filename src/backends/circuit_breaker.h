// Per-backend circuit breaker (DESIGN.md §12): an admission layer between
// the LoadGen and a SimulatedBackend that stops hammering a backend which
// has stopped answering.  It holds the backend by reference, so the backend
// must outlive it.  Classic three-state machine:
//
//   closed    — queries pass through; `trip_threshold` *consecutive*
//               no-completion outcomes (the backend's gave-up outcome under
//               a Recovery, lost completions, watchdog-bound drops) trip it
//               open;
//   open      — queries are fast-failed through ResponseSink::Reject (the
//               `rejected` taxonomy class) at a small fixed virtual-clock
//               cost until a seeded, jittered reopen deadline passes;
//   half-open — exactly one probe query passes through; success closes the
//               breaker, failure reopens it with an exponentially longer
//               window.
//
// All timing is on the test's VirtualClock and the probe schedule comes
// from a seeded Rng, so the transition log is byte-identical across
// same-seed runs — the same determinism contract the simulated backend
// keeps for its recovery log.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/clock.h"
#include "core/query.h"

namespace mlpm::backends {

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

[[nodiscard]] constexpr std::string_view ToString(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

struct CircuitBreakerOptions {
  // Consecutive failed (never-completed) queries that trip the breaker.
  int trip_threshold = 3;
  // First open window, seconds of virtual time; each consecutive reopen
  // multiplies it by backoff_factor, capped at max_open_duration_s.
  double open_duration_s = 1.0;
  double backoff_factor = 2.0;
  double max_open_duration_s = 30.0;
  // Reopen deadlines are jittered by ±(probe_jitter_frac/2), drawn from a
  // stream seeded by `seed`, so fleets of breakers don't probe in lockstep.
  double probe_jitter_frac = 0.2;
  std::uint64_t seed = 0xB4EA;
  // Virtual-clock cost of a fast-fail rejection.  Must be positive: it is
  // what keeps the single-stream issue loop's clock moving while the
  // breaker is open.
  double rejection_latency_s = 0.0005;
};

struct BreakerTransition {
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kOpen;
  double time_s = 0.0;        // virtual-clock time of the transition
  std::uint64_t query_id = 0; // query whose outcome caused it
};

// Wraps any SystemUnderTest.  Single-sample queries are breaker-managed;
// multi-sample (offline) bursts pass through untouched — the burst path
// has its own replica-level fault handling and no per-query flow control.
class CircuitBreakerBackend final : public loadgen::SystemUnderTest {
 public:
  CircuitBreakerBackend(loadgen::SystemUnderTest& inner,
                        loadgen::VirtualClock& clock,
                        CircuitBreakerOptions options = {});

  [[nodiscard]] std::string_view name() const override { return name_; }
  void IssueQuery(std::span<const loadgen::QuerySample> samples,
                  loadgen::ResponseSink& sink) override;
  void FlushQueries() override { inner_.FlushQueries(); }

  struct Stats {
    std::size_t passed = 0;     // queries forwarded to the inner SUT
    std::size_t rejected = 0;   // fast-failed while open
    std::size_t probes = 0;     // half-open probe queries
    std::size_t trips = 0;      // closed/half-open -> open transitions
    std::size_t failures = 0;   // forwarded queries that never completed
    std::size_t successes = 0;  // forwarded queries that completed
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] BreakerState state() const { return state_; }
  [[nodiscard]] const std::vector<BreakerTransition>& transitions() const {
    return transitions_;
  }
  // One line per state transition; byte-identical across same-seed runs.
  [[nodiscard]] std::string EventLogText() const;

 private:
  void Transition(BreakerState to, std::uint64_t query_id);
  void TripOpen(std::uint64_t query_id);

  std::string name_;
  loadgen::SystemUnderTest& inner_;
  loadgen::VirtualClock& clock_;
  CircuitBreakerOptions options_;
  Rng rng_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int open_streak_ = 0;       // consecutive opens without a closed in between
  double reopen_at_s_ = 0.0;  // half-open probe deadline while open
  Stats stats_;
  std::vector<BreakerTransition> transitions_;
};

}  // namespace mlpm::backends
