// A simulated system under test: the LoadGen drives a vendor backend
// running on a simulated chipset, with latencies flowing through a shared
// VirtualClock (DESIGN.md §1's substitution for physical phones).
//
// Given a Recovery, the backend also keeps serving when the runtime
// underneath it misbehaves (paper §8 / App. D: NNAPI driver holes forcing
// CPU fallback, buggy delegates, watchdog-killed inferences).  Recovery
// policy per inference attempt:
//   * transient stall  -> retry with exponential backoff, up to a budget;
//   * driver crash     -> retry; after N *consecutive* crashes the
//                         accelerator plan is abandoned and the backend
//                         degrades to the Recovery's CPU-fallback plan
//                         (CompileCpuFallback, App. D's fallback path) and
//                         keeps serving — degraded beats dead;
//   * thermal emergency -> complete the query, then an immediate emergency
//                         cooldown before the next one (run rules §6.1);
//   * sample drop      -> nothing to retry (the work ran, the signal was
//                         lost); the LoadGen watchdog expires the query.
// Every recovery action is recorded as a DegradationEvent; the event log
// text is byte-identical across same-seed runs.  Without a Recovery each
// query is one attempt and a failed attempt simply never completes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/clock.h"
#include "core/query.h"
#include "soc/simulator.h"

namespace mlpm::backends {

struct EndToEndCosts {
  // Pre/post-processing "AI tax" on the CPU per inference (paper App. E:
  // end-to-end extension).  Zero means the measurement excludes it, which
  // is the benchmark default.
  double preprocess_s = 0.0;
  double postprocess_s = 0.0;

  [[nodiscard]] double Total() const { return preprocess_s + postprocess_s; }
};

struct FaultToleranceOptions {
  // Attempts per inference (first try + retries) before giving up.
  int max_attempts = 4;
  // Exponential backoff: wait backoff_base_s * 2^k before retry k.
  double backoff_base_s = 0.001;
  // Consecutive driver crashes tolerated before degrading to CPU.
  int crash_fallback_threshold = 3;
  // Cooldown applied immediately after a thermal emergency, seconds.
  double emergency_cooldown_s = 5.0;
  // Deterministic backoff jitter: retry k waits
  // backoff_base_s * 2^k * (1 + backoff_jitter_frac * (u - 0.5)) with u
  // drawn from a stream seeded by backoff_seed.  Pure base*2^k would
  // synchronize retry storms across fleet shards; the seeded draw keeps
  // the event log byte-identical per seed.  Must be in [0, 2).
  double backoff_jitter_frac = 0.5;
  std::uint64_t backoff_seed = 0xB0FF;
};

// What a backend degrades to and how hard it tries first.  `cpu_fallback`
// must run entirely on the CPU (CompileCpuFallback).
struct Recovery {
  soc::CompiledModel cpu_fallback;
  FaultToleranceOptions options;
};

enum class RecoveryAction : std::uint8_t {
  kRetry,              // re-issued after a stall or crash (with backoff)
  kCpuFallback,        // abandoned the accelerator plan for the CPU model
  kEmergencyCooldown,  // cooled down after a thermal emergency
  kGaveUp,             // attempt budget exhausted; query left to the watchdog
  kLostCompletion,     // sample drop observed; nothing to recover
};

[[nodiscard]] constexpr std::string_view ToString(RecoveryAction a) {
  switch (a) {
    case RecoveryAction::kRetry: return "retry";
    case RecoveryAction::kCpuFallback: return "cpu_fallback";
    case RecoveryAction::kEmergencyCooldown: return "emergency_cooldown";
    case RecoveryAction::kGaveUp: return "gave_up";
    case RecoveryAction::kLostCompletion: return "lost_completion";
  }
  return "?";
}

struct DegradationEvent {
  RecoveryAction action = RecoveryAction::kRetry;
  std::uint64_t query_id = 0;
  double time_s = 0.0;  // virtual-clock time of the recovery action
  int attempt = 1;      // which attempt triggered it
};

class SimulatedBackend final : public loadgen::SystemUnderTest {
 public:
  // `clock` must be the clock the LoadGen runs against and must outlive the
  // backend.  `single_stream` is the compiled single-stream plan;
  // `offline_replicas` (possibly empty) are the per-engine ALP plans.
  // Throws CheckError for an invalid `recovery`.
  SimulatedBackend(std::string name, soc::SocSimulator simulator,
                   soc::CompiledModel single_stream,
                   std::vector<soc::CompiledModel> offline_replicas,
                   loadgen::VirtualClock& clock,
                   EndToEndCosts end_to_end = {},
                   std::optional<Recovery> recovery = std::nullopt);

  [[nodiscard]] std::string_view name() const override { return name_; }
  void IssueQuery(std::span<const loadgen::QuerySample> samples,
                  loadgen::ResponseSink& sink) override;
  // End of test: the simulator's counters reach the registry once.
  void FlushQueries() override { simulator_.PublishMetrics(); }

  // Run-rule cooldown hook for the harness.
  void Cooldown(double seconds) { simulator_.Cooldown(seconds); }

  [[nodiscard]] const soc::SocSimulator& simulator() const {
    return simulator_;
  }
  // Total simulated energy consumed by queries so far (J).
  [[nodiscard]] double total_energy_j() const { return total_energy_j_; }

  // Recovery statistics; all zero without a Recovery.
  struct Stats {
    std::size_t completed = 0;
    std::size_t transient_stalls = 0;
    std::size_t driver_crashes = 0;
    std::size_t thermal_emergencies = 0;
    std::size_t lost_completions = 0;
    std::size_t retries = 0;
    std::size_t gave_up = 0;
    bool degraded_to_cpu = false;
    // Total recovery actions taken (retries + fallback + cooldowns).
    [[nodiscard]] std::size_t DegradationCount() const {
      return retries + thermal_emergencies + (degraded_to_cpu ? 1 : 0);
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool degraded_to_cpu() const { return stats_.degraded_to_cpu; }
  [[nodiscard]] const std::vector<DegradationEvent>& events() const {
    return events_;
  }
  // One line per recovery action; byte-identical across same-seed runs.
  [[nodiscard]] std::string EventLogText() const;

 private:
  void RunWithRecovery(const loadgen::QuerySample& sample,
                       loadgen::ResponseSink& sink);
  void Record(RecoveryAction action, std::uint64_t query_id, int attempt);

  std::string name_;
  soc::SocSimulator simulator_;
  soc::CompiledModel single_stream_;
  std::vector<soc::CompiledModel> offline_replicas_;
  loadgen::VirtualClock& clock_;
  EndToEndCosts end_to_end_;
  double total_energy_j_ = 0.0;

  std::optional<Recovery> recovery_;
  Stats stats_;
  std::vector<DegradationEvent> events_;
  Rng backoff_rng_;
  int consecutive_crashes_ = 0;
};

}  // namespace mlpm::backends
