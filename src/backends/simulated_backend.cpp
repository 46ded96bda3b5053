#include "backends/simulated_backend.h"

#include <cstdio>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlpm::backends {

SimulatedBackend::SimulatedBackend(std::string name,
                                   soc::SocSimulator simulator,
                                   soc::CompiledModel single_stream,
                                   std::vector<soc::CompiledModel>
                                       offline_replicas,
                                   loadgen::VirtualClock& clock,
                                   EndToEndCosts end_to_end,
                                   std::optional<Recovery> recovery)
    : name_(std::move(name)),
      simulator_(std::move(simulator)),
      single_stream_(std::move(single_stream)),
      offline_replicas_(std::move(offline_replicas)),
      clock_(clock),
      end_to_end_(end_to_end),
      recovery_(std::move(recovery)),
      backoff_rng_(recovery_ ? recovery_->options.backoff_seed : 0) {
  if (!recovery_) return;
  const FaultToleranceOptions& o = recovery_->options;
  Expects(o.max_attempts >= 1, "need at least one attempt");
  Expects(o.crash_fallback_threshold >= 1,
          "crash fallback threshold must be positive");
  Expects(o.backoff_jitter_frac >= 0.0 && o.backoff_jitter_frac < 2.0,
          "backoff jitter fraction must be in [0, 2)");
  Expects(simulator_.IsCpuOnly(recovery_->cpu_fallback),
          "the fallback plan must run entirely on the CPU");
}

void SimulatedBackend::Record(RecoveryAction action, std::uint64_t query_id,
                              int attempt) {
  events_.push_back(
      DegradationEvent{action, query_id, clock_.Now().count(), attempt});
  obs::MetricsRegistry::Global().Increment("backend.recovery_actions");
  if (obs::TraceRecorder& rec = obs::TraceRecorder::Global(); rec.enabled())
    rec.AddInstant(obs::Domain::kLoadGen, "recovery",
                   "recovery:" + std::string(ToString(action)),
                   clock_.Now().count() * 1e6,
                   {obs::Arg("query", query_id), obs::Arg("attempt", attempt)},
                   "recovery");
}

void SimulatedBackend::RunWithRecovery(const loadgen::QuerySample& sample,
                                       loadgen::ResponseSink& sink) {
  const FaultToleranceOptions& options = recovery_->options;
  for (int attempt = 1; attempt <= options.max_attempts; ++attempt) {
    const soc::CompiledModel& model =
        stats_.degraded_to_cpu ? recovery_->cpu_fallback : single_stream_;
    const soc::InferenceResult r = simulator_.RunInference(model);
    total_energy_j_ += r.energy_j;
    clock_.Advance(loadgen::Seconds{r.latency_s});

    switch (r.outcome) {
      case soc::InferenceOutcome::kOk:
      case soc::InferenceOutcome::kThermalEmergency:
        consecutive_crashes_ = 0;
        clock_.Advance(loadgen::Seconds{end_to_end_.Total()});
        ++stats_.completed;
        sink.Complete(loadgen::QuerySampleResponse{sample.id, {}});
        if (r.outcome == soc::InferenceOutcome::kThermalEmergency) {
          // Cool down before the next query — an emergency trip means the
          // governor already dropped to its floor; pressing on would only
          // burn time at the minimum clock.
          ++stats_.thermal_emergencies;
          Record(RecoveryAction::kEmergencyCooldown, sample.id, attempt);
          simulator_.Cooldown(options.emergency_cooldown_s);
          clock_.Advance(loadgen::Seconds{options.emergency_cooldown_s});
        }
        return;

      case soc::InferenceOutcome::kDropped:
        // The work ran; only the signal was lost.  Retrying would execute
        // (and potentially score) the sample twice — leave the expiry to
        // the LoadGen watchdog.
        consecutive_crashes_ = 0;
        ++stats_.lost_completions;
        Record(RecoveryAction::kLostCompletion, sample.id, attempt);
        return;

      case soc::InferenceOutcome::kStalledRetryable:
        consecutive_crashes_ = 0;
        ++stats_.transient_stalls;
        break;  // retry below

      case soc::InferenceOutcome::kDriverCrash:
        ++stats_.driver_crashes;
        ++consecutive_crashes_;
        if (!stats_.degraded_to_cpu &&
            consecutive_crashes_ >= options.crash_fallback_threshold) {
          // The accelerator plan is broken; degrade to the CPU path and
          // keep serving.  Faults do not apply to CPU-only plans, so from
          // here on the run completes — slower, but valid-degraded.
          stats_.degraded_to_cpu = true;
          Record(RecoveryAction::kCpuFallback, sample.id, attempt);
        }
        break;  // retry below
    }

    if (attempt == options.max_attempts) {
      ++stats_.gave_up;
      Record(RecoveryAction::kGaveUp, sample.id, attempt);
      return;  // the LoadGen watchdog expires the query
    }
    // Exponential backoff before the retry, with seeded jitter so shards
    // retrying the same fault don't synchronize into a retry storm.
    ++stats_.retries;
    Record(RecoveryAction::kRetry, sample.id, attempt);
    const double jitter =
        1.0 + options.backoff_jitter_frac * (backoff_rng_.NextDouble() - 0.5);
    clock_.Advance(loadgen::Seconds{options.backoff_base_s *
                                    static_cast<double>(1 << (attempt - 1)) *
                                    jitter});
  }
}

void SimulatedBackend::IssueQuery(
    std::span<const loadgen::QuerySample> samples,
    loadgen::ResponseSink& sink) {
  Expects(!samples.empty(), "empty query");
  if (samples.size() == 1) {
    if (recovery_) {
      RunWithRecovery(samples[0], sink);
      return;
    }
    // Single-stream: one inference, clock advances by its latency.  A
    // failed attempt under fault injection is not retried — the
    // completion simply never arrives and the LoadGen's watchdog accounts
    // for it.
    const soc::InferenceResult r = simulator_.RunInference(single_stream_);
    total_energy_j_ += r.energy_j;
    clock_.Advance(loadgen::Seconds{r.latency_s + end_to_end_.Total()});
    if (r.completed)
      sink.Complete(loadgen::QuerySampleResponse{samples[0].id, {}});
    return;
  }

  // Offline burst: ALP across the replica set — or the CPU fallback alone
  // once the accelerator plans have been abandoned.
  std::span<const soc::CompiledModel> replicas = offline_replicas_;
  if (stats_.degraded_to_cpu)
    replicas = {&recovery_->cpu_fallback, 1};
  else if (replicas.empty())
    replicas = {&single_stream_, 1};
  const soc::BatchResult batch =
      simulator_.RunBatch(replicas, samples.size());
  total_energy_j_ += batch.energy_j;
  const loadgen::Seconds start = clock_.Now();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    clock_.AdvanceTo(start +
                     loadgen::Seconds{batch.completion_times_s[i] +
                                      end_to_end_.Total()});
    if (batch.SampleCompleted(i)) {
      if (recovery_) ++stats_.completed;
      sink.Complete(loadgen::QuerySampleResponse{samples[i].id, {}});
    } else if (recovery_) {
      ++stats_.lost_completions;
      Record(RecoveryAction::kLostCompletion, samples[i].id, 1);
    }
  }
}

std::string SimulatedBackend::EventLogText() const {
  std::string out;
  char line[128];
  for (const DegradationEvent& e : events_) {
    std::snprintf(line, sizeof line, "recovery %s query=%llu t=%.9f try=%d\n",
                  std::string(ToString(e.action)).c_str(),
                  static_cast<unsigned long long>(e.query_id), e.time_s,
                  e.attempt);
    out += line;
  }
  return out;
}

}  // namespace mlpm::backends
