// A simulated system under test: the LoadGen drives a vendor backend
// running on a simulated chipset, with latencies flowing through a shared
// VirtualClock (DESIGN.md §1's substitution for physical phones).
#pragma once

#include <memory>
#include <vector>

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

class SimulatedBackend final : public loadgen::SystemUnderTest {
 public:
  // `clock` must be the clock the LoadGen runs against and must outlive the
  // backend.  `single_stream` is the compiled single-stream plan;
  // `offline_replicas` (possibly empty) are the per-engine ALP plans.
  SimulatedBackend(std::string name, soc::SocSimulator simulator,
                   soc::CompiledModel single_stream,
                   std::vector<soc::CompiledModel> offline_replicas,
                   loadgen::VirtualClock& clock,
                   EndToEndCosts end_to_end = {});

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

 private:
  std::string name_;
  soc::SocSimulator simulator_;
  soc::CompiledModel single_stream_;
  std::vector<soc::CompiledModel> offline_replicas_;
  loadgen::VirtualClock& clock_;
  EndToEndCosts end_to_end_;
  double total_energy_j_ = 0.0;
};

}  // namespace mlpm::backends
