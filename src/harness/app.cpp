#include "harness/app.h"

#include "harness/checker.h"
#include "harness/report.h"
#include "obs/aggregate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlpm::harness {

std::string FormatResultsScreen(const SubmissionResult& result,
                                const RunOptions& options) {
  std::string text = FormatSubmission(result);
  // Profiling extras (DESIGN.md §11): per-op aggregates from the trace plus
  // the process metrics snapshot, appended to the results screen.
  if (options.profile || !options.trace_path.empty()) {
    const std::vector<obs::TraceEvent> events =
        obs::TraceRecorder::Global().Snapshot();
    const std::vector<obs::OpAggregate> host =
        obs::AggregateSpans(events, obs::Domain::kHost, "node");
    if (!host.empty())
      text += "\n" + obs::RenderAggregateTable(host, "executor ops (host)");
    const std::vector<obs::OpAggregate> sim =
        obs::AggregateSpans(events, obs::Domain::kSim, "soc");
    if (!sim.empty())
      text += "\n" + obs::RenderAggregateTable(sim, "simulated IP steps");
    text +=
        "\n" + obs::RenderMetricsTable(obs::MetricsRegistry::Global().Snap());
  }
  return text;
}

AppRunOutput RunMobileApp(const soc::ChipsetDesc& chipset,
                          models::SuiteVersion version, SuiteBundles& bundles,
                          const RunOptions& options) {
  AppRunOutput out;
  out.result = RunSubmission(chipset, version, bundles, options);
  out.report_text = FormatResultsScreen(out.result, options);

  const CheckReport check =
      CheckSubmission(out.result, options.performance_settings);
  out.checker_text = FormatCheckReport(check);
  out.submission_valid = check.valid;
  return out;
}

}  // namespace mlpm::harness
