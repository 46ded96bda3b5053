// The headless native command-line application (paper §4.3: "for laptops,
// submitters can build a native command-line application. The LoadGen
// integrates this application... The only difference is the absence of a
// graphical user interface").
//
// Flags are rows of one table (headless_flags.cpp); a refused flag prints
// its reason and the usage text built from the rows.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "fleet/fleet.h"
#include "fleet/report.h"
#include "harness/app.h"
#include "harness/export.h"
#include "harness/report.h"
#include "headless_flags.h"
#include "obs/aggregate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace mlpm;

// SIGINT/SIGTERM request a graceful stop: the run loop checks this flag
// between suite tasks, journals everything finished so far, and emits a
// partial report with an explicit "interrupted" run state (DESIGN.md §12).
// std::sig_atomic_t keeps the handler async-signal-safe.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void HandleStopSignal(int /*signum*/) { g_interrupted = 1; }

// With a journal, SIGINT/SIGTERM stop the run gracefully; the returned
// predicate is the run's cancellation hook (empty without a journal).
std::function<bool()> CancelOnStopSignal(const std::string& journal_path) {
  if (journal_path.empty()) return {};
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  return [] { return g_interrupted != 0; };
}

// --trace FILE: the process trace as Chrome trace_event JSON.
void WriteTrace(const std::string& path) {
  if (path.empty()) return;
  std::ofstream trace(path);
  trace << obs::TraceRecorder::Global().ToChromeJson();
  std::printf("wrote %s (Chrome trace; open with ui.perfetto.dev)\n",
              path.c_str());
}

// Fleet serving mode: runs the fleet, prints the byte-stable aggregated
// report, and maps the outcome to an exit status (invalid shards -> 1,
// interrupted -> 130).
int RunFleetMode(cli::HeadlessArgs& args) {
  args.fleet.cancel = CancelOnStopSignal(args.fleet.journal_path);
  const harness::RunOptions& run = args.run;  // --trace / --profile
  const bool tracing = run.profile || !run.trace_path.empty();
  if (tracing) obs::TraceRecorder::Global().Enable();
  const fleet::FleetReport report = fleet::RunFleet(args.fleet);
  if (tracing) obs::TraceRecorder::Global().Disable();

  std::string text = fleet::FormatFleetReport(report);
  if (run.profile)
    text += "\n" +
            obs::RenderMetricsTable(obs::MetricsRegistry::Global().Snap());
  std::printf("%s", text.c_str());
  WriteTrace(run.trace_path);
  if (report.interrupted) {
    std::fprintf(stderr,
                 "interrupted after %zu shard(s); resume with: headless_cli "
                 "--fleet %zu --resume %s\n",
                 report.shards.size(), args.fleet.shard_count,
                 args.fleet.journal_path.c_str());
    return 130;
  }
  return report.invalid_count == 0 ? 0 : 1;
}

std::optional<soc::ChipsetDesc> FindChipset(const std::string& name) {
  for (auto catalog : {soc::CatalogV07(), soc::CatalogV10()})
    for (soc::ChipsetDesc& c : catalog)
      if (c.name == name) return c;
  if (name == "Apple A14") return soc::AppleA14();
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  cli::HeadlessArgs args;
  const std::string error =
      cli::ParseHeadlessArgs({argv + 1, argv + argc}, args);
  if (!error.empty()) {
    std::fprintf(
        stderr, "%s\n%s", error.c_str(),
        flags::Usage("headless_cli", cli::HeadlessFlags(args)).c_str());
    return 2;
  }
  harness::RunOptions& run = args.run;
  // --threads sizes the process pool too, so data set synthesis honors it.
  if (run.threads > 0)
    ThreadPool::SetGlobalThreadCount(static_cast<std::size_t>(run.threads));
  if (args.fleet.shard_count > 0) {
    try {
      return RunFleetMode(args);
    } catch (const CheckError& e) {
      std::fprintf(stderr, "fleet: %s\n", e.what());
      return 2;
    }
  }
  const std::optional<soc::ChipsetDesc> chipset = FindChipset(args.chipset);
  if (!chipset) {
    std::fprintf(stderr, "unknown chipset '%s'; known chipsets:\n",
                 args.chipset.c_str());
    for (auto catalog : {soc::CatalogV07(), soc::CatalogV10()})
      for (const soc::ChipsetDesc& c : catalog)
        std::fprintf(stderr, "  %s\n", c.name.c_str());
    std::fprintf(stderr, "  Apple A14\n");
    return 2;
  }
  run.cancel = CancelOnStopSignal(run.journal_path);

  harness::SuiteBundles bundles;
  harness::AppRunOutput out;
  try {
    out = harness::RunMobileApp(*chipset, args.fleet.version, bundles, run);
  } catch (const CheckError& e) {  // e.g. a --resume journal it cannot read
    std::fprintf(stderr, "submission: %s\n", e.what());
    return 2;
  }

  // --task filters the displayed rows (the rules still run the full order).
  if (args.only_task) {
    harness::SubmissionResult filtered;
    filtered.chipset_name = out.result.chipset_name;
    filtered.version = out.result.version;
    filtered.interrupted = out.result.interrupted;
    filtered.resumed_tasks = out.result.resumed_tasks;
    for (harness::TaskRunResult& t : out.result.tasks)
      if (t.entry.task == *args.only_task)
        filtered.tasks.push_back(std::move(t));
    out.result = std::move(filtered);
    out.report_text = harness::FormatResultsScreen(out.result, run);
  }

  std::printf("%s\n%s", out.report_text.c_str(), out.checker_text.c_str());
  WriteTrace(run.trace_path);
  if (!args.csv_path.empty()) {
    std::ofstream csv(args.csv_path);
    csv << harness::ToCsv(out.result);
    if (run.profile) {
      const std::vector<obs::TraceEvent> events =
          obs::TraceRecorder::Global().Snapshot();
      const std::vector<obs::OpAggregate> host =
          obs::AggregateSpans(events, obs::Domain::kHost, "node");
      if (!host.empty()) csv << "\n" << obs::AggregateCsv(host);
      const std::vector<obs::OpAggregate> sim =
          obs::AggregateSpans(events, obs::Domain::kSim, "soc");
      if (!sim.empty()) csv << "\n" << obs::AggregateCsv(sim);
    }
    std::printf("wrote %s\n", args.csv_path.c_str());
  }
  if (!args.log_path.empty() && !out.result.tasks.empty() &&
      out.result.tasks[0].single_stream) {
    std::ofstream log(args.log_path);
    log << out.result.tasks[0].single_stream->log.Serialize();
    std::printf("wrote %s (unedited LoadGen log, first task)\n",
                args.log_path.c_str());
  }
  // Conventional "terminated by SIGINT" exit status; the journal already
  // holds every finished task, so a --resume rerun completes the suite.
  if (out.result.interrupted) {
    std::fprintf(stderr,
                 "interrupted after %zu task(s); resume with: headless_cli "
                 "--resume %s\n",
                 out.result.tasks.size(), run.journal_path.c_str());
    return 130;
  }
  return out.submission_valid ? 0 : 1;
}
