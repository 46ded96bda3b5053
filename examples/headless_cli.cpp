// The headless native command-line application (paper §4.3: "for laptops,
// submitters can build a native command-line application. The LoadGen
// integrates this application... The only difference is the absence of a
// graphical user interface").
//
// Usage:
//   headless_cli [--chipset NAME] [--version v0.7|v1.0]
//                [--scenario single_stream|offline|server|multi_stream]
//                [--task all|ic|od|is|nlp] [--accuracy] [--e2e]
//                [--cooldown SECONDS] [--csv FILE] [--log FILE]
//                [--faults CRASH_PROB] [--fault-seed N] [--threads N]
//                [--kernel-isa auto|scalar|avx2|neon]
//                [--lint off|report|strict] [--transform]
//                [--tile auto|off|N]
//                [--trace FILE] [--profile]
//                [--journal FILE] [--resume FILE]
//
// Examples:
//   headless_cli --chipset "Core i7-11375H" --version v1.0
//   headless_cli --chipset "Exynos 2100" --task is --accuracy
//   headless_cli --chipset "Dimensity 1100" --performance-only --faults 0.9
//   headless_cli --trace run.trace.json --profile   # open in ui.perfetto.dev
//   headless_cli --journal run.mjl        # crash-safe WAL (DESIGN.md §12)
//   headless_cli --resume run.mjl         # replay finished tasks, run rest
//
// Fleet serving mode (DESIGN.md §16): N device-simulator shards, each a
// LoadGen Server-scenario instance, running plans compiled once per
// distinct (chipset, task) config:
//   headless_cli --fleet 64
//   headless_cli --fleet 16 --fleet-mix "Snapdragon 865+:ic:3;Exynos 990:qa:1"
//   headless_cli --fleet 64 --fleet-qps 200 --fleet-slo-ms 50 --fleet-depth 8
//   headless_cli --fleet 64 --journal fleet.mjl   # kill -INT, then --resume
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>

#include "common/check.h"
#include "fleet/fleet.h"
#include "fleet/report.h"
#include "harness/app.h"
#include "harness/export.h"
#include "harness/report.h"
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

struct CliOptions {
  std::string chipset = "Core i7-11375H";
  models::SuiteVersion version = models::SuiteVersion::kV1_0;
  std::optional<models::TaskType> only_task;
  bool accuracy = true;
  bool end_to_end = false;
  double cooldown_s = 60.0;
  std::string csv_path;
  std::string log_path;
  // Fault injection: driver-crash probability per accelerated inference
  // (<= 0 disables; see soc/faults.h for the full plan vocabulary).
  double crash_probability = 0.0;
  std::uint64_t fault_seed = 0x464C54;
  // Accuracy-phase worker threads (defaults to hardware concurrency when
  // the flag is absent; an explicit --threads value must be >= 1).
  // Results are bit-identical for any value.
  int threads = 0;
  // Kernel table for the accuracy-phase executors: auto picks the best the
  // host supports (AVX2 > NEON > scalar); scalar forces the portable
  // bit-exact kernels; a forced ISA the host lacks falls back to scalar
  // with a RUN007 lint diagnostic.
  infer::kernels::KernelIsa kernel_isa = infer::kernels::KernelIsa::kAuto;
  harness::LintMode lint = harness::LintMode::kReport;
  // Verified graph-transform stage (DESIGN.md §14): accuracy executors run
  // the rewrite pipeline's invariant-checked output; falls back to the
  // untransformed graph on any equivalence-probe disagreement.
  bool transform = false;
  // Tiled, fused pipeline execution (DESIGN.md §15): --tile auto sizes row
  // bands against the cache budget, --tile N forces N output rows per tile.
  // Bit-identical results; changes the memory/locality profile only.
  infer::TileOptions tiling;
  // Observability (DESIGN.md §11): --trace writes a Chrome trace_event JSON
  // (open with ui.perfetto.dev or chrome://tracing); --profile appends the
  // per-op aggregate tables + process metrics to the report and CSV.
  std::string trace_path;
  bool profile = false;
  // Crash safety (DESIGN.md §12): --journal appends one fsync'd record per
  // completed task; --resume replays intact records from FILE (and keeps
  // journaling to it) so an interrupted run finishes where it left off.
  std::string journal_path;
  bool resume = false;
  // Fleet serving mode (DESIGN.md §16): --fleet N runs N sharded device
  // simulators under per-shard Server-scenario LoadGens.  0 = off.
  std::size_t fleet_shards = 0;
  std::string fleet_mix;       // "<chipset>:<task>[:<weight>];..."
  double fleet_qps = 0.0;      // per-shard Poisson rate (0 = default)
  double fleet_slo_ms = 0.0;   // per-shard latency bound (0 = default)
  std::size_t fleet_queries = 0;  // offered queries per shard (0 = default)
  std::size_t fleet_depth = 0;    // admission queue depth (0 = unbounded)
  std::size_t fleet_workers = 0;  // worker threads (0 = hw concurrency)
  // --accuracy was passed explicitly (fleet accuracy is opt-in; the
  // submission path keeps its accuracy-on default).
  bool accuracy_explicit = false;
};

// Strict parse for every numeric flag into `out`: rejects an empty value,
// leading blanks, trailing garbage ("4x"), nan/inf, a sign on an unsigned
// field, and anything `in_range` refuses, each with a message naming the
// flag.  `range` describes the accepted values.  The value is parsed at the
// widest type of its kind; `in_range` must keep it within T.
template <typename T, typename InRange>
bool ParseNumber(const char* flag, const std::string& s, T& out,
                 InRange in_range, const char* range) {
  using Wide = std::conditional_t<
      std::is_floating_point_v<T>, double,
      std::conditional_t<std::is_signed_v<T>, long long, unsigned long long>>;
  if (s.empty()) {
    std::fprintf(stderr, "%s: missing value\n", flag);
    return false;
  }
  const char* begin = s.c_str();
  char* end = nullptr;
  errno = 0;
  Wide v{};
  if constexpr (std::is_same_v<Wide, double>)
    v = std::strtod(begin, &end);
  else if constexpr (std::is_same_v<Wide, long long>)
    v = std::strtoll(begin, &end, 10);
  else
    v = std::strtoull(begin, &end, 10);
  bool finite = true;
  if constexpr (std::is_same_v<Wide, double>) finite = std::isfinite(v);
  if (std::isspace(static_cast<unsigned char>(s[0])) ||
      (std::is_unsigned_v<Wide> && s[0] == '-') || end == begin ||
      *end != '\0' || errno == ERANGE || !finite) {
    std::fprintf(stderr, "%s: '%s' is not %s\n", flag, s.c_str(),
                 std::is_same_v<Wide, double>     ? "a finite number"
                 : std::is_same_v<Wide, long long> ? "an integer"
                                                   : "a non-negative integer");
    return false;
  }
  if (!in_range(v)) {
    std::fprintf(stderr, "%s: '%s' is out of range (need %s)\n", flag,
                 s.c_str(), range);
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

std::optional<CliOptions> Parse(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (arg == "--chipset") {
      o.chipset = value();
    } else if (arg == "--version") {
      const std::string v = value();
      if (v == "v0.7") o.version = models::SuiteVersion::kV0_7;
      else if (v == "v1.0") o.version = models::SuiteVersion::kV1_0;
      else return std::nullopt;
    } else if (arg == "--task") {
      const std::string t = value();
      if (t == "ic") o.only_task = models::TaskType::kImageClassification;
      else if (t == "od") o.only_task = models::TaskType::kObjectDetection;
      else if (t == "is") o.only_task = models::TaskType::kImageSegmentation;
      else if (t == "nlp") o.only_task = models::TaskType::kQuestionAnswering;
      else if (t != "all") return std::nullopt;
    } else if (arg == "--accuracy") {
      o.accuracy = true;
      o.accuracy_explicit = true;
    } else if (arg == "--performance-only") {
      o.accuracy = false;
    } else if (arg == "--e2e") {
      o.end_to_end = true;
    } else if (arg == "--cooldown") {
      if (!ParseNumber("--cooldown", value(), o.cooldown_s,
                       [](double) { return true; }, "seconds"))
        return std::nullopt;
    } else if (arg == "--csv") {
      o.csv_path = value();
    } else if (arg == "--log") {
      o.log_path = value();
    } else if (arg == "--faults") {
      if (!ParseNumber("--faults", value(), o.crash_probability,
                       [](double v) { return v > 0.0 && v <= 1.0; },
                       "a crash probability in (0, 1]"))
        return std::nullopt;
    } else if (arg == "--fault-seed") {
      if (!ParseNumber("--fault-seed", value(), o.fault_seed,
                       [](unsigned long long) { return true; }, "a seed"))
        return std::nullopt;
    } else if (arg == "--threads") {
      if (!ParseNumber("--threads", value(), o.threads,
                       [](long long v) { return v >= 1 && v <= 4096; },
                       "1..4096; omit the flag for hardware concurrency"))
        return std::nullopt;
    } else if (arg == "--kernel-isa") {
      const std::string name = value();
      const std::optional<infer::kernels::KernelIsa> isa =
          infer::kernels::ParseKernelIsa(name);
      if (!isa) {
        std::fprintf(stderr,
                     "--kernel-isa: unknown ISA '%s' (use auto, scalar, "
                     "avx2 or neon)\n",
                     name.c_str());
        return std::nullopt;
      }
      o.kernel_isa = *isa;
    } else if (arg == "--lint") {
      const std::string m = value();
      if (m == "off") o.lint = harness::LintMode::kOff;
      else if (m == "report") o.lint = harness::LintMode::kReport;
      else if (m == "strict") o.lint = harness::LintMode::kStrict;
      else return std::nullopt;
    } else if (arg == "--transform") {
      o.transform = true;
    } else if (arg == "--tile") {
      const std::string t = value();
      if (t == "off") {
        o.tiling.enabled = false;
      } else if (t == "auto") {
        o.tiling.enabled = true;
        o.tiling.rows = -1;
      } else if (!ParseNumber("--tile", t, o.tiling.rows,
                              [](long long v) { return v >= 1; },
                              "auto, off, or a positive row count")) {
        return std::nullopt;
      } else {
        o.tiling.enabled = true;
      }
    } else if (arg == "--trace") {
      o.trace_path = value();
      if (o.trace_path.empty()) return std::nullopt;
    } else if (arg == "--profile") {
      o.profile = true;
    } else if (arg == "--journal") {
      o.journal_path = value();
      if (o.journal_path.empty()) return std::nullopt;
    } else if (arg == "--resume") {
      o.journal_path = value();
      if (o.journal_path.empty()) return std::nullopt;
      o.resume = true;
    } else if (arg == "--fleet") {
      if (!ParseNumber(
              "--fleet", value(), o.fleet_shards,
              [](unsigned long long v) { return v >= 1 && v <= 65536; },
              "a shard count in 1..65536"))
        return std::nullopt;
    } else if (arg == "--fleet-mix") {
      o.fleet_mix = value();
      if (o.fleet_mix.empty()) return std::nullopt;
    } else if (arg == "--fleet-qps") {
      if (!ParseNumber("--fleet-qps", value(), o.fleet_qps,
                       [](double v) { return v > 0.0; }, "a positive rate"))
        return std::nullopt;
    } else if (arg == "--fleet-slo-ms") {
      if (!ParseNumber("--fleet-slo-ms", value(), o.fleet_slo_ms,
                       [](double v) { return v > 0.0; }, "a positive bound"))
        return std::nullopt;
    } else if (arg == "--fleet-queries") {
      if (!ParseNumber("--fleet-queries", value(), o.fleet_queries,
                       [](unsigned long long v) { return v >= 1; },
                       "a positive count"))
        return std::nullopt;
    } else if (arg == "--fleet-depth") {
      if (!ParseNumber("--fleet-depth", value(), o.fleet_depth,
                       [](unsigned long long) { return true; },
                       "a queue depth"))
        return std::nullopt;
    } else if (arg == "--fleet-workers") {
      if (!ParseNumber("--fleet-workers", value(), o.fleet_workers,
                       [](unsigned long long v) { return v <= 4096; },
                       "0..4096; 0 for hardware concurrency"))
        return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  return o;
}

// --faults: a seeded driver-crash plan, with a 10 s query timeout so a
// crashed inference surfaces as a timed-out query instead of a hang.
void ApplyFaults(const CliOptions& opts, std::optional<soc::FaultPlan>& plan,
                 loadgen::TestSettings& settings) {
  if (opts.crash_probability <= 0.0) return;
  soc::FaultPlan faults;
  faults.seed = opts.fault_seed;
  faults.DriverCrashes(opts.crash_probability);
  plan = std::move(faults);
  settings.query_timeout = loadgen::Seconds{10.0};
}

// With a journal, SIGINT/SIGTERM stop the run gracefully; the returned
// predicate is the run's cancellation hook (empty without a journal).
std::function<bool()> CancelOnStopSignal(const CliOptions& opts) {
  if (opts.journal_path.empty()) return {};
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

// Fleet serving mode: builds FleetOptions from the CLI flags, runs the
// fleet, prints the byte-stable aggregated report, and maps the outcome to
// an exit status (invalid shards -> 1, interrupted -> 130).
int RunFleetMode(const CliOptions& opts) {
  fleet::FleetOptions fo;
  fo.shard_count = opts.fleet_shards;
  fo.version = opts.version;
  fo.workers = opts.fleet_workers;
  fo.accuracy = opts.accuracy_explicit;
  fo.kernel_isa = opts.kernel_isa;
  fo.journal_path = opts.journal_path;
  fo.resume = opts.resume;
  if (!opts.fleet_mix.empty()) fo.mix = fleet::ParseFleetMix(opts.fleet_mix);
  if (opts.fleet_qps > 0.0) fo.settings.server_target_qps = opts.fleet_qps;
  if (opts.fleet_slo_ms > 0.0)
    fo.settings.server_latency_bound = loadgen::Seconds{opts.fleet_slo_ms *
                                                        1e-3};
  if (opts.fleet_queries > 0)
    fo.settings.server_query_count = opts.fleet_queries;
  fo.settings.server_max_queue_depth = opts.fleet_depth;
  ApplyFaults(opts, fo.fault_plan, fo.settings);
  fo.cancel = CancelOnStopSignal(opts);

  const bool tracing = opts.profile || !opts.trace_path.empty();
  if (tracing) obs::TraceRecorder::Global().Enable();
  const fleet::FleetReport report = fleet::RunFleet(fo);
  if (tracing) obs::TraceRecorder::Global().Disable();

  std::string text = fleet::FormatFleetReport(report);
  if (opts.profile)
    text += "\n" +
            obs::RenderMetricsTable(obs::MetricsRegistry::Global().Snap());
  std::printf("%s", text.c_str());
  WriteTrace(opts.trace_path);
  if (report.interrupted) {
    std::fprintf(stderr,
                 "interrupted after %zu shard(s); resume with: headless_cli "
                 "--fleet %zu --resume %s\n",
                 report.shards.size(), opts.fleet_shards,
                 opts.journal_path.c_str());
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
  const std::optional<CliOptions> opts = Parse(argc, argv);
  if (!opts) {
    std::fprintf(stderr,
                 "usage: headless_cli [--chipset NAME] [--version v0.7|v1.0]"
                 " [--task all|ic|od|is|nlp]\n"
                 "                    [--accuracy|--performance-only] [--e2e]"
                 " [--cooldown S] [--csv FILE] [--log FILE]\n"
                 "                    [--faults CRASH_PROB] [--fault-seed N]"
                 " [--threads N] [--kernel-isa auto|scalar|avx2|neon]\n"
                 "                    [--lint off|report|strict]"
                 " [--transform] [--tile auto|off|N]\n"
                 "                    [--trace FILE] [--profile]"
                 " [--journal FILE] [--resume FILE]\n"
                 "                    [--fleet N] [--fleet-mix SPEC]"
                 " [--fleet-qps X] [--fleet-slo-ms X]\n"
                 "                    [--fleet-queries N] [--fleet-depth N]"
                 " [--fleet-workers N]\n");
    return 2;
  }
  if (opts->fleet_shards > 0) {
    try {
      return RunFleetMode(*opts);
    } catch (const CheckError& e) {
      std::fprintf(stderr, "fleet: %s\n", e.what());
      return 2;
    }
  }
  const std::optional<soc::ChipsetDesc> chipset = FindChipset(opts->chipset);
  if (!chipset) {
    std::fprintf(stderr, "unknown chipset '%s'; known chipsets:\n",
                 opts->chipset.c_str());
    for (auto catalog : {soc::CatalogV07(), soc::CatalogV10()})
      for (const soc::ChipsetDesc& c : catalog)
        std::fprintf(stderr, "  %s\n", c.name.c_str());
    std::fprintf(stderr, "  Apple A14\n");
    return 2;
  }

  harness::RunOptions run;
  run.run_accuracy = opts->accuracy;
  run.end_to_end = opts->end_to_end;
  run.cooldown_s = opts->cooldown_s;
  run.threads = opts->threads;
  run.kernel_isa = opts->kernel_isa;
  run.lint = opts->lint;
  run.transform = opts->transform;
  run.tiling = opts->tiling;
  run.trace_path = opts->trace_path;
  run.profile = opts->profile;
  run.journal_path = opts->journal_path;
  run.resume = opts->resume;
  run.cancel = CancelOnStopSignal(*opts);
  ApplyFaults(*opts, run.fault_plan, run.performance_settings);

  harness::SuiteBundles bundles;
  harness::AppRunOutput out;
  try {
    out = harness::RunMobileApp(*chipset, opts->version, bundles, run);
  } catch (const CheckError& e) {  // e.g. a --resume journal it cannot read
    std::fprintf(stderr, "submission: %s\n", e.what());
    return 2;
  }

  // --task filters the displayed rows (the rules still run the full order).
  if (opts->only_task) {
    harness::SubmissionResult filtered;
    filtered.chipset_name = out.result.chipset_name;
    filtered.version = out.result.version;
    filtered.interrupted = out.result.interrupted;
    filtered.resumed_tasks = out.result.resumed_tasks;
    for (harness::TaskRunResult& t : out.result.tasks)
      if (t.entry.task == *opts->only_task)
        filtered.tasks.push_back(std::move(t));
    out.result = std::move(filtered);
    out.report_text = harness::FormatResultsScreen(out.result, run);
  }

  std::printf("%s\n%s", out.report_text.c_str(), out.checker_text.c_str());
  WriteTrace(opts->trace_path);
  if (!opts->csv_path.empty()) {
    std::ofstream csv(opts->csv_path);
    csv << harness::ToCsv(out.result);
    if (opts->profile) {
      const std::vector<obs::TraceEvent> events =
          obs::TraceRecorder::Global().Snapshot();
      const std::vector<obs::OpAggregate> host =
          obs::AggregateSpans(events, obs::Domain::kHost, "node");
      if (!host.empty()) csv << "\n" << obs::AggregateCsv(host);
      const std::vector<obs::OpAggregate> sim =
          obs::AggregateSpans(events, obs::Domain::kSim, "soc");
      if (!sim.empty()) csv << "\n" << obs::AggregateCsv(sim);
    }
    std::printf("wrote %s\n", opts->csv_path.c_str());
  }
  if (!opts->log_path.empty() && !out.result.tasks.empty() &&
      out.result.tasks[0].single_stream) {
    std::ofstream log(opts->log_path);
    log << out.result.tasks[0].single_stream->log.Serialize();
    std::printf("wrote %s (unedited LoadGen log, first task)\n",
                opts->log_path.c_str());
  }
  // Conventional "terminated by SIGINT" exit status; the journal already
  // holds every finished task, so a --resume rerun completes the suite.
  if (out.result.interrupted) {
    std::fprintf(stderr,
                 "interrupted after %zu task(s); resume with: headless_cli "
                 "--resume %s\n",
                 out.result.tasks.size(), opts->journal_path.c_str());
    return 130;
  }
  return out.submission_valid ? 0 : 1;
}
