#include "headless_flags.h"

#include <algorithm>
#include <iterator>

#include "fleet/mix.h"
#include "infer/kernels/registry.h"

namespace mlpm::cli {

std::vector<flags::Flag> HeadlessFlags(HeadlessArgs& a) {
  using namespace flags;  // NOLINT(google-build-using-namespace): row helpers
  using models::SuiteVersion;
  using models::TaskType;
  using Value = const std::string&;
  const auto positive = [](double x) { return x > 0.0; };
  return {
      {"--chipset", "NAME", "catalog chipset to run (default Core i7-11375H)",
       Text(a.chipset)},
      {"--version", "v0.7|v1.0", "suite round (default v1.0)",
       [&a](Value v) {
         a.fleet.version = Choose<SuiteVersion>(
             v, {{"v0.7", SuiteVersion::kV0_7}, {"v1.0", SuiteVersion::kV1_0}});
       }},
      {"--task", "all|ic|od|is|nlp", "show one task's rows (all still run)",
       [&a](Value v) {
         a.only_task = Choose<std::optional<TaskType>>(
             v, {{"all", std::nullopt},
                 {"ic", TaskType::kImageClassification},
                 {"od", TaskType::kObjectDetection},
                 {"is", TaskType::kImageSegmentation},
                 {"nlp", TaskType::kQuestionAnswering}});
       }},
      {"--accuracy", "", "run the accuracy plane (default; opt-in for a fleet)",
       [&a](Value) { a.run.run_accuracy = a.fleet.accuracy = true; }},
      {"--performance-only", "", "skip the accuracy plane",
       [&a](Value) { a.run.run_accuracy = a.fleet.accuracy = false; }},
      {"--e2e", "", "time pre/post-processing with the inference",
       Set(a.run.end_to_end)},
      // A negative cooldown breaks the run rules (§6); the RUN002 lint
      // still covers API callers.
      {"--cooldown", "S", "seconds between tests (default 60)",
       Number(a.run.cooldown_s, [](double x) { return x >= 0.0; },
              "a non-negative number of seconds")},
      {"--csv", "FILE", "write the results CSV (and --profile tables)",
       Text(a.csv_path)},
      {"--log", "FILE", "write the first task's unedited LoadGen log",
       Text(a.log_path)},
      // Both modes get the same seeded plan, with a 10 s query timeout so a
      // crashed inference surfaces as a timed-out query instead of a hang.
      {"--faults", "CRASH_PROB", "seeded driver crashes per inference",
       [&a](Value v) {
         soc::FaultPlan plan;
         plan.seed = a.fault_seed;
         plan.DriverCrashes(ParseNumber<double>(
             v, [](double x) { return x > 0.0 && x <= 1.0; },
             "a crash probability in (0, 1]"));
         a.run.fault_plan = a.fleet.fault_plan = plan;
         a.run.performance_settings.query_timeout =
             a.fleet.settings.query_timeout = loadgen::Seconds{10.0};
       }},
      {"--fault-seed", "N", "seed of the --faults plan",
       [&a](Value v) {
         a.fault_seed = ParseNumber<std::uint64_t>(
             v, [](unsigned long long) { return true; }, "a seed");
         for (std::optional<soc::FaultPlan>* plan :
              {&a.run.fault_plan, &a.fleet.fault_plan})
           if (plan->has_value()) (*plan)->seed = a.fault_seed;
       }},
      {"--threads", "N", "host lanes for every parallel phase (default: all)",
       Number(a.run.threads, [](long long x) { return x >= 1 && x <= 4096; },
              "1..4096; omit the flag for hardware concurrency")},
      {"--kernel-isa", "auto|scalar|avx2|neon", "accuracy executors' kernels",
       [&a](Value v) {
         const auto isa = infer::kernels::ParseKernelIsa(v);
         if (!isa) throw CheckError("unknown ISA '" + v + "'");
         a.run.kernel_isa = a.fleet.kernel_isa = *isa;
       }},
      {"--lint", "off|report|strict", "pre-run static verification gate",
       [&a](Value v) {
         a.run.lint = Choose<harness::LintMode>(
             v, {{"off", harness::LintMode::kOff},
                 {"report", harness::LintMode::kReport},
                 {"strict", harness::LintMode::kStrict}});
       }},
      {"--transform", "", "run the verified graph-transform stage",
       Set(a.run.transform)},
      {"--tile", "auto|off|N", "tiled, fused execution (N rows per tile)",
       [&a](Value v) {
         a.run.tiling.enabled = v != "off";
         if (v == "auto") a.run.tiling.rows = -1;
         else if (v != "off")
           a.run.tiling.rows = ParseNumber<std::int64_t>(
               v, [](long long x) { return x >= 1; },
               "auto, off, or a positive row count");
       }},
      {"--trace", "FILE", "write a Chrome trace (open with ui.perfetto.dev)",
       Text(a.run.trace_path)},
      {"--profile", "", "append per-op and metrics tables to the report",
       Set(a.run.profile)},
      {"--journal", "FILE", "journal each finished task or shard",
       [&a](Value v) { a.run.journal_path = a.fleet.journal_path = v; }},
      {"--resume", "FILE", "replay FILE's finished work, run the rest",
       [&a](Value v) {
         a.run.journal_path = a.fleet.journal_path = v;
         a.run.resume = a.fleet.resume = true;
       }},
      {"--fleet", "N", "serve a fleet of N device shards instead",
       Number(a.fleet.shard_count,
              [](unsigned long long x) { return x >= 1 && x <= 65536; },
              "a shard count in 1..65536")},
      {"--fleet-mix", "SPEC", "fleet populations: CHIPSET:TASK[:WEIGHT];...",
       [&a](Value v) { a.fleet.mix = fleet::ParseFleetMix(v); }},
      {"--fleet-qps", "X", "per-shard Poisson arrival rate",
       Number(a.fleet.settings.server_target_qps, positive, "a positive rate")},
      {"--fleet-slo-ms", "X", "per-shard latency bound, ms",
       [&a, positive](Value v) {
         a.fleet.settings.server_latency_bound = loadgen::Seconds{
             ParseNumber<double>(v, positive, "a positive bound") *
             1e-3};
       }},
      {"--fleet-queries", "N", "offered queries per shard",
       Number(a.fleet.settings.server_query_count,
              [](unsigned long long x) { return x >= 1; }, "a positive count")},
      {"--fleet-depth", "N", "admission queue depth (default 0 = unbounded)",
       Number(a.fleet.settings.server_max_queue_depth,
              [](unsigned long long) { return true; }, "a queue depth")},
      {"--fleet-workers", "N", "worker threads (default 0 = hardware)",
       Number(a.fleet.workers, [](unsigned long long x) { return x <= 4096; },
              "0..4096; 0 for hardware concurrency")},
  };
}

std::string ParseHeadlessArgs(const std::vector<std::string>& argv,
                              HeadlessArgs& args) {
  // Flags only a submission reads: a fleet run would drop them without a
  // word, so with --fleet the first one given is refused.
  static const char* const kSubmissionOnly[] = {
      "--csv", "--log",  "--task",      "--chipset", "--cooldown",
      "--e2e", "--lint", "--transform", "--tile"};
  std::vector<flags::Flag> table = HeadlessFlags(args);
  std::string submission_only;
  for (flags::Flag& f : table) {
    if (std::find(std::begin(kSubmissionOnly), std::end(kSubmissionOnly),
                  f.name) == std::end(kSubmissionOnly))
      continue;
    f.apply = [apply = std::move(f.apply), name = f.name,
               &submission_only](const std::string& v) {
      apply(v);
      if (submission_only.empty()) submission_only = name;
    };
  }
  std::string error = flags::Parse(table, argv);
  if (error.empty() && args.fleet.shard_count > 0 && !submission_only.empty())
    error = submission_only + ": not used with --fleet";
  // Mix names resolve against the suite version, known once every flag is.
  if (error.empty() && !args.fleet.mix.empty()) {
    try {
      (void)fleet::ResolveMix(args.fleet.mix, args.fleet.version);
    } catch (const CheckError& e) {
      error = std::string("--fleet-mix: ") + e.what();
    }
  }
  return error;
}

}  // namespace mlpm::cli
