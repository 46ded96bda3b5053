// Repo benchmark runner: runs one named workload end to end, repeatedly for
// a fixed wall-clock budget, checks every output, and prints the medians.
//
//   mlpm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --pins PATH [--source-id ID]
//
// Workloads (BENCHMARK.json records why each was chosen):
//   sd888-submission     RunMobileApp on Snapdragon 888, suite v1.0,
//                        accuracy + performance, fresh SuiteBundles;
//   fleet-serving        RunFleet over the v1.0 default mix, Server scenario
//                        with Poisson arrivals drawn from --seed.
//
// --trace 0 measures the end-to-end metrics with all tracing off.  --trace 1
// alternates untraced iterations with traced ones.  A traced iteration
// re-executes the workload as a sequence of calls on each module's public
// functions, wraps every call in a span of the benchmark's own recorder,
// turns the program's recorder on around the functional plane for the
// executor's per-op spans, and checks that the decomposition reproduces the
// untraced run's scores and simulated latencies exactly.  Every figure
// printed is host wall time; simulated times are outputs the benchmark
// checks against pinned values, never speeds it reports.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  The process exits 1 when any output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/passes.h"
#include "backends/simulated_backend.h"
#include "bench_util.h"
#include "backends/vendor_policy.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "fleet/fleet.h"
#include "fleet/mix.h"
#include "fleet/report.h"
#include "harness/app.h"
#include "harness/checker.h"
#include "harness/frame_log.h"
#include "harness/report.h"
#include "infer/kernels/registry.h"
#include "infer/memory_plan.h"
#include "infer/tile_planner.h"
#include "models/zoo.h"
#include "obs/aggregate.h"
#include "obs/trace.h"
#include "soc/chipset.h"

#ifndef MLPM_PERFBENCH_BUILD_TYPE
#define MLPM_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mlpm;
using SteadyClock = std::chrono::steady_clock;
using models::SuiteVersion;

// Threads the benchmark may load the host with (the host has 4 vCPUs).
constexpr int kLanes = 4;

// Share of the --seconds budget spent warming up before the measured
// iterations.
constexpr double kWarmupShare = 0.1;

// Accuracy scores reproduce exactly on the kernel ISA they were pinned on
// and may differ across ISAs by the documented f32 tolerance (DESIGN.md §13,
// tests/kernel_dispatch_test.cpp).
constexpr double kCrossIsaScoreTolerance = 0.05;

// fleet-serving sizing: a run lasts about as long as an SD888 submission.
constexpr std::size_t kFleetShards = 2048;
constexpr std::size_t kFleetQueriesPerShard = 512;
constexpr std::size_t kFleetQueueDepth = 64;

// The executor ops whose host self-time the per-layer metrics break out.
constexpr const char* kTracedOps[] = {"Conv2d",          "FullyConnected",
                                      "MultiHeadAttention", "DepthwiseConv2d",
                                      "LayerNorm",       "Add"};

double SecondsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an unsorted sample.
double PercentileOf(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string JsonString(const std::string& s) {
  return "\"" + obs::JsonEscape(s) + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Outcome accounting.  An operation is a task (sd888-submission) or a
// shard (fleet); it fails when it ends errored or invalid, fails quality,
// or fails an output check.  Checks not tied to one operation (a digest
// mismatch, a decomposition that does not reproduce) are problems of the
// run: they make it incorrect without inventing operations.

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void Operation(const std::string& what, const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    Problem(what + ": " + why);
  }
  void Problem(std::string what) {
    if (problems.size() < 20) problems.push_back(std::move(what));
  }
  [[nodiscard]] bool correct() const {
    return failed == 0 && problems.empty() && attempted > 0;
  }
};

// ---------------------------------------------------------------------------
// Pinned outputs (pins.tsv, tab-separated, edited by hand after a deliberate
// change to the simulator or the models: a failed check prints the observed
// value with all its digits).  Two kinds of line:
//
//   task  version chipset task p90_s offline_fps accuracy ratio_to_fp32 isa
//   fleet seed report_fnv1a64 issued shed completed p90_ms
//
// "-" where a figure does not apply.  The simulator runs on a virtual clock,
// so p90, FPS and the fleet report reproduce to the bit.  Accuracy is exact
// on the kernel ISA it was pinned on ("isa") and within the cross-ISA
// tolerance elsewhere.

struct TaskPin {
  double p90_s = 0.0;
  std::optional<double> offline_fps;
  std::optional<double> accuracy;
  std::optional<double> ratio_to_fp32;
  std::string isa;
};

// The fleet-serving workload at one fixed control seed.
struct FleetPin {
  std::uint64_t seed = 0;
  std::uint64_t report_fnv = 0;  // Fnv1a64 of FormatFleetReport
  std::size_t issued = 0;
  std::size_t shed = 0;
  std::size_t completed = 0;
  double p90_ms = 0.0;
};

struct Pins {
  std::map<std::string, TaskPin> tasks;
  std::optional<FleetPin> fleet;
};

std::string PinKey(SuiteVersion v, const std::string& chipset,
                   const std::string& task) {
  return std::string(ToString(v)) + "\t" + chipset + "\t" + task;
}

std::optional<double> ParseOptional(const std::string& s) {
  if (s == "-") return std::nullopt;
  return std::stod(s);
}

std::string FormatOptional(const std::optional<double>& v) {
  return v ? JsonNumber(*v) : "-";
}

std::string Hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Pins LoadPins(const std::string& path) {
  Pins pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> f;
    std::stringstream ss(line);
    for (std::string cell; std::getline(ss, cell, '\t');) f.push_back(cell);
    if (f.size() == 9 && f[0] == "task") {
      TaskPin p;
      p.p90_s = std::stod(f[4]);
      p.offline_fps = ParseOptional(f[5]);
      p.accuracy = ParseOptional(f[6]);
      p.ratio_to_fp32 = ParseOptional(f[7]);
      p.isa = f[8];
      pins.tasks[f[1] + "\t" + f[2] + "\t" + f[3]] = p;
    } else if (f.size() == 7 && f[0] == "fleet" && !pins.fleet) {
      FleetPin p;
      p.seed = std::stoull(f[1]);
      p.report_fnv = std::stoull(f[2], nullptr, 16);
      p.issued = std::stoull(f[3]);
      p.shed = std::stoull(f[4]);
      p.completed = std::stoull(f[5]);
      p.p90_ms = std::stod(f[6]);
      pins.fleet = p;
    } else {
      throw std::runtime_error("malformed pin line: " + line);
    }
  }
  return pins;
}

// Checks one task of a submission; returns "" when it passed.
std::string CheckTask(const harness::TaskRunResult& t, SuiteVersion version,
                      const std::string& chipset, bool checker_valid,
                      const Pins& pins) {
  using harness::TaskStatus;
  if (t.status == TaskStatus::kErrored || t.status == TaskStatus::kInvalid)
    return std::string(ToString(t.status)) + " (" + t.status_detail + ")";
  if (!checker_valid) return "submission checker: INVALID";
  if (!t.quality_passed) return "quality check FAILED";
  if (!t.single_stream) return "no single-stream result";
  const auto it = pins.tasks.find(PinKey(version, chipset, t.entry.id));
  if (it == pins.tasks.end()) return "no pinned outputs";
  const TaskPin& pin = it->second;
  const double p90_s = t.single_stream->percentile_latency_s;
  if (p90_s != pin.p90_s)
    return "simulated p90 " + JsonNumber(p90_s) + " s != pinned " +
           JsonNumber(pin.p90_s);
  const std::optional<double> fps =
      t.offline ? std::optional<double>(t.offline->throughput_sps)
                : std::nullopt;
  if (fps != pin.offline_fps)
    return "offline FPS " + FormatOptional(fps) + " != pinned " +
           FormatOptional(pin.offline_fps);
  if (!pin.accuracy || !pin.ratio_to_fp32) return "no pinned accuracy";
  const bool same_isa = t.kernel_isa == pin.isa;
  const double tolerance = same_isa ? 0.0 : kCrossIsaScoreTolerance;
  if (std::abs(t.accuracy - *pin.accuracy) > tolerance ||
      std::abs(t.ratio_to_fp32 - *pin.ratio_to_fp32) > tolerance)
    return "accuracy " + JsonNumber(t.accuracy) + " (ratio " +
           JsonNumber(t.ratio_to_fp32) + ") on " + t.kernel_isa +
           (same_isa ? " != pinned " : " outside the cross-ISA tolerance of "
                                       "pinned ") +
           JsonNumber(*pin.accuracy) + " (ratio " +
           JsonNumber(*pin.ratio_to_fp32) + ") on " + pin.isa;
  return "";
}

// Checks every task of one RunMobileApp output; returns the LoadGen queries
// its performance plane issued.
std::size_t CheckApp(const harness::AppRunOutput& out, SuiteVersion version,
                     const Pins& pins, Tally& tally) {
  std::size_t queries = 0;
  for (const harness::TaskRunResult& t : out.result.tasks) {
    tally.Operation(out.result.chipset_name + "/" + t.entry.id,
                    CheckTask(t, version, out.result.chipset_name,
                              out.submission_valid, pins));
    if (t.single_stream) queries += t.single_stream->issued_count;
    if (t.offline) queries += t.offline->issued_count;
  }
  if (out.result.tasks.size() != models::SuiteFor(version).size())
    tally.Problem(out.result.chipset_name + ": ran " +
                  std::to_string(out.result.tasks.size()) + " tasks");
  return queries;
}

// ---------------------------------------------------------------------------
// Tracing.  The benchmark's own spans go to a recorder of its own; the
// program's recorder is switched on only around functional-plane calls,
// where its executor node spans give the per-op self time.  The performance
// plane stays untraced by the program: it would record an event for each of
// the tens of thousands of simulated queries of a pass, and the timing SUT
// below already splits that plane's host time.

// Forwards completions to the LoadGen's sink and clocks them, so the time
// the LoadGen spends accepting a completion is charged to the LoadGen even
// though the backend delivers it from inside IssueQuery.
class TimedSink final : public loadgen::ResponseSink {
 public:
  explicit TimedSink(loadgen::ResponseSink& inner) : inner_(inner) {}

  void Complete(loadgen::QuerySampleResponse response) override {
    const auto t0 = SteadyClock::now();
    inner_.Complete(std::move(response));
    seconds_ += SecondsSince(t0);
  }
  void Reject(std::uint64_t id, std::string_view reason) override {
    const auto t0 = SteadyClock::now();
    inner_.Reject(id, reason);
    seconds_ += SecondsSince(t0);
  }
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  loadgen::ResponseSink& inner_;
  double seconds_ = 0.0;
};

// A system under test that forwards every call to the real backend and
// accumulates the host time spent inside it (soc.sut_s).  RunTest's time
// minus this is the LoadGen's own (loadgen.self_s).
class TimingSut final : public loadgen::SystemUnderTest {
 public:
  explicit TimingSut(loadgen::SystemUnderTest& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void IssueQuery(std::span<const loadgen::QuerySample> samples,
                  loadgen::ResponseSink& sink) override {
    TimedSink timed(sink);
    const auto t0 = SteadyClock::now();
    inner_.IssueQuery(samples, timed);
    sut_s_ += SecondsSince(t0) - timed.seconds();
  }
  void FlushQueries() override {
    const auto t0 = SteadyClock::now();
    inner_.FlushQueries();
    sut_s_ += SecondsSince(t0);
  }
  [[nodiscard]] double sut_seconds() const { return sut_s_; }

 private:
  loadgen::SystemUnderTest& inner_;
  double sut_s_ = 0.0;
};

// Per-layer figures of one traced iteration: span seconds by layer name,
// plus counts the layers report.
using Layers = std::map<std::string, double>;

class Tracing {
 public:
  Tracing() { spans_.Enable(); }

  // RAII span around one call into a layer.
  [[nodiscard]] obs::TraceRecorder::Span Span(std::string_view layer) {
    return obs::TraceRecorder::Span(spans_, layer);
  }

  // Runs `fn` with the program's recorder on and folds the executor node
  // spans it produced into this iteration's op totals.
  template <typename Fn>
  void WithNodeSpans(Fn&& fn) {
    obs::TraceRecorder& rec = obs::TraceRecorder::Global();
    rec.Enable();
    try {
      fn();
    } catch (...) {
      rec.Disable();
      throw;
    }
    rec.Disable();
    const auto span = Span("obs.collect");
    for (const obs::OpAggregate& a : obs::AggregateSpans(
             rec.Snapshot(), obs::Domain::kHost, std::string("node"))) {
      counts_["infer.op." + a.name + ".count"] += static_cast<double>(a.count);
      counts_["infer.op." + a.name + ".self_ms"] += a.total_self_us / 1e3;
    }
  }

  void Count(const std::string& name, double v) { counts_[name] += v; }

  // Span totals (as "<layer>_s") and counts of the iteration, plus the share
  // of `wall_s` no span covers.  The benchmark's spans never nest, so their
  // sum is the covered time.
  [[nodiscard]] Layers Finish(double wall_s) const {
    Layers out = counts_;
    double covered_s = 0.0;
    for (const obs::TraceEvent& e : spans_.Snapshot()) {
      if (e.phase != obs::EventPhase::kComplete) continue;
      out[e.name + "_s"] += e.dur_us / 1e6;
      covered_s += e.dur_us / 1e6;
    }
    out["trace.uncovered_share"] =
        wall_s > 0.0 ? std::max(0.0, 1.0 - covered_s / wall_s) : 0.0;
    return out;
  }

 private:
  obs::TraceRecorder spans_;
  Layers counts_;
};

// ---------------------------------------------------------------------------
// Decomposition of one RunSubmission call: the steps of the harness's task
// loop (harness/run_session.cpp, RunTask), each a call on a module's public
// function inside its own span, with every result checked against the
// reference the untraced RunSubmission produced.  Covers fault-free runs
// without journals, which is what the workloads run.

infer::NumericsMode ModeFor(DataType numerics) {
  switch (numerics) {
    case DataType::kInt8:
    case DataType::kUInt8:
      return infer::NumericsMode::kInt8;
    case DataType::kFloat16:
      return infer::NumericsMode::kFp16;
    default:
      return infer::NumericsMode::kFp32;
  }
}

analysis::DiagnosticEngine LintTask(const soc::ChipsetDesc& chipset,
                                    const backends::SubmissionConfig& sub,
                                    const graph::Graph& full,
                                    const harness::RunOptions& options) {
  analysis::DiagnosticEngine de;
  analysis::RunModelPasses(full, de);
  analysis::QuantConfigView q;
  q.activation_dtype = sub.numerics;
  q.qat_weights = options.use_qat_weights;
  analysis::CheckQuantLegality(full, q, de);
  const std::string prefix = chipset.name + "/" + sub.framework.name;
  analysis::MappingConfigView m;
  m.chipset = &chipset;
  m.numerics = sub.numerics;
  m.policy = &sub.single_stream;
  m.label = prefix + "/single_stream";
  analysis::CheckSocMapping(full, m, de);
  for (std::size_t i = 0; i < sub.offline_replicas.size(); ++i) {
    m.policy = &sub.offline_replicas[i];
    m.label = prefix + "/offline[" + std::to_string(i) + "]";
    analysis::CheckSocMapping(full, m, de);
  }
  analysis::RunConfigView rc;
  rc.threads = options.threads;
  rc.cooldown_s = options.cooldown_s;
  rc.max_test_retries = options.max_test_retries;
  rc.kernel_isa = std::string(ToString(options.kernel_isa));
  rc.kernel_isa_available =
      infer::kernels::KernelRegistry::Global().Available(options.kernel_isa);
  rc.tiling_requested = options.tiling.enabled;
  rc.tile_rows = options.tiling.rows;
  rc.graph_has_fusable_segment = infer::HasFusableSegment(full);
  analysis::CheckRunConfig(rc, de);
  return de;
}

bool SameRun(const loadgen::TestResult& a, const loadgen::TestResult& b) {
  return a.percentile_latency_s == b.percentile_latency_s &&
         a.throughput_sps == b.throughput_sps &&
         a.latencies_s == b.latencies_s && a.issued_count == b.issued_count;
}

void DecomposeSubmission(const soc::ChipsetDesc& chipset,
                         SuiteVersion version, harness::SuiteBundles& bundles,
                         const harness::RunOptions& options,
                         const harness::SubmissionResult& reference,
                         const ThreadPool* pool, Tracing& tracing,
                         Tally& tally) {
  const std::vector<models::BenchmarkEntry> suite = models::SuiteFor(version);
  if (reference.tasks.size() != suite.size()) {
    tally.Problem(chipset.name + ": reference submission is incomplete");
    return;
  }
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const models::BenchmarkEntry& entry = suite[i];
    const harness::TaskRunResult& ref = reference.tasks[i];
    const std::string where = chipset.name + "/" + entry.id;
    const auto mismatch = [&](const std::string& what) {
      tally.Problem(where + ": decomposition differs from RunSubmission in " +
                    what);
    };
    const harness::TaskBundle& bundle = bundles.Get(entry, version);
    const backends::SubmissionConfig sub =
        backends::GetSubmission(chipset, entry.task, version);

    std::optional<graph::Graph> full;
    {
      const auto span = tracing.Span("models.full_graph");
      full.emplace(models::BuildReferenceGraph(entry, version,
                                               models::ModelScale::kFull));
    }
    {
      const auto span = tracing.Span("infer.memory_plan");
      const infer::TilePlan tiles = infer::BuildTilePlan(*full, options.tiling);
      const infer::MemoryPlan plan = infer::MemoryPlan::Build(
          *full, tiles.empty() ? nullptr : &tiles);
      if (plan.peak_arena_bytes() != ref.peak_arena_bytes)
        mismatch("the memory plan");
    }
    {
      const auto span = tracing.Span("analysis.lint");
      const analysis::DiagnosticEngine de =
          LintTask(chipset, sub, *full, options);
      if (de.error_count() != ref.lint_error_count ||
          de.warning_count() != ref.lint_warning_count)
        mismatch("lint diagnostics");
    }

    if (options.run_accuracy) {
      double accuracy = 0.0;
      double fp32 = 0.0;
      tracing.WithNodeSpans([&] {
        harness::TaskBundle::PreparedModel prepared;
        {
          const auto span = tracing.Span("quant.prepare");
          prepared = bundle.Prepare(ModeFor(sub.numerics), false,
                                    options.kernel_isa, false, options.tiling);
        }
        tracing.Count("quant.calibration_samples",
                      static_cast<double>(prepared.calibration_indices.size()));
        {
          const auto span = tracing.Span("infer.accuracy");
          accuracy = bundle.ScoreAccuracy(*prepared.executor, pool);
        }
        const auto span = tracing.Span("infer.fp32_reference");
        fp32 = bundle.Fp32Score(pool, options.kernel_isa);
      });
      if (accuracy != ref.accuracy || fp32 != ref.fp32_reference)
        mismatch("accuracy scores");
    }

    if (options.run_performance) {
      std::optional<soc::CompiledModel> single;
      std::vector<soc::CompiledModel> replicas;
      {
        const auto span = tracing.Span("backends.compile");
        single.emplace(backends::CompileSubmission(chipset, sub, *full));
        replicas = backends::CompileOfflineReplicas(chipset, sub, *full);
      }
      const bool has_offline =
          options.run_offline && !sub.offline_replicas.empty();
      loadgen::DatasetQsl qsl(bundle.dataset());
      loadgen::VirtualClock clock;
      backends::SimulatedBackend sut(chipset.name + "/" + sub.framework.name,
                                     soc::SocSimulator(chipset),
                                     std::move(*single), std::move(replicas),
                                     clock);
      TimingSut timed(sut);
      loadgen::TestResult ss;
      std::optional<loadgen::TestResult> off;
      {
        const auto span = tracing.Span("loadgen.run");
        loadgen::TestSettings s = options.performance_settings;
        s.scenario = loadgen::TestScenario::kSingleStream;
        s.mode = loadgen::TestMode::kPerformanceOnly;
        ss = loadgen::RunTest(timed, qsl, s, clock);
        if (has_offline) {
          sut.Cooldown(options.cooldown_s);
          s.scenario = loadgen::TestScenario::kOffline;
          off = loadgen::RunTest(timed, qsl, s, clock);
        }
      }
      tracing.Count("soc.sut_s", timed.sut_seconds());
      tracing.Count("loadgen.queries",
                    static_cast<double>(ss.issued_count +
                                        (off ? off->issued_count : 0)));
      if (!ref.single_stream || !SameRun(ss, *ref.single_stream) ||
          off.has_value() != ref.offline.has_value() ||
          (off && !SameRun(*off, *ref.offline)))
        mismatch("simulated latencies");
    }
  }

  // What RunMobileApp does after RunSubmission: the results screen and the
  // submission checker.
  const auto span = tracing.Span("harness.report");
  const std::string report = harness::FormatSubmission(reference);
  const harness::CheckReport check =
      harness::CheckSubmission(reference, options.performance_settings);
  const std::string verdict = harness::FormatCheckReport(check);
  if (!check.valid)
    tally.Problem(chipset.name + ": submission checker INVALID on replay");
}

// ---------------------------------------------------------------------------
// Workloads.

struct Iteration {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double queries = 0.0;  // LoadGen queries issued by the performance plane
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One end-to-end iteration with all tracing off.
  virtual Iteration Run(Tally& tally) = 0;
  // The same work, decomposed and traced.  Its wall time is the traced
  // wall_s; per-layer figures land in `tracing`.
  virtual Iteration RunTraced(Tracing& tracing, Tally& tally) = 0;
  // One-off host-capacity controls and replays after the traced loop; adds
  // per-layer figures to `layers`.
  virtual void Controls(Layers& layers, Tally& tally) = 0;
  // One-off check of pinned outputs before the measured loop, for workloads
  // whose measured runs have no pinned outputs of their own.
  virtual void CheckPinned(Tally&) {}
  // The LoadGen seed the workload's performance plane ran at.
  [[nodiscard]] virtual std::uint64_t loadgen_seed() const = 0;
};

// Populates `bundles` with every task of `version` (the submission
// workload's set-up).
void PopulateBundles(harness::SuiteBundles& bundles, SuiteVersion version,
                     Tracing* tracing) {
  for (const models::BenchmarkEntry& e : models::SuiteFor(version)) {
    if (tracing == nullptr) {
      (void)bundles.Get(e, version);
      continue;
    }
    const auto span = tracing->Span("datasets.create");
    (void)bundles.Get(e, version);
  }
}

// The accuracy of one task at one lane, sample by sample through
// Executor::Run on one execution context.
struct LaneRun {
  double seconds = 0.0;
  double score = 0.0;
  std::vector<double> sample_ms;
};

LaneRun ScoreOneLane(const harness::TaskBundle& bundle,
                     const infer::Executor& exec) {
  LaneRun r;
  const auto t0 = SteadyClock::now();
  const datasets::TaskDataset& ds = bundle.dataset();
  infer::ExecutionContext ctx = exec.CreateContext();
  std::vector<std::vector<infer::Tensor>> outputs;
  outputs.reserve(ds.size());
  r.sample_ms.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const std::vector<infer::Tensor> inputs = ds.InputsFor(i);
    const auto s0 = SteadyClock::now();
    outputs.push_back(exec.Run(inputs, ctx));
    r.sample_ms.push_back(SecondsSince(s0) * 1e3);
  }
  r.score = ds.ScoreOutputs(outputs);
  r.seconds = SecondsSince(t0);
  return r;
}

class SubmissionWorkload final : public Workload {
 public:
  explicit SubmissionWorkload(const Pins& pins)
      : chipset_(soc::Snapdragon888()), pins_(pins) {
    options_.threads = kLanes;
    options_.kernel_isa = infer::kernels::KernelIsa::kAuto;
    options_.cooldown_s = 0.0;
    options_.lint = harness::LintMode::kReport;
  }

  Iteration Run(Tally& tally) override {
    Iteration it;
    const auto t0 = SteadyClock::now();
    harness::SuiteBundles bundles;
    PopulateBundles(bundles, kVersion, nullptr);
    it.setup_s = SecondsSince(t0);
    harness::AppRunOutput out =
        harness::RunMobileApp(chipset_, kVersion, bundles, options_);
    it.wall_s = SecondsSince(t0);
    it.queries = static_cast<double>(
        CheckApp(out, kVersion, pins_, tally));
    reference_ = std::move(out.result);
    return it;
  }

  Iteration RunTraced(Tracing& tracing, Tally& tally) override {
    Iteration it;
    const auto t0 = SteadyClock::now();
    bundles_ = std::make_unique<harness::SuiteBundles>();
    tracing.WithNodeSpans(
        [&] { PopulateBundles(*bundles_, kVersion, &tracing); });
    it.setup_s = SecondsSince(t0);
    const ThreadPool pool(kLanes);
    DecomposeSubmission(chipset_, kVersion, *bundles_, options_, reference_,
                        &pool, tracing, tally);
    it.wall_s = SecondsSince(t0);
    return it;
  }

  // Host-capacity control over the last traced iteration's prepared
  // models: accuracy at one lane vs four lanes (thread scaling), and four
  // independent one-lane scorings at once vs one alone (capacity scaling).
  // A thread scaling near the capacity scaling is a host limit.
  void Controls(Layers& layers, Tally& tally) override {
    if (!bundles_) return;
    struct Task {
      const harness::TaskBundle* bundle;
      const infer::Executor* exec;
      double score;
    };
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < reference_.tasks.size(); ++i) {
      const harness::TaskRunResult& ref = reference_.tasks[i];
      const harness::TaskBundle& b = bundles_->Get(ref.entry, kVersion);
      const harness::TaskBundle::PreparedModel p =
          b.Prepare(ModeFor(ref.numerics), false, options_.kernel_isa);
      tasks.push_back({&b, p.executor, ref.accuracy});
    }
    const ThreadPool pool(kLanes);
    double four_lane_s = 0.0;
    for (const Task& t : tasks) {
      const auto t0 = SteadyClock::now();
      (void)t.bundle->ScoreAccuracy(*t.exec, &pool);
      four_lane_s += SecondsSince(t0);
    }
    // Two one-lane passes, so the p98 of the pooled per-sample times has at
    // least ten samples beyond it.
    double one_lane_s = 0.0;
    double sample_s = 0.0;
    std::vector<double> sample_ms;
    for (int pass = 0; pass < kOneLanePasses; ++pass)
      for (const Task& t : tasks) {
        const LaneRun r = ScoreOneLane(*t.bundle, *t.exec);
        if (r.score != t.score)
          tally.Problem(t.bundle->entry().id +
                        ": one-lane score differs from RunSubmission");
        one_lane_s += r.seconds / kOneLanePasses;
        for (const double ms : r.sample_ms) sample_s += ms / 1e3;
        sample_ms.insert(sample_ms.end(), r.sample_ms.begin(),
                         r.sample_ms.end());
      }
    // Each copy reports into its own slot; a copy never lets an exception
    // escape its thread.
    std::vector<std::string> copy_errors(kLanes);
    const auto t0 = SteadyClock::now();
    {
      std::vector<std::jthread> copies;
      for (int c = 0; c < kLanes; ++c)
        copies.emplace_back([&tasks, &error = copy_errors[c]] {
          try {
            for (const Task& t : tasks)
              if (ScoreOneLane(*t.bundle, *t.exec).score != t.score)
                error = t.bundle->entry().id + ": concurrent score differs";
          } catch (const std::exception& e) {
            error = e.what();
          }
        });
    }
    const double concurrent_s = SecondsSince(t0);
    for (const std::string& e : copy_errors)
      if (!e.empty()) tally.Problem("capacity control: " + e);

    layers["infer.samples"] = static_cast<double>(sample_ms.size());
    layers["infer.samples_per_s"] =
        sample_s > 0 ? static_cast<double>(sample_ms.size()) / sample_s : 0;
    layers["infer.sample_ms_p50"] = PercentileOf(sample_ms, 50);
    layers["infer.sample_ms_p98"] = PercentileOf(sample_ms, 98);
    layers["infer.thread_scaling"] = one_lane_s / four_lane_s;
    layers["infer.capacity_scaling"] = kLanes * one_lane_s / concurrent_s;
  }

  [[nodiscard]] std::uint64_t loadgen_seed() const override {
    return options_.performance_settings.seed;
  }

 private:
  static constexpr SuiteVersion kVersion = SuiteVersion::kV1_0;
  static constexpr int kOneLanePasses = 2;
  soc::ChipsetDesc chipset_;
  harness::RunOptions options_;
  const Pins& pins_;
  harness::SubmissionResult reference_;
  std::unique_ptr<harness::SuiteBundles> bundles_;
};

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, const Pins& pins)
      : seed_(seed), pins_(pins) {}

  Iteration Run(Tally& tally) override {
    Iteration it;
    last_ = {};  // one fleet report in memory at a time
    const auto t0 = SteadyClock::now();
    const fleet::FleetOptions fo = BuildOptions(seed_, kLanes);
    it.setup_s = SecondsSince(t0);
    last_ = fleet::RunFleet(fo);
    it.wall_s = SecondsSince(t0);
    it.queries = static_cast<double>(last_.issued);
    Check(last_, tally);
    return it;
  }

  Iteration RunTraced(Tracing& tracing, Tally& tally) override {
    Iteration it;
    last_ = {};
    const auto t0 = SteadyClock::now();
    std::optional<fleet::FleetOptions> fo;
    {
      const auto span = tracing.Span("fleet.setup");
      fo.emplace(BuildOptions(seed_, kLanes));
    }
    it.setup_s = SecondsSince(t0);
    {
      const auto span = tracing.Span("fleet.run");
      last_ = fleet::RunFleet(*fo);
    }
    it.wall_s = SecondsSince(t0);
    it.queries = static_cast<double>(last_.issued);
    tracing.Count("fleet.issued", static_cast<double>(last_.issued));
    tracing.Count("fleet.shed", static_cast<double>(last_.shed));
    tracing.Count("fleet.prepared_models_built",
                  static_cast<double>(last_.prepared_models_built));
    tracing.Count("fleet.distinct_configs",
                  static_cast<double>(last_.distinct_configs));
    Check(last_, tally);
    return it;
  }

  // RunFleet wall time at one worker over four (worker scaling), then a
  // replay of every shard of the last run outside the coordinator, through
  // the timing SUT, to split the Server-scenario plane into simulator and
  // LoadGen time.  The replay must reproduce each shard's result exactly.
  void Controls(Layers& layers, Tally& tally) override {
    std::vector<double> walls;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{kLanes}}) {
      const fleet::FleetOptions fo = BuildOptions(seed_, workers);
      const auto t0 = SteadyClock::now();
      const fleet::FleetReport r = fleet::RunFleet(fo);
      walls.push_back(SecondsSince(t0));
      if (fleet::FormatFleetReport(r) != digest_)
        tally.Problem("fleet report at " + std::to_string(workers) +
                      " worker(s) differs from the measured runs");
    }
    layers["fleet.worker_scaling"] = walls[0] / walls[1];
    Replay(layers, tally);
  }

  // The same fleet at the pinned control seed must reproduce the pinned
  // report: the measured runs' own seeds have no pinned outputs.
  void CheckPinned(Tally& tally) override {
    if (!pins_.fleet) {
      tally.Problem("no pinned fleet outputs");
      return;
    }
    const FleetPin& pin = *pins_.fleet;
    const fleet::FleetReport r =
        fleet::RunFleet(BuildOptions(pin.seed, kLanes));
    const std::uint64_t fnv = harness::Fnv1a64(fleet::FormatFleetReport(r));
    if (fnv != pin.report_fnv || r.issued != pin.issued ||
        r.shed != pin.shed || r.completed != pin.completed ||
        r.p90_ms != pin.p90_ms)
      tally.Problem("fleet at control seed " + std::to_string(pin.seed) +
                    ": report " + Hex64(fnv) + " issued " +
                    std::to_string(r.issued) + " shed " +
                    std::to_string(r.shed) + " completed " +
                    std::to_string(r.completed) + " p90_ms " +
                    JsonNumber(r.p90_ms) + " != pinned report " +
                    Hex64(pin.report_fnv) + " issued " +
                    std::to_string(pin.issued) + " shed " +
                    std::to_string(pin.shed) + " completed " +
                    std::to_string(pin.completed) + " p90_ms " +
                    JsonNumber(pin.p90_ms));
  }

  [[nodiscard]] std::uint64_t loadgen_seed() const override { return seed_; }

 private:
  static constexpr SuiteVersion kVersion = SuiteVersion::kV1_0;

  static fleet::FleetOptions BuildOptions(std::uint64_t seed,
                                          std::size_t workers) {
    fleet::FleetOptions fo;
    fo.shard_count = kFleetShards;
    fo.version = kVersion;
    fo.mix = fleet::DefaultFleetMix(kVersion);
    (void)fleet::ResolveMix(fo.mix, kVersion);  // validates every name
    fo.settings.seed = seed;
    fo.settings.server_query_count = kFleetQueriesPerShard;
    fo.settings.server_max_queue_depth = kFleetQueueDepth;
    fo.workers = workers;
    return fo;
  }

  void Check(const fleet::FleetReport& r, Tally& tally) {
    const std::string digest = fleet::FormatFleetReport(r);
    if (digest_.empty()) digest_ = digest;
    const bool fleet_ok =
        digest == digest_ && r.offered == r.issued + r.shed &&
        r.issued == r.completed + r.timed_out + r.dropped + r.rejected &&
        r.prepared_models_built == r.distinct_configs &&
        r.shards.size() == kFleetShards && !r.interrupted;
    if (!fleet_ok)
      tally.Problem("fleet report: digest, accounting identity or "
                    "prepared-model sharing check failed");
    for (const fleet::ShardResult& s : r.shards) {
      const loadgen::TestResult& t = s.result;
      std::string why;
      if (s.state == harness::TaskStatus::kInvalid ||
          s.state == harness::TaskStatus::kErrored)
        why = std::string(ToString(s.state)) + " (" + t.invalid_reason + ")";
      else if (t.issued_count + t.shed_count != kFleetQueriesPerShard ||
               t.issued_count != t.sample_count + t.timed_out_count +
                                     t.dropped_count + t.rejected_count)
        why = "query accounting identity broken";
      else if (!fleet_ok)
        why = "fleet-level check failed";
      tally.Operation("shard " + std::to_string(s.shard_id), why);
    }
  }

  // Shards are apportioned over the mix in order, and shard i runs at the
  // coordinator's derived seed Rng(seed).Split(0xF1EE7).Split(i) (fleet.cpp).
  void Replay(Layers& layers, Tally& tally) {
    const fleet::FleetOptions fo = BuildOptions(seed_, kLanes);
    const std::vector<fleet::ResolvedMixEntry> resolved =
        fleet::ResolveMix(fo.mix, kVersion);
    const std::vector<std::size_t> counts =
        fleet::AssignShardCounts(fo.mix, fo.shard_count);
    loadgen::TestSettings settings = fo.settings;
    settings.mode = loadgen::TestMode::kPerformanceOnly;

    benchutil::StubDataset stub;
    double compile_s = 0.0;
    double run_s = 0.0;
    double sut_s = 0.0;
    double queries = 0.0;
    std::size_t id = 0;
    std::size_t mismatches = 0;
    for (std::size_t m = 0; m < resolved.size(); ++m) {
      if (counts[m] == 0) continue;
      const soc::ChipsetDesc& chipset = resolved[m].chipset;
      auto t0 = SteadyClock::now();
      const backends::SubmissionConfig sub =
          backends::GetSubmission(chipset, resolved[m].entry.task, kVersion);
      const soc::CompiledModel plan = backends::CompileSubmission(
          chipset, sub,
          models::BuildReferenceGraph(resolved[m].entry, kVersion,
                                      models::ModelScale::kFull));
      compile_s += SecondsSince(t0);
      for (std::size_t k = 0; k < counts[m]; ++k, ++id) {
        loadgen::TestSettings s = settings;
        Rng shard_rng = Rng(seed_).Split(0xF1EE7).Split(id);
        s.seed = shard_rng.NextU64();
        loadgen::VirtualClock clock;
        backends::SimulatedBackend sut(chipset.name, soc::SocSimulator(chipset),
                                       plan, {}, clock);
        TimingSut timed(sut);
        loadgen::DatasetQsl qsl(stub);
        t0 = SteadyClock::now();
        const loadgen::TestResult r = loadgen::RunTest(timed, qsl, s, clock);
        run_s += SecondsSince(t0);
        sut_s += timed.sut_seconds();
        queries += static_cast<double>(r.issued_count);
        const loadgen::TestResult& ref = last_.shards.at(id).result;
        if (!SameRun(r, ref) || r.shed_count != ref.shed_count) ++mismatches;
      }
    }
    if (mismatches > 0)
      tally.Problem(std::to_string(mismatches) +
                    " replayed fleet shard(s) differ from RunFleet");
    layers["backends.compile_s"] = compile_s;
    layers["soc.sut_s"] = sut_s;
    layers["loadgen.run_s"] = run_s;
    layers["loadgen.queries"] = queries;
  }

  std::uint64_t seed_;
  const Pins& pins_;
  fleet::FleetReport last_;
  std::string digest_;  // FormatFleetReport of the first run at this seed
};

// ---------------------------------------------------------------------------
// Metrics.

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"sim_queries_per_s", "1/s"},
    {"peak_rss_mib", "MiB"},
};

std::vector<MetricSpec> PerLayerSpecs() {
  std::vector<MetricSpec> specs = {
      {"datasets.create_s", "s"},
      {"quant.prepare_s", "s"},
      {"quant.calibration_samples", "count"},
      {"infer.accuracy_s", "s"},
      {"infer.fp32_reference_s", "s"},
      {"infer.samples", "count"},
      {"infer.samples_per_s", "1/s"},
      {"infer.sample_ms_p50", "ms"},
      {"infer.sample_ms_p98", "ms"},
      {"infer.thread_scaling", "ratio"},
      {"infer.capacity_scaling", "ratio"},
  };
  for (const char* op : kTracedOps) {
    specs.push_back({std::string("infer.op.") + op + ".self_ms", "ms"});
    specs.push_back({std::string("infer.op.") + op + ".count", "count"});
  }
  const MetricSpec rest[] = {
      {"models.full_graph_s", "s"},
      {"infer.memory_plan_s", "s"},
      {"analysis.lint_s", "s"},
      {"backends.compile_s", "s"},
      {"soc.sut_s", "s"},
      {"loadgen.self_s", "s"},
      {"loadgen.queries", "count"},
      {"loadgen.ns_per_query", "ns"},
      {"fleet.run_s", "s"},
      {"fleet.issued", "count"},
      {"fleet.shed", "count"},
      {"fleet.prepared_models_built", "count"},
      {"fleet.distinct_configs", "count"},
      {"fleet.worker_scaling", "ratio"},
      {"harness.report_s", "s"},
      {"obs.collect_s", "s"},
      {"obs.trace_overhead", "ratio"},
      {"obs.traced_wall_s", "s"},
      {"trace.uncovered_share", "ratio"},
  };
  specs.insert(specs.end(), std::begin(rest), std::end(rest));
  return specs;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      a.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(argv[++i]);
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (arg == "--pins") {
      a.pins_path = argv[++i];
    } else if (arg == "--source-id") {
      a.source_id = argv[++i];
    } else {
      return false;
    }
  }
  return have_workload && have_seed && !a.pins_path.empty() &&
         std::isfinite(a.seconds) && a.seconds > 0.0;
}

std::unique_ptr<Workload> MakeWorkload(const Args& a, const Pins& pins) {
  if (a.workload == "sd888-submission")
    return std::make_unique<SubmissionWorkload>(pins);
  if (a.workload == "fleet-serving")
    return std::make_unique<FleetWorkload>(a.seed, pins);
  return nullptr;
}

int Main(int argc, char** argv) {
  Args args;
  try {
    if (!ParseArgs(argc, argv, args)) throw std::invalid_argument("usage");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: mlpm_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --pins PATH [--source-id ID]\n");
    return 2;
  }
  const Pins pins = LoadPins(args.pins_path);
  if (pins.tasks.empty()) {
    std::fprintf(stderr, "perfbench: no pinned outputs in %s\n",
                 args.pins_path.c_str());
    return 2;
  }
  const std::unique_ptr<Workload> workload = MakeWorkload(args, pins);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Tally tally;
  std::vector<double> wall, setup, qps, traced_wall;
  std::map<std::string, std::vector<double>> layer_samples;
  Layers controls;
  try {
    workload->CheckPinned(tally);
    const auto start = SteadyClock::now();
    const auto budget_left = [&] {
      return SecondsSince(start) < args.seconds;
    };
    // Warm-up: the first tenth of the budget (at least one iteration) runs
    // checked but unrecorded, so the cold start stays out of the medians.
    do {
      (void)workload->Run(tally);
    } while (SecondsSince(start) < kWarmupShare * args.seconds);
    // --trace 0: at least three iterations, so the medians mean something.
    // --trace 1: untraced/traced pairs (the untraced one is the reference
    // the decomposition must reproduce), at least one pair.
    const std::size_t min_iters = args.trace ? 1 : 3;
    while (wall.size() < min_iters || budget_left()) {
      const Iteration it = workload->Run(tally);
      wall.push_back(it.wall_s);
      setup.push_back(it.setup_s);
      qps.push_back(it.queries / std::max(it.wall_s - it.setup_s, 1e-9));
      if (!args.trace) continue;
      Tracing tracing;
      const Iteration t = workload->RunTraced(tracing, tally);
      traced_wall.push_back(t.wall_s);
      for (const auto& [name, v] : tracing.Finish(t.wall_s))
        layer_samples[name].push_back(v);
    }
    if (args.trace) workload->Controls(controls, tally);
  } catch (const std::exception& e) {
    tally.Problem(std::string("exception: ") + e.what());
  }
  const double rss_mib = PeakRssMiB();

  // Assemble the metrics of this mode.
  std::vector<std::pair<MetricSpec, double>> metrics;
  if (!args.trace) {
    const double values[] = {Median(wall), Median(setup), Median(qps),
                             rss_mib};
    for (std::size_t i = 0; i < kEndToEnd.size(); ++i)
      metrics.emplace_back(kEndToEnd[i], values[i]);
  } else {
    Layers layers;
    for (const auto& [name, v] : layer_samples) layers[name] = Median(v);
    for (const auto& [name, v] : controls) layers[name] = v;
    const double untraced = Median(wall);
    layers["obs.traced_wall_s"] = Median(traced_wall);
    layers["obs.trace_overhead"] =
        untraced > 0 ? layers["obs.traced_wall_s"] / untraced - 1.0 : 0.0;
    // loadgen.run spans RunTest; the SUT's share of it is the simulator's.
    layers["loadgen.self_s"] = layers["loadgen.run_s"] - layers["soc.sut_s"];
    layers["loadgen.ns_per_query"] =
        layers["loadgen.queries"] > 0
            ? layers["loadgen.self_s"] / layers["loadgen.queries"] * 1e9
            : 0.0;
    for (const MetricSpec& spec : PerLayerSpecs())
      metrics.emplace_back(spec, layers[spec.name]);
  }

  // Human-readable summary, the self-describing record, then the result.
  const std::string isa(infer::kernels::ToString(
      infer::kernels::KernelRegistry::Global().Resolve(
          infer::kernels::KernelIsa::kAuto)));
  std::printf("perfbench %s seed=%llu trace=%d iterations=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              wall.size());
  for (const auto& [spec, v] : metrics)
    std::printf("  %-36s %16.6f %s\n", spec.name.c_str(), v,
                spec.unit.c_str());
  std::printf("  %-36s", "wall_s per iteration");
  for (const double w : wall) std::printf(" %.3f", w);
  std::printf("\n");
  // failed_fraction rides in the result's "failed"/"attempted" fields, not
  // in "metrics": it is 0 on every correct run.
  std::printf("  %-36s %16.6f ratio (%zu of %zu operations)\n",
              "failed_fraction",
              tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                        static_cast<double>(tally.attempted)
                                  : 1.0,
              tally.failed, tally.attempted);
  for (const std::string& p : tally.problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());

  std::string metric_json;
  for (const auto& [spec, v] : metrics) {
    if (!metric_json.empty()) metric_json += ", ";
    metric_json += JsonString(spec.name) + ": {\"value\": " + JsonNumber(v) +
                   ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"loadgen_seed\": "
      "%llu, \"source\": %s, \"cpu_model\": %s, \"nproc\": %u, "
      "\"kernel_isa\": %s, \"build_type\": %s, \"lanes\": %d, "
      "\"iterations\": %zu, \"traced_iterations\": %zu}}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(workload->loadgen_seed()),
      JsonString(args.source_id).c_str(), JsonString(CpuModel()).c_str(),
      std::thread::hardware_concurrency(), JsonString(isa).c_str(),
      JsonString(MLPM_PERFBENCH_BUILD_TYPE).c_str(), kLanes, wall.size(),
      traced_wall.size());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      tally.correct() ? "true" : "false", std::max<std::size_t>(tally.attempted, 1),
      tally.failed, metric_json.c_str());
  std::fflush(stdout);
  return tally.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
