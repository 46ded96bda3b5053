// Fleet-scale serving benchmarks (DESIGN.md §16): sustained fleet QPS as
// the shard count grows, the harness-bottleneck knee (the shard count where
// per-query wall-clock overhead departs from the small-fleet baseline), and
// hard determinism / prepared-model-sharing assertions.
//
// Standalone (no benchmark framework), same contract as bench_kernels:
// adaptive wall-clock timing, a table on stdout, BENCH_fleet.json for CI.
// The determinism and sharing properties are asserted before anything is
// timed — a throughput number from a nondeterministic fleet is worthless.
//
// Usage: bench_fleet [--json PATH] [--smoke]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "fleet/fleet.h"
#include "fleet/report.h"

namespace {

using namespace mlpm;

bool g_smoke = false;

struct BenchRecord {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<BenchRecord> g_records;

void Record(const std::string& name, double value, const std::string& unit) {
  g_records.push_back({name, value, unit});
  std::printf("  %-44s %12.3f %s\n", name.c_str(), value, unit.c_str());
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FATAL: fleet property failed: %s\n", what);
    std::exit(1);
  }
}

fleet::FleetOptions OptionsFor(std::size_t shards) {
  fleet::FleetOptions fo;
  fo.shard_count = shards;
  fo.settings.server_query_count = 512;
  fo.settings.server_max_queue_depth = 64;
  fo.settings.server_max_shed_fraction = 1.0;  // study overload, don't fail it
  return fo;
}

// Best-of-three wall seconds for one fleet run (fleets are fast: the whole
// run happens in virtual time; wall time is pure harness overhead).
double WallSeconds(const fleet::FleetOptions& fo, fleet::FleetReport* out) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  const int reps = g_smoke ? 2 : 3;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fleet::FleetReport r = fleet::RunFleet(fo);
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
    if (out != nullptr) *out = std::move(r);
  }
  return best;
}

void BenchDeterminism() {
  std::printf("determinism: 16-shard mixed fleet, two runs\n");
  const fleet::FleetOptions fo = OptionsFor(16);
  const std::string a = fleet::FormatFleetReport(fleet::RunFleet(fo));
  const std::string b = fleet::FormatFleetReport(fleet::RunFleet(fo));
  Check(a == b, "same-seed fleet reports are not byte-identical");
  Record("fleet_determinism_16shards", 1.0, "ok");
}

void BenchSharing() {
  std::printf("prepared-model sharing: 64 shards, default mix\n");
  const fleet::FleetReport r = fleet::RunFleet(OptionsFor(64));
  Check(r.prepared_models_built == r.distinct_configs,
        "prepared-model builds != distinct configs (cache not shared)");
  Check(r.distinct_configs < r.shard_count,
        "default 64-shard mix should share configs across shards");
  Record("fleet_distinct_configs_64shards",
         static_cast<double>(r.distinct_configs), "configs");
  Record("fleet_models_built_64shards",
         static_cast<double>(r.prepared_models_built), "builds");
}

void BenchSustainedQps() {
  std::printf("sustained fleet QPS vs shard count\n");
  const std::size_t counts_full[] = {4, 16, 64};
  const std::size_t counts_smoke[] = {4, 16};
  const auto counts =
      g_smoke ? std::span<const std::size_t>(counts_smoke)
              : std::span<const std::size_t>(counts_full);
  for (const std::size_t n : counts) {
    fleet::FleetReport r;
    const double wall_s = WallSeconds(OptionsFor(n), &r);
    Record("fleet_qps_" + std::to_string(n) + "shards", r.fleet_qps,
           "queries/s");
    Record("fleet_wall_" + std::to_string(n) + "shards", wall_s * 1e3, "ms");
    if (wall_s > 0.0)
      Record("fleet_harness_rate_" + std::to_string(n) + "shards",
             static_cast<double>(r.issued) / wall_s, "queries/wall-s");
  }
}

// The harness-bottleneck knee: the first shard count past the best point
// (the argmin of per-query wall time) whose per-query wall overhead exceeds
// 1.25x that best — where coordination (workers, cache, journaling-free
// path) stops scaling linearly.  Counts before the best point are excluded:
// there fixed startup cost dominates, which is amortization, not a knee.
void BenchKnee() {
  std::printf("harness-bottleneck knee\n");
  const std::size_t counts_full[] = {1, 2, 4, 8, 16, 32, 64};
  const std::size_t counts_smoke[] = {1, 2, 4, 8, 16};
  const auto counts =
      g_smoke ? std::span<const std::size_t>(counts_smoke)
              : std::span<const std::size_t>(counts_full);
  std::vector<double> per_query(counts.size(), 0.0);
  double best = 1e300;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    fleet::FleetReport r;
    const double wall_s = WallSeconds(OptionsFor(counts[i]), &r);
    per_query[i] =
        r.issued > 0 ? wall_s / static_cast<double>(r.issued) : 0.0;
    if (per_query[i] < best) {
      best = per_query[i];
      best_i = i;
    }
  }
  std::size_t knee = 0;  // 0: no knee past the best point in the swept range
  for (std::size_t i = best_i + 1; i < counts.size(); ++i) {
    if (per_query[i] > 1.25 * best) {
      knee = counts[i];
      break;
    }
  }
  Record("fleet_knee_shards", static_cast<double>(knee), "shards");
  Record("fleet_best_wall_per_query", best * 1e9, "ns");
}

void WriteJson(const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const BenchRecord& r = g_records[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.6g", r.value);
    out << "    {\"name\": \"" << r.name << "\", \"value\": " << value
        << ", \"unit\": \"" << r.unit << "\"}"
        << (i + 1 < g_records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu benchmarks)\n", path.c_str(),
              g_records.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--smoke") {
      g_smoke = true;
    } else {
      std::fprintf(stderr, "usage: bench_fleet [--json PATH] [--smoke]\n");
      return 2;
    }
  }

  const ThreadPool pool;
  std::printf("bench_fleet: %zu execution lane(s)\n", pool.thread_count());
  BenchDeterminism();
  BenchSharing();
  BenchSustainedQps();
  BenchKnee();
  WriteJson(json_path);
  return 0;
}
