// Journal validate/inspect tool (DESIGN.md §12, §16).  Reads a crash-safe
// journal — submission or fleet, auto-detected from the meta frame (a fleet
// meta has a shard count, a submission meta has a chipset; neither decodes
// as the other) — verifies the header, meta frame and every record
// checksum, and prints what a --resume run would replay: which suite tasks
// or fleet shards are already on disk, which would re-run, and whether a
// torn tail will be truncated.
//
// Usage:
//   mlpm_journal [--verbose] FILE
//
// Exit codes:
//   0  journal is clean (valid meta, no torn tail)
//   1  journal is damaged but resumable (torn tail / bad records were cut)
//   2  journal is unreadable (missing file, bad header or meta frame)
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "fleet/journal.h"
#include "harness/journal.h"
#include "models/zoo.h"

namespace {

using namespace mlpm;

int Usage() {
  std::fprintf(stderr, "usage: mlpm_journal [--verbose] FILE\n");
  return 2;
}

// The meta frame stores the suite version as text; map it back to the enum
// so the tool can list which suite tasks are still missing from the file.
std::vector<models::BenchmarkEntry> SuiteForVersionName(
    const std::string& name) {
  for (models::SuiteVersion v :
       {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0})
    if (name == ToString(v)) return models::SuiteFor(v);
  return {};
}

// Notes and torn tail, the same for both journal types; returns the exit
// status (1 when a resume would cut bytes).
int PrintDamage(const harness::JournalState& load) {
  for (const std::string& n : load.notes)
    std::printf("  note: %s\n", n.c_str());
  if (!load.torn_tail) return 0;
  std::printf("  torn tail: %zu byte(s) after offset %zu would be "
              "truncated on resume\n",
              load.torn_bytes, load.valid_prefix_bytes);
  return 1;
}

// Fleet-journal path (DESIGN.md §16): shard frames keyed by id, resume
// replays intact shards and re-runs the rest.
int InspectFleetJournal(const std::string& path,
                        const fleet::FleetJournal::Load& load, bool verbose) {
  const std::map<std::size_t, fleet::ShardResult> shards =
      fleet::ShardsById(load.records);

  std::printf("fleet journal: %s\n", path.c_str());
  std::printf("  version:     %s\n", load.meta.version.c_str());
  std::printf("  seed:        %llu\n",
              static_cast<unsigned long long>(load.meta.seed));
  std::printf("  shards:      %llu\n",
              static_cast<unsigned long long>(load.meta.shard_count));
  std::printf("  config hash: %016llx\n",
              static_cast<unsigned long long>(load.meta.config_hash));
  std::printf("  records:     %zu intact shard(s)\n", shards.size());

  for (const auto& [id, shard] : shards) {
    const std::string status{ToString(shard.state)};
    std::printf("  shard %-4zu %-15s slo=%s %s\n", id, status.c_str(),
                shard.slo_met ? "yes" : "no", shard.config_key.c_str());
    if (verbose) {
      std::printf("      issued=%zu shed=%zu trips=%zu faults=%zu\n",
                  shard.result.issued_count, shard.result.shed_count,
                  shard.breaker_trips, shard.fault_count);
    }
  }

  const int exit_status = PrintDamage(load);
  std::string pending;
  std::size_t missing = 0;
  for (std::size_t id = 0; id < load.meta.shard_count; ++id) {
    if (shards.count(id) != 0) continue;
    ++missing;
    if (missing <= 8) {
      if (!pending.empty()) pending += ", ";
      pending += std::to_string(id);
    }
  }
  if (missing > 8) pending += ", ...";
  std::printf("  resume: %zu of %llu shard(s) replayable%s%s\n",
              shards.size(),
              static_cast<unsigned long long>(load.meta.shard_count),
              pending.empty() ? "" : "; pending: ", pending.c_str());
  return exit_status;
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose") {
      verbose = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();

  const harness::SubmissionJournal::Load load =
      harness::kSubmissionJournal.Read(path);
  if (!load.meta_valid) {
    // Same file format, different meta: maybe it's a fleet journal.
    const fleet::FleetJournal::Load fload = fleet::kFleetJournal.Read(path);
    if (fload.meta_valid) return InspectFleetJournal(path, fload, verbose);
    std::fprintf(stderr, "%s: not a readable journal\n", path.c_str());
    for (const std::string& n : load.notes)
      std::fprintf(stderr, "  %s\n", n.c_str());
    return 2;
  }

  std::printf("journal: %s\n", path.c_str());
  std::printf("  chipset:     %s\n", load.meta.chipset.c_str());
  std::printf("  version:     %s\n", load.meta.version.c_str());
  std::printf("  seed:        %llu\n",
              static_cast<unsigned long long>(load.meta.seed));
  std::printf("  config hash: %016llx\n",
              static_cast<unsigned long long>(load.meta.config_hash));
  std::printf("  records:     %zu intact\n", load.records.size());

  for (const harness::TaskRunResult& t : load.records) {
    const std::string status{ToString(t.status)};
    std::printf("  rec %-24s status=%s accuracy=%.4f quality=%s\n",
                t.entry.id.c_str(), status.c_str(), t.accuracy,
                t.quality_passed ? "pass" : "FAIL");
    if (verbose) {
      std::printf("      faults=%zu shed=%zu rejected=%zu trips=%zu "
                  "attempts=%d\n",
                  t.fault_count, t.shed_count, t.rejected_count,
                  t.breaker_trips, t.performance_attempts);
    }
  }

  const int exit_status = PrintDamage(load);
  // What a --resume run would actually do: errored records re-run, intact
  // non-errored ones replay, anything absent from the file runs fresh.
  const std::vector<models::BenchmarkEntry> suite =
      SuiteForVersionName(load.meta.version);
  if (!suite.empty()) {
    std::size_t replayable = 0;
    std::string pending;
    for (const models::BenchmarkEntry& entry : suite) {
      bool done = false;
      for (const harness::TaskRunResult& t : load.records)
        done |= t.entry.id == entry.id &&
                t.status != harness::TaskStatus::kErrored;
      if (done) {
        ++replayable;
      } else {
        if (!pending.empty()) pending += ", ";
        pending += entry.id;
      }
    }
    std::printf("  resume: %zu of %zu suite task(s) replayable%s%s\n",
                replayable, suite.size(),
                pending.empty() ? "" : "; pending: ", pending.c_str());
  }
  return exit_status;
}
