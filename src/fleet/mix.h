// Fleet mix specification (DESIGN.md §16): which (chipset, task) configs a
// fleet runs and in what proportion.  A mix entry is a device population;
// shard counts are apportioned deterministically by weight so the same spec
// and shard count always produce the same fleet, independent of worker
// scheduling.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "soc/chipset.h"

namespace mlpm::fleet {

// One device population in the fleet: a chipset running one suite task.
struct FleetMixEntry {
  std::string chipset;  // catalog name, e.g. "Snapdragon 865+"
  std::string task_id;  // suite entry id, e.g. "image_classification"
  double weight = 1.0;  // relative share of the shard count
};

// Parses a `--fleet-mix` spec:  "<chipset>:<task>[:<weight>];..."
//   - <chipset> is a catalog name (may contain spaces);
//   - <task> is a suite entry id or one of the aliases
//     ic / od / is / qa;
//   - <weight> is an optional positive double (default 1).
// Throws CheckError on malformed specs; its message states the problem
// without a source location, so the CLI can show it as a flag error.
// Chipset/task existence is checked later by ResolveMix, against the suite
// version actually run.
[[nodiscard]] std::vector<FleetMixEntry> ParseFleetMix(
    const std::string& spec);

// The default mix when none is given: every catalog chipset of `version`
// crossed with every suite task, weight 1 — a maximally heterogeneous
// fleet exercising every prepared-model config.
[[nodiscard]] std::vector<FleetMixEntry> DefaultFleetMix(
    models::SuiteVersion version);

// Canonical one-line rendering ("chipset:task:weight;...") — feeds the
// fleet config hash and the report header.
[[nodiscard]] std::string FormatFleetMix(
    const std::vector<FleetMixEntry>& mix);

// Apportions `shard_count` shards across the mix by largest-remainder on
// the normalized weights (deterministic; remainder ties break toward the
// earlier entry).  Every returned count can be zero except that at least
// one entry receives a shard; the counts sum to `shard_count`.
[[nodiscard]] std::vector<std::size_t> AssignShardCounts(
    const std::vector<FleetMixEntry>& mix, std::size_t shard_count);

// One fully resolved mix entry: the catalog chipset and suite entry behind
// the names.  Resolution throws CheckError naming the first unknown name
// (no source location, as for ParseFleetMix).
struct ResolvedMixEntry {
  FleetMixEntry spec;
  soc::ChipsetDesc chipset;
  models::BenchmarkEntry entry;
};

[[nodiscard]] std::vector<ResolvedMixEntry> ResolveMix(
    const std::vector<FleetMixEntry>& mix, models::SuiteVersion version);

}  // namespace mlpm::fleet
