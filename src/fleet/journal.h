// Crash-safe fleet journal (DESIGN.md §16): the journal layer of
// harness/journal.h — same header line, framing, checksums, loader and
// writer — carrying fleet frames:
//
//   mlpm_journal v1\n
//   meta <len> <fnv64-hex>\n   — fleet identity (no `chipset` key, so a
//   <payload>\n                  fleet meta never decodes as a submission
//   shard <len> <fnv64-hex>\n    meta; a submission meta has no
//   <payload>\n                  `shard_count`, so never decodes as this)
//                              — one frame per finished shard
//
// Shards finish in worker-scheduling order, so the shard frames of two
// identical runs may be permuted; replay keys records by shard id and the
// aggregated report is built from the sorted shard vector, which keeps the
// determinism contract byte-exact even though the journal file itself is
// not canonical.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "harness/journal.h"

namespace mlpm::fleet {

// Identity of the fleet configuration a journal belongs to; resume replays
// only from a journal whose meta matches on every field.
struct FleetJournalMeta {
  std::string version;  // ToString(models::SuiteVersion)
  std::uint64_t seed = 0;
  std::uint64_t shard_count = 0;
  std::uint64_t config_hash = 0;

  [[nodiscard]] bool Matches(const FleetJournalMeta& other) const {
    return version == other.version && seed == other.seed &&
           shard_count == other.shard_count &&
           config_hash == other.config_hash;
  }
};

// Deterministic digest of everything that shapes fleet results: suite
// version, mix, LoadGen settings, fault plan, breaker options and the
// accuracy-plane flags.  Worker count and observability knobs are
// excluded — they never change results.
[[nodiscard]] std::uint64_t HashFleetConfig(const FleetOptions& options,
                                            const std::vector<FleetMixEntry>&
                                                mix);

// Fleet payload codecs; decoders throw CheckError on malformed payloads
// (including a submission-journal meta, which lacks shard_count).
[[nodiscard]] std::string EncodeFleetMeta(const FleetJournalMeta& meta);
[[nodiscard]] FleetJournalMeta DecodeFleetMeta(const std::string& payload);
[[nodiscard]] std::string EncodeShardResult(const ShardResult& shard);
[[nodiscard]] ShardResult DecodeShardResult(const std::string& payload);

// The shard records of a journal keyed by shard id, as resume replays
// them: a shard journaled twice keeps its later record.
[[nodiscard]] inline std::map<std::size_t, ShardResult> ShardsById(
    std::vector<ShardResult> records) {
  std::map<std::size_t, ShardResult> shards;
  for (ShardResult& shard : records)
    shards.insert_or_assign(shard.shard_id, std::move(shard));
  return shards;
}

using FleetJournal = harness::JournalFormat<FleetJournalMeta, ShardResult>;
inline constexpr FleetJournal kFleetJournal{
    "shard", &EncodeFleetMeta, &DecodeFleetMeta, &EncodeShardResult,
    &DecodeShardResult};

}  // namespace mlpm::fleet
