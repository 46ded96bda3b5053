// Seeded mutation test for the journal loader, the frame log and every
// record decoder.  Valid submission and fleet journals are mutated with
// common/rng: bit flips, truncation, inserted bytes (structural characters
// and hostile numbers) and duplicated or dropped frames.  Most mutations
// are applied to frame payloads and the frames re-serialized with fresh
// lengths and checksums, so they reach the decoders instead of stopping at
// the checksum; the rest damage the raw file and exercise the frame layer.
//
// Every mutated file must load without an exception escaping, and the
// reported valid prefix must be self-consistent: the prefix alone reloads
// to the same meta and records with no torn tail.  Run under ASan/UBSan in
// CI, so an out-of-bounds read, an unchecked enum cast or an oversized
// allocation fails the job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "journal_fixtures.h"

namespace mlpm {
namespace {

using namespace journal_fixtures;

constexpr int kMutantsPerJournal = 1500;

struct Frame {
  std::string kind;
  std::string payload;
};

std::string TmpPath(const std::string& name) {
  std::string p = testing::TempDir();
  if (!p.empty() && p.back() != '/') p += '/';
  return p + name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A frame log with correct lengths and checksums for whatever payloads.
std::string Serialize(const std::vector<Frame>& frames) {
  std::string out = "mlpm_journal v1\n";
  for (const Frame& f : frames) {
    char head[64];
    std::snprintf(head, sizeof head, "%s %zu %016llx\n", f.kind.c_str(),
                  f.payload.size(),
                  static_cast<unsigned long long>(
                      harness::Fnv1a64(f.payload)));
    out += head;
    out += f.payload;
    out += '\n';
  }
  return out;
}

// Byte strings likely to upset a decoder: separators, signs, counts far
// past the payload, values past every enum and int range, odd doubles.
const std::vector<std::string>& Hostile() {
  static const std::vector<std::string> kHostile = {
      "\n", " ", "0", "9", "-1", "\xff", "nan", "inf", "0x1p+1024",
      "18446744073709551615", "1000000000000", "2147483648", "4294967296",
      "\nD k 5 1\n", "\nL k 999999\n", "\ns k 99\n", "\nu numerics 9\n",
      "\nu state 77\n", "\nb slo_met 7\n", "\nU k 3 1\n"};
  return kHostile;
}

std::string MutateBytes(std::string s, Rng& rng) {
  switch (rng.NextBelow(3)) {
    case 0:  // flip one bit
      if (!s.empty())
        s[rng.NextBelow(s.size())] ^=
            static_cast<char>(1u << rng.NextBelow(8));
      break;
    case 1:  // truncate
      s.resize(rng.NextBelow(s.size() + 1));
      break;
    default: {  // insert or overwrite with a hostile token
      const std::string& token = Hostile()[rng.NextBelow(Hostile().size())];
      const std::size_t at = rng.NextBelow(s.size() + 1);
      if (rng.NextBelow(2) == 0) {
        s.insert(at, token);
      } else {
        s.replace(at, std::min(token.size(), s.size() - at), token);
      }
    }
  }
  return s;
}

std::string Mutate(const std::vector<Frame>& base, Rng& rng) {
  std::vector<Frame> frames = base;
  const int edits = 1 + static_cast<int>(rng.NextBelow(3));
  for (int e = 0; e < edits && !frames.empty(); ++e) {
    const std::size_t i = rng.NextBelow(frames.size());
    switch (rng.NextBelow(4)) {
      case 0:
      case 1:  // payload damage behind a valid checksum
        frames[i].payload = MutateBytes(frames[i].payload, rng);
        break;
      case 2:  // duplicate a frame (a second meta, a repeated record)
        frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(
                                           rng.NextBelow(frames.size() + 1)),
                      frames[i]);
        break;
      default:  // drop a frame
        frames.erase(frames.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  std::string bytes = Serialize(frames);
  // One mutant in four also takes raw damage the checksums do not cover.
  if (rng.NextBelow(4) == 0) bytes = MutateBytes(bytes, rng);
  return bytes;
}

struct Tally {
  int content_cuts = 0;   // a checksum-clean frame the decoders refused
  int physical_cuts = 0;  // the frame layer stopped early
  int clean = 0;
};

template <class Meta, class Record>
void CheckMutants(const harness::JournalFormat<Meta, Record>& format,
                  const std::vector<Frame>& base, std::uint64_t seed,
                  const std::string& path, Tally& tally) {
  Rng rng(seed);
  for (int m = 0; m < kMutantsPerJournal; ++m) {
    const std::string bytes = Mutate(base, rng);
    SCOPED_TRACE("mutant " + std::to_string(m));
    WriteFile(path, bytes);
    typename harness::JournalFormat<Meta, Record>::Load load;
    ASSERT_NO_THROW(load = format.Read(path));
    ASSERT_LE(load.valid_prefix_bytes, bytes.size());
    ASSERT_EQ(load.torn_bytes, bytes.size() - load.valid_prefix_bytes);
    ASSERT_EQ(load.torn_tail, load.torn_bytes > 0);
    ASSERT_TRUE(load.meta_valid || load.records.empty());
    if (!load.torn_tail) {
      ++tally.clean;
    } else if (!load.notes.empty() &&
               load.notes[0].rfind("cut at byte", 0) == 0) {
      ++tally.content_cuts;
    } else {
      ++tally.physical_cuts;
    }

    // The valid prefix alone reloads to the same journal, cleanly.
    WriteFile(path, bytes.substr(0, load.valid_prefix_bytes));
    typename harness::JournalFormat<Meta, Record>::Load again;
    ASSERT_NO_THROW(again = format.Read(path));
    ASSERT_FALSE(again.torn_tail);
    ASSERT_EQ(again.meta_valid, load.meta_valid);
    ASSERT_EQ(again.records.size(), load.records.size());
    for (std::size_t i = 0; i < load.records.size(); ++i)
      ASSERT_EQ(format.encode_record(again.records[i]),
                format.encode_record(load.records[i]));
  }
  std::remove(path.c_str());
}

TEST(JournalMutation, SubmissionJournalSurvivesSeededMutations) {
  const std::vector<Frame> base = {
      {"meta", harness::EncodeMeta(TestMeta())},
      {"rec", harness::EncodeTaskRecord(FullTask("image_classification"))},
      {"rec", harness::EncodeTaskRecord(HostileTask("object_detection"))}};
  Tally tally;
  CheckMutants(harness::kSubmissionJournal, base, 0x5EED0001,
               TmpPath("mutant_submission.mjl"), tally);
  // The mutations reach both the decoders and the frame layer.
  EXPECT_GT(tally.content_cuts, kMutantsPerJournal / 10);
  EXPECT_GT(tally.physical_cuts, 0);
  EXPECT_GT(tally.clean, 0);
}

TEST(JournalMutation, FleetJournalSurvivesSeededMutations) {
  const std::vector<Frame> base = {
      {"meta", fleet::EncodeFleetMeta(TestFleetMeta())},
      {"shard", fleet::EncodeShardResult(HostileShard(0))},
      {"shard", fleet::EncodeShardResult(HostileShard(3))},
      {"shard", fleet::EncodeShardResult(HostileShard(1))}};
  Tally tally;
  CheckMutants(fleet::kFleetJournal, base, 0x5EED0002,
               TmpPath("mutant_fleet.mjl"), tally);
  EXPECT_GT(tally.content_cuts, kMutantsPerJournal / 10);
  EXPECT_GT(tally.physical_cuts, 0);
  EXPECT_GT(tally.clean, 0);
}

// The unmutated journals load whole: the harness starts from valid files.
TEST(JournalMutation, BaseJournalsLoadClean) {
  const std::string path = TmpPath("mutant_base.mjl");
  WriteFile(path, Serialize({{"meta", harness::EncodeMeta(TestMeta())},
                             {"rec", harness::EncodeTaskRecord(
                                         FullTask("image_classification"))}}));
  const harness::SubmissionJournal::Load load =
      harness::kSubmissionJournal.Read(path);
  EXPECT_TRUE(load.meta_valid);
  EXPECT_FALSE(load.torn_tail);
  EXPECT_EQ(load.records.size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlpm
