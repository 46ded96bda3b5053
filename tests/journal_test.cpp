// Tests for the crash-safe journals (harness/journal.h, fleet/journal.h):
// codec round trips for every record type (bit-exact doubles), golden
// payloads pinning the on-disk format, pinned run-config digests, range
// checks on enum and narrowed fields, hostile element counts, writer/loader
// file round trips, the torn-write property (truncation at every byte
// offset of the last record recovers the longest valid prefix), corruption
// containment, and the headline crash/resume contract — a killed-and-resumed
// submission report is byte-identical to an uninterrupted same-seed run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/app.h"
#include "harness/export.h"
#include "harness/report.h"
#include "journal_fixtures.h"

namespace mlpm::harness {
namespace {

using journal_fixtures::FullTask;
using journal_fixtures::HostileShard;
using journal_fixtures::HostileTask;
using journal_fixtures::TestFleetMeta;
using journal_fixtures::TestMeta;

std::string TmpPath(const std::string& name) {
  std::string p = testing::TempDir();
  if (!p.empty() && p.back() != '/') p += '/';
  return p + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Golden payloads of FullTask("ic_tf") and HostileShard(7).  The on-disk
// format is fixed: journals written by earlier builds must keep resuming.
const std::string kTaskGolden = R"golden(s task 5
ic_tf
u numerics 3
s framework 23
TF,Lite "nightly"
build
s accelerator 9
npu + dsp
d accuracy 0x1.5555555555555p-2
d fp32_reference 0x1.999999999999ap-4
d ratio_to_fp32 0x1.fffffffffffffp-1
b quality_passed 1
U calibration_indices 5 3 1 4 1 5
u accuracy_sample_count 128
u dataset_size 128
s single_stream 645
u scenario 0
u mode 0
D latencies_s 3 0x1.0624dd2f1a9fcp-10 0x1.2492492492492p-3 0x1.5p-3
d duration_s 0x1.f9add37c1215ep-4
u sample_count 3
d percentile_latency_s 0x1.fffffffffffffp-7
d mean_latency_s 0x0.0000000000001p-1022
d throughput_sps 0x0p+0
b min_duration_met 0
b min_query_count_met 0
b latency_bound_met 0
b shed_bound_met 1
u dropped_count 0
u timed_out_count 0
u duplicate_count 0
u unknown_count 0
u shed_count 0
u rejected_count 0
u issued_count 0
L error_log 2
17
query 7 timed out
16
line
with
breaks
s invalid_reason 0

s log 97
mlpm_loadgen_log v1
field seed 123
issue 1 0.500000000
shed 2 0.600000000
rejected 1 0.700000000


s offline 675
u scenario 2
u mode 1
D latencies_s 3 0x1.0624dd2f1a9fcp-10 0x1.2492492492492p-3 0x1.5p-3
d duration_s 0x1.f9add37c1215ep-4
u sample_count 3
d percentile_latency_s 0x1.fffffffffffffp-7
d mean_latency_s 0x0.0000000000001p-1022
d throughput_sps 0x1.88p+4
b min_duration_met 1
b min_query_count_met 1
b latency_bound_met 1
b shed_bound_met 0
u dropped_count 1
u timed_out_count 2
u duplicate_count 3
u unknown_count 4
u shed_count 5
u rejected_count 6
u issued_count 7
L error_log 2
17
query 7 timed out
16
line
with
breaks
s invalid_reason 26
stalled SUT
no completions
s log 97
mlpm_loadgen_log v1
field seed 123
issue 1 0.500000000
shed 2 0.600000000
rejected 1 0.700000000


d energy_per_inference_j 0x1.426fe718a86d7p-10
d peak_temperature_c 0x1.5cp+5
u peak_arena_bytes 1048576
u naive_activation_bytes 4194304
u status 1
s status_detail 13
retried twice
u fault_count 5
u degradation_count 2
u shed_count 7
u rejected_count 3
u breaker_trips 1
b degraded_to_cpu 1
u performance_attempts 2
s fault_log 45
fault stall q=1
breaker closed->open query=9

u lint_error_count 1
u lint_warning_count 4
s lint_log 19
warning: something

s kernel_isa 4
avx2
b transform_requested 1
b transform_applied 1
s transform_passes 43
split-activations,constant-fold
with
breaks
u transform_rewrites 42
u transform_nodes_before 103
u transform_nodes_after 70
s transform_detail 36
equivalence probe failed on sample 0
b tiling_requested 1
b tiling_applied 1
u tile_segments 19
u tile_rows 18446744073709551615
u tile_slab_bytes 465920
)golden";
const std::string kShardGolden = R"golden(u shard_id 7
s chipset 14
Snapdragon 888
s task_id 5
ic_tf
u numerics 3
s config_key 25
v1.0|ic_tf|Snapdragon 888
u state 2
b slo_met 1
u breaker_trips 2
u fault_count 9
d energy_j 0x1.5555555555555p-2
d peak_temperature_c 0x1.9ap+5
d accuracy 0x1.6a09e667f3bcdp-1
d fp32_reference 0x1.8p-1
d ratio_to_fp32 0x1.e2b7dddfefa67p-1
b quality_passed 1
s result 675
u scenario 2
u mode 1
D latencies_s 3 0x1.0624dd2f1a9fcp-10 0x1.2492492492492p-3 0x1.5p-3
d duration_s 0x1.f9add37c1215ep-4
u sample_count 3
d percentile_latency_s 0x1.fffffffffffffp-7
d mean_latency_s 0x0.0000000000001p-1022
d throughput_sps 0x1.88p+4
b min_duration_met 1
b min_query_count_met 1
b latency_bound_met 1
b shed_bound_met 0
u dropped_count 1
u timed_out_count 2
u duplicate_count 3
u unknown_count 4
u shed_count 5
u rejected_count 6
u issued_count 7
L error_log 2
17
query 7 timed out
16
line
with
breaks
s invalid_reason 26
stalled SUT
no completions
s log 97
mlpm_loadgen_log v1
field seed 123
issue 1 0.500000000
shed 2 0.600000000
rejected 1 0.700000000


)golden";

TEST(Journal, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Journal, TaskRecordRoundTripsBitExact) {
  const TaskRunResult original = HostileTask("ic_tf");
  const TaskRunResult decoded = DecodeTaskRecord(EncodeTaskRecord(original));

  EXPECT_EQ(decoded.entry.id, original.entry.id);
  EXPECT_EQ(decoded.numerics, original.numerics);
  EXPECT_EQ(decoded.framework_name, original.framework_name);
  EXPECT_EQ(decoded.accelerator_label, original.accelerator_label);
  // Bit-exact double round trip (hexfloat encoding), including values with
  // no finite decimal form and the smallest denormal.
  EXPECT_EQ(decoded.accuracy, original.accuracy);
  EXPECT_EQ(decoded.fp32_reference, original.fp32_reference);
  EXPECT_EQ(decoded.ratio_to_fp32, original.ratio_to_fp32);
  EXPECT_EQ(decoded.calibration_indices, original.calibration_indices);

  ASSERT_TRUE(decoded.single_stream.has_value());
  const loadgen::TestResult& a = *decoded.single_stream;
  const loadgen::TestResult& b = *original.single_stream;
  EXPECT_EQ(a.sample_count, b.sample_count);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.percentile_latency_s, b.percentile_latency_s);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.latencies_s, b.latencies_s);
  EXPECT_EQ(a.error_log, b.error_log);
  EXPECT_EQ(a.log.Serialize(), b.log.Serialize());
  EXPECT_FALSE(decoded.offline.has_value());

  EXPECT_EQ(decoded.status, original.status);
  EXPECT_EQ(decoded.status_detail, original.status_detail);
  EXPECT_EQ(decoded.shed_count, original.shed_count);
  EXPECT_EQ(decoded.rejected_count, original.rejected_count);
  EXPECT_EQ(decoded.breaker_trips, original.breaker_trips);
  EXPECT_EQ(decoded.degraded_to_cpu, original.degraded_to_cpu);
  EXPECT_EQ(decoded.performance_attempts, original.performance_attempts);
  EXPECT_EQ(decoded.fault_log, original.fault_log);
  EXPECT_EQ(decoded.lint_warning_count, original.lint_warning_count);
  EXPECT_EQ(decoded.lint_log, original.lint_log);
  EXPECT_EQ(decoded.kernel_isa, original.kernel_isa);
  EXPECT_EQ(decoded.transform_requested, original.transform_requested);
  EXPECT_EQ(decoded.transform_applied, original.transform_applied);
  EXPECT_EQ(decoded.transform_passes, original.transform_passes);
  EXPECT_EQ(decoded.transform_rewrites, original.transform_rewrites);
  EXPECT_EQ(decoded.transform_nodes_before, original.transform_nodes_before);
  EXPECT_EQ(decoded.transform_nodes_after, original.transform_nodes_after);
  EXPECT_EQ(decoded.transform_detail, original.transform_detail);
  EXPECT_EQ(decoded.tiling_requested, original.tiling_requested);
  EXPECT_EQ(decoded.tiling_applied, original.tiling_applied);
  EXPECT_EQ(decoded.tile_segments, original.tile_segments);
  EXPECT_EQ(decoded.tile_rows, original.tile_rows);
  EXPECT_EQ(decoded.tile_slab_bytes, original.tile_slab_bytes);
}

TEST(Journal, MetaRoundTrips) {
  const JournalMeta m = TestMeta();
  const JournalMeta back = DecodeMeta(EncodeMeta(m));
  EXPECT_TRUE(back.Matches(m));
  const fleet::FleetJournalMeta fm = TestFleetMeta();
  EXPECT_TRUE(fleet::DecodeFleetMeta(fleet::EncodeFleetMeta(fm)).Matches(fm));
}

// Every record type, every field set to a non-default value: decoding and
// re-encoding reproduces the payload, so no field is dropped on the way
// back in.
TEST(JournalCodec, EveryRecordTypeRoundTripsWithEveryFieldSet) {
  const std::string task = EncodeTaskRecord(FullTask("ic_tf"));
  EXPECT_EQ(EncodeTaskRecord(DecodeTaskRecord(task)), task);
  const std::string meta = EncodeMeta(TestMeta());
  EXPECT_EQ(EncodeMeta(DecodeMeta(meta)), meta);
  const std::string fleet_meta = fleet::EncodeFleetMeta(TestFleetMeta());
  EXPECT_EQ(fleet::EncodeFleetMeta(fleet::DecodeFleetMeta(fleet_meta)),
            fleet_meta);

  const fleet::ShardResult original = HostileShard(7);
  const std::string shard = fleet::EncodeShardResult(original);
  const fleet::ShardResult decoded = fleet::DecodeShardResult(shard);
  EXPECT_EQ(fleet::EncodeShardResult(decoded), shard);
  EXPECT_EQ(decoded.shard_id, original.shard_id);
  EXPECT_EQ(decoded.chipset, original.chipset);
  EXPECT_EQ(decoded.task_id, original.task_id);
  EXPECT_EQ(decoded.numerics, original.numerics);
  EXPECT_EQ(decoded.config_key, original.config_key);
  EXPECT_EQ(decoded.state, original.state);
  EXPECT_EQ(decoded.slo_met, original.slo_met);
  EXPECT_EQ(decoded.breaker_trips, original.breaker_trips);
  EXPECT_EQ(decoded.fault_count, original.fault_count);
  EXPECT_EQ(decoded.energy_j, original.energy_j);
  EXPECT_EQ(decoded.peak_temperature_c, original.peak_temperature_c);
  EXPECT_EQ(decoded.accuracy, original.accuracy);
  EXPECT_EQ(decoded.fp32_reference, original.fp32_reference);
  EXPECT_EQ(decoded.ratio_to_fp32, original.ratio_to_fp32);
  EXPECT_EQ(decoded.quality_passed, original.quality_passed);
  const loadgen::TestResult& a = decoded.result;
  const loadgen::TestResult& b = original.result;
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.latencies_s, b.latencies_s);
  EXPECT_EQ(a.throughput_sps, b.throughput_sps);
  EXPECT_EQ(a.min_duration_met, b.min_duration_met);
  EXPECT_EQ(a.min_query_count_met, b.min_query_count_met);
  EXPECT_EQ(a.latency_bound_met, b.latency_bound_met);
  EXPECT_EQ(a.shed_bound_met, b.shed_bound_met);
  EXPECT_EQ(a.dropped_count, b.dropped_count);
  EXPECT_EQ(a.timed_out_count, b.timed_out_count);
  EXPECT_EQ(a.duplicate_count, b.duplicate_count);
  EXPECT_EQ(a.unknown_count, b.unknown_count);
  EXPECT_EQ(a.shed_count, b.shed_count);
  EXPECT_EQ(a.rejected_count, b.rejected_count);
  EXPECT_EQ(a.issued_count, b.issued_count);
  EXPECT_EQ(a.invalid_reason, b.invalid_reason);
  EXPECT_EQ(a.log.Serialize(), b.log.Serialize());
  EXPECT_FALSE(decoded.resumed);  // run-local, never journaled
}

TEST(JournalCodec, PayloadsMatchTheGoldenFormat) {
  EXPECT_EQ(EncodeTaskRecord(FullTask("ic_tf")), kTaskGolden);
  EXPECT_EQ(fleet::EncodeShardResult(HostileShard(7)), kShardGolden);
  EXPECT_EQ(EncodeTaskRecord(DecodeTaskRecord(kTaskGolden)), kTaskGolden);
  EXPECT_EQ(fleet::EncodeShardResult(fleet::DecodeShardResult(kShardGolden)),
            kShardGolden);
}

// Submission journals already on disk must keep resuming, so these digests
// never change.
TEST(JournalCodec, HashRunConfigIsPinned) {
  const soc::ChipsetDesc sd888 = soc::Snapdragon888();
  const models::SuiteVersion v10 = models::SuiteVersion::kV1_0;
  RunOptions plain;
  EXPECT_EQ(HashRunConfig(sd888, v10, plain), 0x81d36954dacdd56aULL);

  RunOptions faults;  // what headless_cli --faults 0.2 sets
  soc::FaultPlan plan;
  plan.DriverCrashes(0.2);
  faults.fault_plan = plan;
  faults.performance_settings.query_timeout = loadgen::Seconds{10.0};
  EXPECT_EQ(HashRunConfig(sd888, v10, faults), 0x3b9d2e0f44a994daULL);

  RunOptions breaker;
  breaker.circuit_breaker = backends::CircuitBreakerOptions{};
  EXPECT_EQ(HashRunConfig(sd888, v10, breaker), 0xf5faf8ba263fd87cULL);
}

TEST(Journal, DecodeRejectsGarbage) {
  EXPECT_THROW((void)DecodeTaskRecord("not a record"), CheckError);
  EXPECT_THROW((void)DecodeMeta("u seed not-a-number\n"), CheckError);
  EXPECT_THROW((void)DecodeMeta("u seed -1\n"), CheckError);
  // Required keys: the task id, the submission meta's chipset and version,
  // the fleet meta's version and shard_count.
  EXPECT_THROW((void)DecodeTaskRecord("u numerics 2\n"), CheckError);
  EXPECT_THROW((void)DecodeTaskRecord("s task 0\n\n"), CheckError);
  EXPECT_THROW((void)DecodeMeta("s version 4\nv1.0\n"), CheckError);
  // Neither meta decodes as the other (mlpm_journal tells them apart so).
  EXPECT_THROW((void)DecodeMeta(fleet::EncodeFleetMeta(TestFleetMeta())),
               CheckError);
  EXPECT_THROW((void)fleet::DecodeFleetMeta(EncodeMeta(TestMeta())),
               CheckError);
  // A known key under another tag is damage; unknown keys are skipped.
  EXPECT_THROW((void)DecodeTaskRecord("s task 2\nic\nu framework 5\n"),
               CheckError);
  EXPECT_EQ(DecodeTaskRecord("u future_key 9\ns task 2\nic\n").entry.id,
            "ic");
}

// Element counts and block lengths are checked against the bytes left in
// the payload before anything is allocated: a hostile count is a
// CheckError, never a std::bad_alloc or a read past the payload.
TEST(JournalCodec, HostileCountsThrowCheckError) {
  for (const std::string payload :
       {"D latencies_s 1000000000000\n", "D latencies_s 2 0x1p+0\n",
        "U calibration_indices 18446744073709551615 1\n",
        "L error_log 1000000000\n1\nx\n",
        "s task 18446744073709551615\nic\n", "s task 18446744073709551614\n",
        "s task 3\nic\n",
        // A length that wraps pos + len + 1 around to exactly the end.
        "s task 2\nic\ns framework 18446744073709551615\n"}) {
    SCOPED_TRACE(payload);
    EXPECT_THROW((void)DecodeTaskRecord(payload), CheckError);
  }
}

// A crafted fleet journal: checksum-clean frames, one shard asking for
// 10^12 latencies.  The loader cuts it with a note instead of
// letting std::bad_alloc escape (headless_cli --resume and mlpm_journal
// both go through this loader).
TEST(JournalCodec, CraftedFleetJournalIsCutNotAllocated) {
  const std::string path = MLPM_TEST_DATA_DIR "/crafted_fleet.journal";
  const std::string bytes = ReadFile(path);
  ASSERT_FALSE(bytes.empty());
  const fleet::FleetJournal::Load load = fleet::kFleetJournal.Read(path);
  EXPECT_TRUE(load.meta_valid);
  EXPECT_EQ(load.meta.shard_count, 4u);
  EXPECT_TRUE(load.records.empty());
  EXPECT_TRUE(load.torn_tail);
  EXPECT_EQ(load.valid_prefix_bytes, bytes.find("shard "));
  ASSERT_EQ(load.notes.size(), 1u);
  EXPECT_NE(load.notes[0].find("latencies_s"), std::string::npos);
}

// A checksum-valid record whose enum or narrowed field is out of range is
// cut by the loader (and the control, unmutated, loads).
TEST(JournalCodec, OutOfRangeFieldsCutTheRecord) {
  struct Case {
    bool fleet;
    std::string from;
    std::string to;
  };
  const std::vector<Case> cases = {
      {false, "u numerics 3\n", "u numerics 5\n"},
      {false, "u status 1\n", "u status 4\n"},
      {false, "u performance_attempts 2\n",
       "u performance_attempts 2147483648\n"},
      {false, "b quality_passed 1\n", "b quality_passed 2\n"},
      {false, "u scenario 0\n", "u scenario 4\n"},  // nested single_stream
      {false, "u mode 0\n", "u mode 2\n"},
      {true, "u numerics 3\n", "u numerics 5\n"},
      {true, "u state 2\n", "u state 4\n"},
      {true, "u scenario 2\n", "u scenario 4\n"},  // nested result
  };
  const std::string path = TmpPath("journal_out_of_range.mjl");
  for (const Case& c : cases) {
    for (const bool mutate : {false, true}) {
      SCOPED_TRACE(c.to + (mutate ? "" : " (control)"));
      std::string payload = c.fleet ? kShardGolden : kTaskGolden;
      const std::size_t at = payload.find(c.from);
      ASSERT_NE(at, std::string::npos);
      if (mutate) payload.replace(at, c.from.size(), c.to);

      FrameLogWriter log = FrameLogWriter::Create(path);
      log.AppendFrame("meta", c.fleet ? fleet::EncodeFleetMeta(TestFleetMeta())
                                      : EncodeMeta(TestMeta()));
      const std::size_t record_offset = ReadFile(path).size();
      log.AppendFrame(c.fleet ? "shard" : "rec", payload);

      const JournalState state =
          c.fleet ? JournalState(fleet::kFleetJournal.Read(path))
                  : JournalState(kSubmissionJournal.Read(path));
      EXPECT_TRUE(state.meta_valid);
      EXPECT_EQ(state.torn_tail, mutate);
      if (mutate) {
        EXPECT_EQ(state.valid_prefix_bytes, record_offset);
        ASSERT_EQ(state.notes.size(), 1u);
        EXPECT_NE(state.notes[0].find("out of range"), std::string::npos)
            << state.notes[0];
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Journal, WriterThenLoaderRoundTripsAFile) {
  const std::string path = TmpPath("journal_roundtrip.mjl");
  std::remove(path.c_str());
  {
    auto w = kSubmissionJournal.Create(path, TestMeta());
    w->Append(HostileTask("ic_tf"));
    w->Append(HostileTask("od_ssd"));
  }
  const SubmissionJournal::Load load = kSubmissionJournal.Read(path);
  EXPECT_TRUE(load.meta_valid);
  EXPECT_TRUE(load.meta.Matches(TestMeta()));
  EXPECT_FALSE(load.torn_tail);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0].entry.id, "ic_tf");
  EXPECT_EQ(load.records[1].entry.id, "od_ssd");
  std::remove(path.c_str());
}

TEST(Journal, MissingFileIsNotValid) {
  const SubmissionJournal::Load load =
      kSubmissionJournal.Read(TmpPath("does_not_exist.mjl"));
  EXPECT_FALSE(load.meta_valid);
  EXPECT_TRUE(load.records.empty());
  EXPECT_FALSE(load.torn_tail);
}

// The torn-write property: truncate the file at *every* byte offset inside
// the last record's frame.  Whatever the cut, the loader must recover
// exactly the earlier record, flag the tail, and a resuming writer must be
// able to cut the tail and append successfully.
TEST(Journal, TruncationAtEveryByteOffsetOfLastRecordRecovers) {
  const std::string path = TmpPath("journal_torn.mjl");
  std::remove(path.c_str());
  std::size_t first_record_end = 0;
  {
    auto w = kSubmissionJournal.Create(path, TestMeta());
    w->Append(HostileTask("ic_tf"));
    first_record_end = ReadFile(path).size();
    w->Append(HostileTask("od_ssd"));
  }
  const std::string full = ReadFile(path);
  ASSERT_GT(full.size(), first_record_end);

  const std::string torn_path = TmpPath("journal_torn_cut.mjl");
  for (std::size_t cut = first_record_end; cut < full.size(); ++cut) {
    WriteFile(torn_path, full.substr(0, cut));
    const SubmissionJournal::Load load = kSubmissionJournal.Read(torn_path);
    ASSERT_TRUE(load.meta_valid) << "cut at " << cut;
    ASSERT_EQ(load.records.size(), 1u) << "cut at " << cut;
    ASSERT_EQ(load.records[0].entry.id, "ic_tf") << "cut at " << cut;
    ASSERT_EQ(load.torn_tail, cut != first_record_end) << "cut at " << cut;
    ASSERT_EQ(load.valid_prefix_bytes, first_record_end) << "cut at " << cut;

    // A resuming writer cuts the tail and appends cleanly.
    kSubmissionJournal.Resume(torn_path, load.valid_prefix_bytes)
        ->Append(HostileTask("od_ssd"));
    const SubmissionJournal::Load healed = kSubmissionJournal.Read(torn_path);
    ASSERT_EQ(healed.records.size(), 2u) << "cut at " << cut;
    ASSERT_FALSE(healed.torn_tail) << "cut at " << cut;
  }
  std::remove(path.c_str());
  std::remove(torn_path.c_str());
}

TEST(Journal, CorruptedRecordInvalidatesOnlyTheSuffix) {
  const std::string path = TmpPath("journal_corrupt.mjl");
  std::remove(path.c_str());
  std::size_t first_record_end = 0;
  {
    auto w = kSubmissionJournal.Create(path, TestMeta());
    w->Append(HostileTask("ic_tf"));
    first_record_end = ReadFile(path).size();
    w->Append(HostileTask("od_ssd"));
  }
  std::string bytes = ReadFile(path);
  // Flip one byte inside the *second* record's frame.
  bytes[first_record_end + 1] ^= 0x01;
  WriteFile(path, bytes);
  const SubmissionJournal::Load load = kSubmissionJournal.Read(path);
  EXPECT_TRUE(load.meta_valid);
  EXPECT_EQ(load.records.size(), 1u);
  EXPECT_TRUE(load.torn_tail);
  EXPECT_FALSE(load.notes.empty());
  std::remove(path.c_str());
}

// The resume policy RunSubmission and RunFleet share: a journal whose meta
// belongs to another run is not resumed; a fresh one replaces it.
TEST(Journal, ResumeWithMismatchedMetaStartsFresh) {
  const std::string path = TmpPath("journal_mismatch.mjl");
  std::remove(path.c_str());
  kSubmissionJournal.Create(path, TestMeta())->Append(HostileTask("ic_tf"));
  JournalMeta other = TestMeta();
  other.seed = 999;  // different run configuration
  SubmissionJournal::Opened opened =
      kSubmissionJournal.Open(path, other, /*resume=*/true);
  EXPECT_TRUE(opened.replay.records.empty());
  ASSERT_NE(opened.writer, nullptr);
  opened.writer->Append(HostileTask("od_ssd"));
  const SubmissionJournal::Load load = kSubmissionJournal.Read(path);
  EXPECT_TRUE(load.meta_valid);
  EXPECT_TRUE(load.meta.Matches(other));
  ASSERT_EQ(load.records.size(), 1u);  // old records discarded
  EXPECT_EQ(load.records[0].entry.id, "od_ssd");
  std::remove(path.c_str());
}

TEST(Journal, ResumeWithMatchingMetaReplaysAndAppends) {
  const std::string path = TmpPath("journal_match.mjl");
  std::remove(path.c_str());
  kSubmissionJournal.Create(path, TestMeta())->Append(HostileTask("ic_tf"));
  const std::size_t intact = ReadFile(path).size();
  WriteFile(path, ReadFile(path) + "rec 9 0");  // a torn append
  SubmissionJournal::Opened opened =
      kSubmissionJournal.Open(path, TestMeta(), /*resume=*/true);
  ASSERT_EQ(opened.replay.records.size(), 1u);
  EXPECT_EQ(opened.replay.records[0].entry.id, "ic_tf");
  EXPECT_EQ(opened.replay.valid_prefix_bytes, intact);
  opened.writer->Append(HostileTask("od_ssd"));
  const SubmissionJournal::Load load = kSubmissionJournal.Read(path);
  EXPECT_FALSE(load.torn_tail);  // the torn append was cut
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[1].entry.id, "od_ssd");

  // Without resume, even a matching journal is replaced.
  opened = kSubmissionJournal.Open(path, TestMeta(), /*resume=*/false);
  EXPECT_TRUE(opened.replay.records.empty());
  opened.writer.reset();
  EXPECT_TRUE(kSubmissionJournal.Read(path).records.empty());
  std::remove(path.c_str());
}

// A journal path that exists but cannot be read (here a directory) is
// reported as unreadable, and resume refuses it rather than replacing it.
TEST(Journal, ResumeRefusesAnUnreadableJournal) {
  const std::string path = testing::TempDir();
  const SubmissionJournal::Load load = kSubmissionJournal.Read(path);
  EXPECT_TRUE(load.unreadable);
  EXPECT_FALSE(load.meta_valid);
  ASSERT_FALSE(load.notes.empty());
  EXPECT_THROW((void)kSubmissionJournal.Open(path, TestMeta(), true),
               CheckError);
  EXPECT_FALSE(
      kSubmissionJournal.Read(TmpPath("does_not_exist.mjl")).unreadable);
}

// ---- crash / resume integration ----

SuiteBundles& Bundles() {
  static SuiteBundles bundles;
  return bundles;
}

RunOptions FastPerfOptions() {
  RunOptions o;
  o.run_accuracy = false;
  o.performance_settings.min_query_count = 64;
  o.performance_settings.min_duration = loadgen::Seconds{0.5};
  o.performance_settings.offline_sample_count = 2048;
  o.cooldown_s = 30.0;
  return o;
}

TEST(JournalResume, KilledRunResumesToAByteIdenticalReport) {
  // Baseline: an uninterrupted run.
  const SubmissionResult baseline =
      RunSubmission(soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(),
                    FastPerfOptions());
  ASSERT_EQ(baseline.tasks.size(), 4u);

  // "Kill" the run after two tasks via cooperative cancellation (the CLI's
  // SIGINT handler drives the same RunOptions::cancel hook).
  const std::string path = TmpPath("journal_resume.mjl");
  std::remove(path.c_str());
  RunOptions interrupted_opts = FastPerfOptions();
  interrupted_opts.journal_path = path;
  int checks = 0;
  interrupted_opts.cancel = [&checks] { return ++checks > 2; };
  const SubmissionResult interrupted =
      RunSubmission(soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(),
                    interrupted_opts);
  EXPECT_TRUE(interrupted.interrupted);
  ASSERT_EQ(interrupted.tasks.size(), 2u);
  // The partial report says so explicitly.
  EXPECT_NE(FormatSubmission(interrupted).find("run state: interrupted"),
            std::string::npos);

  // Resume from the journal: the two finished tasks replay from disk, the
  // other two run now.
  RunOptions resume_opts = FastPerfOptions();
  resume_opts.journal_path = path;
  resume_opts.resume = true;
  const SubmissionResult resumed =
      RunSubmission(soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(),
                    resume_opts);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed_tasks, 2u);
  ASSERT_EQ(resumed.tasks.size(), 4u);

  // The headline contract: report and CSV are byte-identical to the
  // uninterrupted run.
  EXPECT_EQ(FormatSubmission(resumed), FormatSubmission(baseline));
  EXPECT_EQ(ToCsv(resumed), ToCsv(baseline));
  std::remove(path.c_str());
}

TEST(JournalResume, ResumeIgnoresJournalFromDifferentConfig) {
  const std::string path = TmpPath("journal_other_config.mjl");
  std::remove(path.c_str());
  RunOptions first = FastPerfOptions();
  first.journal_path = path;
  int checks = 0;
  first.cancel = [&checks] { return ++checks > 1; };
  (void)RunSubmission(soc::Exynos2100(), models::SuiteVersion::kV1_0,
                      Bundles(), first);

  // Same journal path, different seed: nothing may replay.
  RunOptions second = FastPerfOptions();
  second.journal_path = path;
  second.resume = true;
  second.performance_settings.seed = 4242;
  const SubmissionResult r = RunSubmission(
      soc::Exynos2100(), models::SuiteVersion::kV1_0, Bundles(), second);
  EXPECT_EQ(r.resumed_tasks, 0u);
  EXPECT_EQ(r.tasks.size(), 4u);

  // The first run's journal was replaced, not appended to: the file holds
  // the second run's meta and exactly its four records.
  const SubmissionJournal::Load load = kSubmissionJournal.Read(path);
  ASSERT_TRUE(load.meta_valid);
  EXPECT_EQ(load.meta.seed, 4242u);
  EXPECT_EQ(load.meta.config_hash,
            HashRunConfig(soc::Exynos2100(), models::SuiteVersion::kV1_0,
                          second));
  EXPECT_FALSE(load.torn_tail);
  ASSERT_EQ(load.records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(load.records[i].entry.id, r.tasks[i].entry.id);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlpm::harness
