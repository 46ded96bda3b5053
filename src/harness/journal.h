// Crash-safe journals (DESIGN.md §12, §16): an append-only write-ahead log
// on the frame log (harness/frame_log.h) holding one `meta` frame — the
// identity of the run it belongs to — then one fsync'd, checksummed record
// frame per finished unit of work, so a run killed midway can resume where
// it stopped instead of starting over.  Two journals share this layer:
//
//   submission journal (kSubmissionJournal): `rec` frames, one per suite
//     task (TaskRunResult);
//   fleet journal (fleet::kFleetJournal): `shard` frames, one per fleet
//     shard (fleet::ShardResult).
//
//   mlpm_journal v1\n
//   meta <len> <fnv64-hex>\n
//   <len bytes of meta payload>\n
//   rec|shard <len> <fnv64-hex>\n
//   <len bytes of record payload>\n
//   ... more record frames ...
//
// Each payload is written and read through the record type's one field
// list (wire::Encode / wire::Decode), so every journaled key, its tag and
// its member are spelled once.  Doubles are hexfloats and round-trip
// bit-exactly: a replayed record reproduces the original report byte for
// byte.
//
// Durability contract: a record is flushed *and* fsync'd before Append
// returns, so a record is either completely on disk or it is the torn tail
// the loader truncates.  The loader never throws on a damaged file: it
// recovers the longest valid prefix and reports what it cut.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "harness/frame_log.h"
#include "harness/run_session.h"
#include "models/zoo.h"
#include "soc/chipset.h"

namespace mlpm::harness {

// ---- the one loader ----------------------------------------------------

// What the loader recovered from a journal file, whatever its record type.
struct JournalState {
  bool meta_valid = false;  // header + meta frame intact and decodable
  // The file exists but could not be read at all (an I/O error, a
  // directory, a file too large for memory); Open refuses to resume it.
  bool unreadable = false;
  // Bytes past the valid prefix: a torn append, corruption, or a frame
  // that is checksum-clean but does not decode.
  bool torn_tail = false;
  std::size_t torn_bytes = 0;
  // Offset where the valid prefix ends; a resuming writer truncates here.
  std::size_t valid_prefix_bytes = 0;
  // Human-readable findings.  When a frame is cut for its content, its note
  // replaces the physical-damage notes, which describe bytes past the cut.
  std::vector<std::string> notes;
};

// Interprets the intact frames of the log at `path`: the first must be a
// `meta` frame (passed to `decode_meta`), every later one a `record_kind`
// frame (passed to `decode_record`).  A frame of the wrong kind, or one
// whose decoder throws, ends the valid prefix right before it.  Never
// throws: a file that cannot be read comes back `unreadable`.
[[nodiscard]] JournalState ScanJournal(
    const std::string& path, std::string_view record_kind,
    const std::function<void(const std::string&)>& decode_meta,
    const std::function<void(const std::string&)>& decode_record);

template <class Meta, class Record>
struct JournalLoad : JournalState {
  Meta meta;
  std::vector<Record> records;  // decoded from intact frames, file order
};

template <class Meta, class Record>
struct JournalFormat;

// ---- the one writer ----------------------------------------------------

// Append-side handle from JournalFormat::Open, ::Create or ::Resume.
// Append is safe to call from several threads (fleet shards finish on
// workers) and is flushed and fsync'd before it returns.
template <class Meta, class Record>
class JournalWriter {
 public:
  JournalWriter(const JournalFormat<Meta, Record>& format, FrameLogWriter log)
      : format_(format), log_(std::move(log)) {}

  void Append(const Record& record) {
    const std::string payload = format_.encode_record(record);
    std::scoped_lock lock(mu_);
    log_.AppendFrame(format_.record_kind, payload);
  }

 private:
  const JournalFormat<Meta, Record>& format_;  // a static journal format
  std::mutex mu_;
  FrameLogWriter log_;  // guarded by mu_
};

// A journal type: its record frame kind and the payload codecs of its meta
// and records.  Instances are the static constants kSubmissionJournal and
// fleet::kFleetJournal.
template <class Meta, class Record>
struct JournalFormat {
  using Load = JournalLoad<Meta, Record>;
  using Writer = JournalWriter<Meta, Record>;

  std::string_view record_kind;
  std::string (*encode_meta)(const Meta&);
  Meta (*decode_meta)(const std::string&);
  std::string (*encode_record)(const Record&);
  Record (*decode_record)(const std::string&);

  // Reads the longest valid prefix of the journal at `path`.  Never
  // throws; a missing file yields an empty load.
  [[nodiscard]] Load Read(const std::string& path) const {
    Load load;
    static_cast<JournalState&>(load) = ScanJournal(
        path, record_kind,
        [&](const std::string& p) { load.meta = decode_meta(p); },
        [&](const std::string& p) {
          load.records.push_back(decode_record(p));
        });
    return load;
  }

  // Starts a fresh journal at `path` (truncating whatever was there) and
  // writes its meta frame.
  [[nodiscard]] std::unique_ptr<Writer> Create(const std::string& path,
                                               const Meta& meta) const {
    FrameLogWriter log = FrameLogWriter::Create(path);
    log.AppendFrame("meta", encode_meta(meta));
    return std::make_unique<Writer>(*this, std::move(log));
  }

  // Re-opens the journal at `path` for append after its valid prefix
  // (from Read), cutting any torn tail.
  [[nodiscard]] std::unique_ptr<Writer> Resume(
      const std::string& path, std::size_t valid_prefix_bytes) const {
    return std::make_unique<Writer>(
        *this, FrameLogWriter::OpenAt(path, valid_prefix_bytes));
  }

  struct Opened {
    Load replay;  // empty unless an existing journal was resumed
    std::unique_ptr<Writer> writer;
  };

  // The resume policy of every journaled run.  With `resume`, the journal
  // at `path` is read once; if its meta is intact and matches `meta`, the
  // writer continues after its valid prefix and `replay` holds its records.
  // Otherwise (no resume, a missing or damaged file, another run's
  // journal) a fresh journal replaces it.  A file that exists but cannot
  // be read is never replaced on resume: that throws CheckError.
  [[nodiscard]] Opened Open(const std::string& path, const Meta& meta,
                            bool resume) const {
    if (resume) {
      Load load = Read(path);
      Expects(!load.unreadable,
              "cannot resume: " + (load.notes.empty() ? path
                                                      : load.notes.front()));
      if (load.meta_valid && load.meta.Matches(meta)) {
        std::unique_ptr<Writer> writer = Resume(path, load.valid_prefix_bytes);
        return {std::move(load), std::move(writer)};
      }
    }
    return {Load{}, Create(path, meta)};
  }
};

// ---- config digests ----------------------------------------------------

// Canonical `key=value;` text of the settings that shape a run's results;
// its FNV-1a 64 digest is a journal meta's config_hash.  Doubles render as
// hexfloats, so equal settings always give equal text.
class ConfigText {
 public:
  void Add(std::string_view key, std::string_view value);
  void AddU(std::string_view key, std::uint64_t value);
  void AddD(std::string_view key, double value);
  void Add(const loadgen::TestSettings& settings);
  void Add(const soc::FaultPlan& plan);
  void Add(const backends::CircuitBreakerOptions& breaker);

  [[nodiscard]] std::uint64_t Hash() const { return Fnv1a64(text_); }

 private:
  std::string text_;
};

// ---- the submission journal --------------------------------------------

// Identity of the run configuration a journal belongs to.  A journal only
// resumes a run whose meta matches on every field: replaying a record from
// a different seed or config would silently mix incompatible results.
struct JournalMeta {
  std::string chipset;
  std::string version;  // ToString(models::SuiteVersion)
  std::uint64_t seed = 0;
  std::uint64_t config_hash = 0;

  [[nodiscard]] bool Matches(const JournalMeta& other) const {
    return chipset == other.chipset && version == other.version &&
           seed == other.seed && config_hash == other.config_hash;
  }
};

// Deterministic digest of everything that shapes a submission's results:
// chipset, suite version, LoadGen settings, fault plan, recovery and
// breaker options, run flags.  Observability knobs (profile/trace) and the
// accuracy-phase thread count are excluded — they never change results.
[[nodiscard]] std::uint64_t HashRunConfig(const soc::ChipsetDesc& chipset,
                                          models::SuiteVersion version,
                                          const RunOptions& options);

// The LoadGen result field list (every TestResult field except
// accuracy_outputs), nested in task and fleet shard records.
inline constexpr auto kTestResultFields = [](auto& v, auto& r) {
  v("scenario", r.scenario, loadgen::TestScenario::kMultiStream);
  v("mode", r.mode, loadgen::TestMode::kAccuracyOnly);
  v("latencies_s", r.latencies_s);
  v("duration_s", r.duration_s);
  v("sample_count", r.sample_count);
  v("percentile_latency_s", r.percentile_latency_s);
  v("mean_latency_s", r.mean_latency_s);
  v("throughput_sps", r.throughput_sps);
  v("min_duration_met", r.min_duration_met);
  v("min_query_count_met", r.min_query_count_met);
  v("latency_bound_met", r.latency_bound_met);
  v("shed_bound_met", r.shed_bound_met);
  v("dropped_count", r.dropped_count);
  v("timed_out_count", r.timed_out_count);
  v("duplicate_count", r.duplicate_count);
  v("unknown_count", r.unknown_count);
  v("shed_count", r.shed_count);
  v("rejected_count", r.rejected_count);
  v("issued_count", r.issued_count);
  v("error_log", r.error_log);
  v("invalid_reason", r.invalid_reason);
  v("log", r.log);
};

// Submission payload codecs.  Decoders throw CheckError on malformed
// payloads; a decoded task carries only entry.id (the caller rebinds the
// live suite entry).
[[nodiscard]] std::string EncodeTaskRecord(const TaskRunResult& tr);
[[nodiscard]] TaskRunResult DecodeTaskRecord(const std::string& payload);
[[nodiscard]] std::string EncodeMeta(const JournalMeta& meta);
[[nodiscard]] JournalMeta DecodeMeta(const std::string& payload);

using SubmissionJournal = JournalFormat<JournalMeta, TaskRunResult>;
inline constexpr SubmissionJournal kSubmissionJournal{
    "rec", &EncodeMeta, &DecodeMeta, &EncodeTaskRecord, &DecodeTaskRecord};

}  // namespace mlpm::harness
