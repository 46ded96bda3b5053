// Generic crash-safe frame log: the storage layer under the submission
// journal (DESIGN.md §12) and the fleet journal (§16).  A frame log is an
// append-only text file of checksummed frames,
//
//   mlpm_journal v1\n
//   <kind> <len> <fnv64-hex>\n
//   <len bytes of payload>\n
//   ...
//
// where `kind` names the frame type (the *interpretation* of kinds — which
// one must come first, what a payload decodes to — belongs to the journal
// layer, harness/journal.h).  `len` counts the payload bytes excluding the
// trailing newline and the checksum is FNV-1a 64 over exactly those bytes.
// Appends are flushed and fsync'd before returning; the loader never throws
// on damage, it recovers the longest physically-valid prefix and describes
// what it cut.
//
// The `wire` namespace holds the payload codec: line-oriented tag/key/value
// entries with length-prefixed byte blocks (arbitrary bytes round-trip) and
// hexfloat doubles (bit-exact round trip), written and read through one
// field list per record type (see "Field lists" below).
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace mlpm::harness {

// FNV-1a 64-bit over a byte string; the frame checksum.
[[nodiscard]] std::uint64_t Fnv1a64(std::string_view bytes);

namespace wire {

// ---- payload entries ---------------------------------------------------
//
// Entries are one of:
//   u <key> <uint>\n
//   d <key> <hexfloat>\n            (bit-exact double round trip)
//   b <key> 0|1\n
//   s <key> <len>\n<len bytes>\n    (arbitrary bytes, incl. newlines)
//   D <key> <n> <hexfloat>...\n
//   U <key> <n> <uint>...\n
//   L <key> <n>\n  then n x  <len>\n<len bytes>\n

[[nodiscard]] std::string HexDouble(double v);

struct Field {
  char tag = '?';
  std::string key;
  std::string scalar;                // u/d/b value text
  std::string bytes;                 // s payload
  std::vector<double> doubles;       // D
  std::vector<std::uint64_t> uints;  // U
  std::vector<std::string> strings;  // L
};

// Strict scalar parsers; throw CheckError on anything but a full match.
[[nodiscard]] std::uint64_t ParseU64(const std::string& text);
[[nodiscard]] double ParseDouble(const std::string& text);
// A `u` value no larger than `max`.  Every bool, enum and narrowed integer
// decodes through this one range check.
[[nodiscard]] std::uint64_t ParseBounded(const std::string& text,
                                         std::uint64_t max);

// Walks a payload, yielding entries.  Throws CheckError on any structural
// damage; element counts and block lengths are checked against the bytes
// left in the payload before anything is allocated, so a checksum-clean
// but hostile payload cannot request more memory than it occupies.
class PayloadParser {
 public:
  explicit PayloadParser(const std::string& payload) : payload_(payload) {}

  [[nodiscard]] bool Next(Field& f);

 private:
  [[nodiscard]] std::string_view TakeLine();
  [[nodiscard]] std::string TakeBlock(std::uint64_t len);

  const std::string& payload_;
  std::size_t pos_ = 0;
};

// ---- field lists -------------------------------------------------------
//
// A record's field list is one callable `fields(v, record)` naming every
// journaled member once, in wire order:
//
//   v("key", r.member);                   tag from the member's type
//   v("key", r.enum_member, E::kLast);    enum, range-checked on decode
//   v.Required("key", r.member);          decode fails unless the member
//                                         ends up non-empty / non-zero
//   v.Nested("key", r.sub, sub_fields);   a record (or std::optional of
//                                         one; absent = no entry) as an
//                                         `s` blob in its own field list
//
// Member type -> tag: bool b; double d; unsigned and narrow signed
// integers u (range-checked on decode); 64-bit signed integers u as their
// two's-complement image; std::string s; std::vector<double> D;
// std::vector<std::size_t> U; std::vector<std::string> L; a type with
// Serialize() and static Parse(text) s.  Encode and Decode walk the same
// list, so a key, its tag and its member are spelled exactly once.
// Decoding skips unknown keys (older binaries read newer journals),
// rejects a known key under another tag, and lets a repeated key overwrite
// the earlier value.

// The wire tag of a member type (the table above).
template <class T>
constexpr char TagOf() {
  if constexpr (std::is_same_v<T, bool>) return 'b';
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) return 'u';
  if constexpr (std::is_same_v<T, double>) return 'd';
  if constexpr (std::is_same_v<T, std::vector<double>>) return 'D';
  if constexpr (std::is_same_v<T, std::vector<std::size_t>>) return 'U';
  if constexpr (std::is_same_v<T, std::vector<std::string>>) return 'L';
  return 's';
}

class Encoder {
 public:
  template <class T>
  void operator()(std::string_view key, const T& value) {
    static_assert(!std::is_enum_v<T>, "enum fields name their last value");
    constexpr char kTag = TagOf<T>();
    if constexpr (std::is_same_v<T, bool>) {
      PutScalar(kTag, key, value ? "1" : "0");
    } else if constexpr (std::is_integral_v<T>) {
      PutScalar(kTag, key, std::to_string(static_cast<std::uint64_t>(value)));
    } else if constexpr (std::is_same_v<T, double>) {
      PutScalar(kTag, key, HexDouble(value));
    } else if constexpr (kTag == 'D') {
      PutDoubles(key, value);
    } else if constexpr (kTag == 'U') {
      PutUints(key, value);
    } else if constexpr (kTag == 'L') {
      PutList(key, value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      PutBlock(key, value);
    } else {
      PutBlock(key, value.Serialize());
    }
  }
  template <class E>
  void operator()(std::string_view key, const E& value, E /*last*/) {
    static_assert(std::is_enum_v<E>);
    PutScalar(TagOf<E>(), key,
              std::to_string(static_cast<std::uint64_t>(value)));
  }
  template <class T>
  void Required(std::string_view key, const T& value) {
    (*this)(key, value);
  }
  template <class T, class Fields>
  void Nested(std::string_view key, const T& value, const Fields& fields);

  [[nodiscard]] std::string Take() { return std::move(out_); }

 private:
  void PutScalar(char tag, std::string_view key, std::string_view text);
  void PutBlock(std::string_view key, std::string_view bytes);
  void PutDoubles(std::string_view key, const std::vector<double>& v);
  void PutUints(std::string_view key, const std::vector<std::size_t>& v);
  void PutList(std::string_view key, const std::vector<std::string>& v);

  std::string out_;
};

class Decoder {
 public:
  template <class Record, class Fields>
  [[nodiscard]] static Record Run(const std::string& payload,
                                  const Fields& fields);

  template <class T>
  void operator()(std::string_view key, T& value) {
    if (Match(key, TagOf<T>())) Read(value);
  }
  template <class E>
  void operator()(std::string_view key, E& value, E last) {
    static_assert(std::is_enum_v<E>);
    if (Match(key, TagOf<E>()))
      value = static_cast<E>(
          ParseBounded(field_.scalar, static_cast<std::uint64_t>(last)));
  }
  template <class T>
  void Required(std::string_view key, T& value) {
    if (checking_) RequireSet(key, value != T{});
    (*this)(key, value);
  }
  template <class T, class Fields>
  void Nested(std::string_view key, T& value, const Fields& fields) {
    if (!Match(key, 's')) return;
    if constexpr (requires { value.has_value(); }) {
      value = Run<typename T::value_type>(field_.bytes, fields);
    } else {
      value = Run<T>(field_.bytes, fields);
    }
  }

 private:
  // True when the current entry is `key` and no earlier list item took it;
  // a known key under another tag is damage, not an unknown entry.
  bool Match(std::string_view key, char tag) {
    if (checking_ || taken_ || key != field_.key) return false;
    taken_ = true;
    CheckTag(tag);
    return true;
  }
  void CheckTag(char tag) const;
  static void RequireSet(std::string_view key, bool set);

  template <class T>
  void Read(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      value = ParseBounded(field_.scalar, 1) == 1;
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T> &&
                         sizeof(T) == 8) {
      value = static_cast<T>(ParseU64(field_.scalar));
    } else if constexpr (std::is_integral_v<T>) {
      value = static_cast<T>(
          ParseBounded(field_.scalar, std::numeric_limits<T>::max()));
    } else if constexpr (std::is_same_v<T, double>) {
      value = ParseDouble(field_.scalar);
    } else if constexpr (std::is_same_v<T, std::string>) {
      value = std::move(field_.bytes);
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      value = std::move(field_.doubles);
    } else if constexpr (std::is_same_v<T, std::vector<std::size_t>>) {
      value.assign(field_.uints.begin(), field_.uints.end());
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
      value = std::move(field_.strings);
    } else {
      value = T::Parse(field_.bytes);
    }
  }

  Field field_;
  bool taken_ = false;
  bool checking_ = false;  // the final pass over the list: required keys
};

template <class Record, class Fields>
[[nodiscard]] std::string Encode(const Record& record, const Fields& fields) {
  Encoder encoder;
  fields(encoder, record);
  return encoder.Take();
}

// Throws CheckError on a malformed payload or a missing required key.
template <class Record, class Fields>
[[nodiscard]] Record Decode(const std::string& payload, const Fields& fields) {
  return Decoder::Run<Record>(payload, fields);
}

template <class T, class Fields>
void Encoder::Nested(std::string_view key, const T& value,
                     const Fields& fields) {
  if constexpr (requires { value.has_value(); }) {
    if (value.has_value()) PutBlock(key, Encode(*value, fields));
  } else {
    PutBlock(key, Encode(value, fields));
  }
}

template <class Record, class Fields>
Record Decoder::Run(const std::string& payload, const Fields& fields) {
  Record record{};
  Decoder decoder;
  PayloadParser parser(payload);
  while (parser.Next(decoder.field_)) {
    decoder.taken_ = false;
    fields(decoder, record);
  }
  decoder.checking_ = true;
  fields(decoder, record);
  return record;
}

}  // namespace wire

// ---- frame-level loader ------------------------------------------------

struct RawFrame {
  std::string kind;
  std::string payload;
  std::size_t offset = 0;  // byte offset of the frame header line
};

struct FrameLogLoad {
  std::vector<RawFrame> frames;
  std::size_t file_size = 0;
  // Offset where the physically-valid prefix ends (0 without a header).
  std::size_t valid_prefix_bytes = 0;
  // Human-readable findings (torn record, checksum mismatch, ...).
  std::vector<std::string> notes;
};

// Reads every physically intact frame (header parses, payload present and
// terminated, checksum matches).  Never throws on damaged or missing files;
// throws when the file exists but cannot be read.
[[nodiscard]] FrameLogLoad LoadFrameLog(const std::string& path);

// Append-side handle.  Create() starts a fresh log (truncating whatever was
// at `path` and writing the header); OpenAt() re-opens an existing one for
// append after rewriting its first `valid_prefix_bytes` bytes (cutting any
// torn tail so the next append lands on a frame boundary).  AppendFrame is
// flushed and fsync'd before returning, and is NOT thread-safe — the
// journal writer serializes appends under its mutex.
class FrameLogWriter {
 public:
  [[nodiscard]] static FrameLogWriter Create(const std::string& path);
  [[nodiscard]] static FrameLogWriter OpenAt(const std::string& path,
                                             std::size_t valid_prefix_bytes);

  void AppendFrame(std::string_view kind, const std::string& payload);

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };

  FrameLogWriter(std::string path,
                 std::unique_ptr<std::FILE, FileCloser> file)
      : path_(std::move(path)), file_(std::move(file)) {}

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
};

}  // namespace mlpm::harness
