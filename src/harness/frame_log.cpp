#include "harness/frame_log.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#if __has_include(<unistd.h>)
#include <unistd.h>
#define MLPM_JOURNAL_HAS_FSYNC 1
#else
#define MLPM_JOURNAL_HAS_FSYNC 0
#endif

namespace mlpm::harness {

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {
constexpr std::string_view kHeader = "mlpm_journal v1";
}  // namespace

namespace wire {

std::string HexDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void Encoder::PutScalar(char tag, std::string_view key,
                        std::string_view text) {
  out_ += tag;
  out_ += ' ';
  out_ += key;
  out_ += ' ';
  out_ += text;
  out_ += '\n';
}

void Encoder::PutBlock(std::string_view key, std::string_view bytes) {
  PutScalar('s', key, std::to_string(bytes.size()));
  out_ += bytes;
  out_ += '\n';
}

void Encoder::PutDoubles(std::string_view key, const std::vector<double>& v) {
  out_ += "D ";
  out_ += key;
  out_ += ' ';
  out_ += std::to_string(v.size());
  for (const double d : v) {
    out_ += ' ';
    out_ += HexDouble(d);
  }
  out_ += '\n';
}

void Encoder::PutUints(std::string_view key,
                       const std::vector<std::size_t>& v) {
  out_ += "U ";
  out_ += key;
  out_ += ' ';
  out_ += std::to_string(v.size());
  for (const std::size_t u : v) {
    out_ += ' ';
    out_ += std::to_string(u);
  }
  out_ += '\n';
}

void Encoder::PutList(std::string_view key,
                      const std::vector<std::string>& v) {
  PutScalar('L', key, std::to_string(v.size()));
  for (const std::string& s : v) {
    out_ += std::to_string(s.size());
    out_ += '\n';
    out_ += s;
    out_ += '\n';
  }
}

void Decoder::CheckTag(char tag) const {
  Expects(field_.tag == tag, "journal: key " + field_.key + " has tag '" +
                                 std::string(1, field_.tag) + "', expected '" +
                                 std::string(1, tag) + "'");
}

void Decoder::RequireSet(std::string_view key, bool set) {
  Expects(set, "journal: required key '" + std::string(key) +
                   "' is missing or empty");
}

std::uint64_t ParseU64(const std::string& text) {
  // strtoull alone would accept leading blanks and a minus sign.
  Expects(!text.empty() && text[0] >= '0' && text[0] <= '9',
          "journal: bad integer '" + text + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  Expects(errno == 0 && *end == '\0', "journal: bad integer '" + text + "'");
  return v;
}

std::uint64_t ParseBounded(const std::string& text, std::uint64_t max) {
  const std::uint64_t v = ParseU64(text);
  Expects(v <= max, "journal: value " + text + " out of range (max " +
                        std::to_string(max) + ")");
  return v;
}

double ParseDouble(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  Expects(end != text.c_str() && *end == '\0',
          "journal: bad double '" + text + "'");
  return v;
}

namespace {

// Space-separated tokens of one entry line.  Each token holds at least one
// byte of the line, so the token count bounds every list the line encodes.
std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t end = std::min(line.find(' ', pos), line.size());
    if (end > pos) tokens.push_back(line.substr(pos, end - pos));
    pos = end + 1;
  }
  return tokens;
}

}  // namespace

bool PayloadParser::Next(Field& f) {
  if (pos_ >= payload_.size()) return false;
  const std::vector<std::string_view> tokens = Tokens(TakeLine());
  Expects(tokens.size() >= 3 && tokens[0].size() == 1,
          "journal: malformed entry line");
  f = Field{};
  f.tag = tokens[0][0];
  f.key = tokens[1];
  const std::string count(tokens[2]);
  const auto expect_tokens = [&](std::uint64_t n) {
    Expects(tokens.size() == n, "journal: wrong value count for " + f.key);
  };
  switch (f.tag) {
    case 'u':
    case 'd':
    case 'b':
      expect_tokens(3);
      f.scalar = count;
      break;
    case 's':
      expect_tokens(3);
      f.bytes = TakeBlock(ParseU64(count));
      break;
    case 'D': {
      expect_tokens(3 + ParseU64(count));
      f.doubles.reserve(tokens.size() - 3);
      for (std::size_t i = 3; i < tokens.size(); ++i)
        f.doubles.push_back(ParseDouble(std::string(tokens[i])));
      break;
    }
    case 'U': {
      expect_tokens(3 + ParseU64(count));
      f.uints.reserve(tokens.size() - 3);
      for (std::size_t i = 3; i < tokens.size(); ++i)
        f.uints.push_back(ParseU64(std::string(tokens[i])));
      break;
    }
    case 'L': {
      expect_tokens(3);
      const std::uint64_t n = ParseU64(count);
      // Each element takes at least three bytes: "<len>\n" and "\n".
      Expects(n <= (payload_.size() - pos_) / 3,
              "journal: list count runs past the payload for " + f.key);
      f.strings.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i)
        f.strings.push_back(TakeBlock(ParseU64(std::string(TakeLine()))));
      break;
    }
    default:
      Expects(false,
              "journal: unknown entry tag '" + std::string(1, f.tag) + "'");
  }
  return true;
}

std::string_view PayloadParser::TakeLine() {
  const std::size_t nl = payload_.find('\n', pos_);
  Expects(nl != std::string::npos, "journal: unterminated entry line");
  const std::string_view line =
      std::string_view(payload_).substr(pos_, nl - pos_);
  pos_ = nl + 1;
  return line;
}

std::string PayloadParser::TakeBlock(std::uint64_t len) {
  // len bytes plus the terminator must fit in what is left (pos_ never
  // exceeds the payload size, so the subtraction cannot wrap).
  Expects(len < payload_.size() - pos_,
          "journal: block runs past the payload");
  std::string bytes = payload_.substr(pos_, len);
  pos_ += len;
  Expects(payload_[pos_] == '\n', "journal: block missing terminator");
  ++pos_;
  return bytes;
}

}  // namespace wire

// ---- frame-level loader ------------------------------------------------

namespace {

// One frame header line: "<kind> <len> <hash-hex>".  Returns false when
// the bytes at `pos` cannot possibly be an intact frame.  The kind is any
// short lowercase word — which kinds are *meaningful* is the caller's
// business, but arbitrary binary garbage must not parse as a header.
struct FrameHeader {
  std::string kind;
  std::uint64_t len = 0;
  std::uint64_t hash = 0;
  std::size_t payload_pos = 0;  // offset of the first payload byte
};

bool IsFrameKind(const std::string& kind) {
  if (kind.empty() || kind.size() > 16) return false;
  for (const char c : kind)
    if ((c < 'a' || c > 'z') && c != '_') return false;
  return true;
}

bool ParseFrameHeader(const std::string& data, std::size_t pos,
                      FrameHeader& out, std::string& why) {
  const std::size_t nl = data.find('\n', pos);
  if (nl == std::string::npos) {
    why = "unterminated frame header";
    return false;
  }
  std::istringstream ls(data.substr(pos, nl - pos));
  std::string kind, len_text, hash_text;
  ls >> kind >> len_text >> hash_text;
  if (ls.fail() || !IsFrameKind(kind)) {
    why = "malformed frame header";
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t len = std::strtoull(len_text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') {
    why = "bad frame length";
    return false;
  }
  errno = 0;
  const std::uint64_t hash = std::strtoull(hash_text.c_str(), &end, 16);
  if (errno != 0 || *end != '\0') {
    why = "bad frame checksum";
    return false;
  }
  out.kind = kind;
  out.len = len;
  out.hash = hash;
  out.payload_pos = nl + 1;
  return true;
}

}  // namespace

FrameLogLoad LoadFrameLog(const std::string& path) {
  FrameLogLoad load;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    load.notes.push_back("cannot open journal: " + path);
    return load;
  }
  // Unlike `ostream << rdbuf()`, which turns a read error into an empty
  // string, the iterators let it throw: a journal that exists but cannot
  // be read must not pass for an empty one.
  const std::string data{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  load.file_size = data.size();

  // Header line.
  const std::size_t header_end = data.find('\n');
  if (header_end == std::string::npos ||
      data.substr(0, header_end) != kHeader) {
    load.notes.push_back("not a journal: missing '" + std::string(kHeader) +
                         "' header");
    return load;
  }

  std::size_t pos = header_end + 1;
  while (pos < data.size()) {
    FrameHeader frame;
    std::string why;
    if (!ParseFrameHeader(data, pos, frame, why)) {
      load.notes.push_back("torn tail at byte " + std::to_string(pos) + ": " +
                           why);
      break;
    }
    // Payload must be fully present, terminated, and checksum-clean.  The
    // length is untrusted: compare it against the bytes left, never add it.
    if (frame.len >= data.size() - frame.payload_pos) {
      load.notes.push_back("torn tail at byte " + std::to_string(pos) +
                           ": frame truncated mid-payload");
      break;
    }
    if (data[frame.payload_pos + frame.len] != '\n') {
      load.notes.push_back("torn tail at byte " + std::to_string(pos) +
                           ": frame payload unterminated");
      break;
    }
    std::string payload = data.substr(frame.payload_pos, frame.len);
    if (Fnv1a64(payload) != frame.hash) {
      load.notes.push_back("torn tail at byte " + std::to_string(pos) +
                           ": checksum mismatch on '" + frame.kind +
                           "' frame");
      break;
    }
    RawFrame raw;
    raw.kind = frame.kind;
    raw.payload = std::move(payload);
    raw.offset = pos;
    pos = frame.payload_pos + frame.len + 1;
    load.frames.push_back(std::move(raw));
  }

  load.valid_prefix_bytes = pos;
  return load;
}

// ---- writer ------------------------------------------------------------

FrameLogWriter FrameLogWriter::Create(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "wb"));
  Expects(file != nullptr, "cannot create journal: " + path);
  FrameLogWriter writer(path, std::move(file));
  const std::string header = std::string(kHeader) + "\n";
  Expects(std::fwrite(header.data(), 1, header.size(), writer.file_.get()) ==
              header.size(),
          "journal header write failed: " + path);
  return writer;
}

FrameLogWriter FrameLogWriter::OpenAt(const std::string& path,
                                      std::size_t valid_prefix_bytes) {
  // Cut anything past the valid prefix so the next append starts on a
  // frame boundary.  Rewriting the prefix is equivalent to (and simpler
  // than) platform truncate(), and the prefix is small — a handful of
  // records.
  std::ifstream in(path, std::ios::binary);
  Expects(static_cast<bool>(in), "cannot reopen journal: " + path);
  std::string prefix(valid_prefix_bytes, '\0');
  in.read(prefix.data(), static_cast<std::streamsize>(prefix.size()));
  Expects(static_cast<std::size_t>(in.gcount()) == prefix.size(),
          "journal shrank while truncating: " + path);
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  Expects(static_cast<bool>(out), "cannot truncate journal: " + path);
  out.write(prefix.data(), static_cast<std::streamsize>(prefix.size()));
  Expects(static_cast<bool>(out), "cannot rewrite journal: " + path);
  out.close();

  std::unique_ptr<std::FILE, FileCloser> file(std::fopen(path.c_str(), "ab"));
  Expects(file != nullptr, "cannot append to journal: " + path);
  return FrameLogWriter(path, std::move(file));
}

void FrameLogWriter::AppendFrame(std::string_view kind,
                                 const std::string& payload) {
  char head[64];
  std::snprintf(head, sizeof head, "%.*s %zu %016llx\n",
                static_cast<int>(kind.size()), kind.data(), payload.size(),
                static_cast<unsigned long long>(Fnv1a64(payload)));
  std::string frame = head;
  frame += payload;
  frame += '\n';
  Expects(std::fwrite(frame.data(), 1, frame.size(), file_.get()) ==
              frame.size(),
          "journal write failed: " + path_);

  // Durability point: the record is not "appended" until it has hit the
  // disk.  fsync latency is the price of crash safety — surface it.
  const auto t0 = std::chrono::steady_clock::now();
  Expects(std::fflush(file_.get()) == 0, "journal flush failed: " + path_);
#if MLPM_JOURNAL_HAS_FSYNC
  Expects(::fsync(::fileno(file_.get())) == 0,
          "journal fsync failed: " + path_);
#endif
  const double fsync_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Increment("journal.records");
  metrics.MaxGauge("journal.fsync_seconds_max", fsync_s);
  if (obs::TraceRecorder& rec = obs::TraceRecorder::Global(); rec.enabled())
    rec.AddInstant(
        obs::Domain::kHost, "journal", "journal:append", rec.NowUs(),
        {obs::Arg("bytes", static_cast<std::uint64_t>(frame.size())),
         obs::Arg("fsync_ms", fsync_s * 1e3)},
        "journal");
}

}  // namespace mlpm::harness
