#include "service/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

namespace repro::service {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string fnv1a_hex(std::string_view s) {
  std::uint64_t h = fnv1a(s);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

namespace {

constexpr std::size_t kHeaderBytes = ResultStore::kHeaderBytes;
// 0xFE and 0xFF never occur in UTF-8, so JSON keys and payloads do
// not imitate a record start.
constexpr std::uint32_t kMagic = 0xFF5352FEu;
constexpr std::size_t kChecksumAt = 24;
// Reading in the log goes through a window of at most this many bytes
// (or one record, if larger).
constexpr std::uint64_t kWindowBytes = std::uint64_t{1} << 20;

struct Header {
  std::uint32_t magic = kMagic;
  std::uint32_t version = ResultStore::kStoreVersion;
  std::uint32_t key_len = 0;
  std::uint32_t payload_len = 0;
  std::int64_t time_ns = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(Header) == kHeaderBytes);
static_assert(offsetof(Header, checksum) == kChecksumAt);

Header header_of(std::string_view bytes) {
  Header h;
  std::memcpy(&h, bytes.data(), kHeaderBytes);
  return h;
}

bool plausible(const Header& h) {
  return h.magic == kMagic &&
         h.version == static_cast<std::uint32_t>(ResultStore::kStoreVersion);
}

std::uint64_t record_bytes(const Header& h) {
  return kHeaderBytes + std::uint64_t{h.key_len} + h.payload_len;
}

// Whether `rec` is exactly one record whose checksum holds.
bool intact(std::string_view rec) {
  if (rec.size() < kHeaderBytes) return false;
  const Header h = header_of(rec);
  return plausible(h) && record_bytes(h) == rec.size() &&
         h.checksum == ResultStore::checksum(rec);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Reads exactly `n` bytes at `off`; false on a short read or error.
bool pread_all(int fd, char* out, std::size_t n, std::uint64_t off) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(off));
    if (got <= 0) return false;
    out += got;
    n -= static_cast<std::size_t>(got);
    off += static_cast<std::uint64_t>(got);
  }
  return true;
}

// Reads the log's bytes [0, end) forward through one bounded window.
class LogReader {
 public:
  LogReader(int fd, std::uint64_t end) : fd_(fd), end_(end) {}

  // The intact record at `pos`, or nullopt. The view lives until the
  // next call.
  std::optional<std::string_view> record_at(std::uint64_t pos) {
    const std::optional<std::string_view> head = bytes(pos, kHeaderBytes);
    if (!head) return std::nullopt;
    const Header h = header_of(*head);
    if (!plausible(h) || record_bytes(h) > end_ - pos) return std::nullopt;
    const std::optional<std::string_view> rec = bytes(pos, record_bytes(h));
    if (!rec || !intact(*rec)) return std::nullopt;
    return rec;
  }

  // Whether the header at `pos` is plausible but its record runs past
  // the end: a record that may still be being written.
  bool runs_past_end(std::uint64_t pos) {
    const std::optional<std::string_view> head = bytes(pos, kHeaderBytes);
    if (!head) return false;
    const Header h = header_of(*head);
    return plausible(h) && record_bytes(h) > end_ - pos;
  }

  // The offset of the first intact record at or after `from`, or end.
  std::uint64_t next_record(std::uint64_t from) {
    for (std::uint64_t p = find_magic(from); p < end_;
         p = find_magic(p + 1)) {
      if (record_at(p)) return p;
    }
    return end_;
  }

 private:
  // The `len` bytes at `off`, or nullopt past the end or on a failed
  // read.
  std::optional<std::string_view> bytes(std::uint64_t off, std::uint64_t len) {
    if (off > end_ || len > end_ - off) return std::nullopt;
    if (off < buf_off_ || off + len > buf_off_ + buf_.size()) {
      buf_.resize(std::max(len, std::min(kWindowBytes, end_ - off)));
      buf_off_ = off;
      if (!pread_all(fd_, buf_.data(), buf_.size(), off)) {
        buf_.clear();
        return std::nullopt;
      }
    }
    return std::string_view(buf_).substr(off - buf_off_, len);
  }

  // The offset of the next magic number at or after `from`, or end.
  std::uint64_t find_magic(std::uint64_t from) {
    char needle[sizeof kMagic];
    std::memcpy(needle, &kMagic, sizeof kMagic);
    const std::string_view magic(needle, sizeof needle);
    while (from < end_ && end_ - from >= magic.size()) {
      const std::optional<std::string_view> w =
          bytes(from, std::min(kWindowBytes, end_ - from));
      if (!w) break;
      const std::size_t at = w->find(magic);
      if (at != std::string_view::npos) return from + at;
      from += w->size() - (magic.size() - 1);
    }
    return end_;
  }

  int fd_;
  std::uint64_t end_;
  std::string buf_;
  std::uint64_t buf_off_ = 0;
};

}  // namespace

std::uint64_t ResultStore::checksum(std::string_view record) {
  // One multiply-rotate step per 8-byte word. Each step is a bijection
  // in both the running hash and the word, so any change confined to
  // one word (a flipped byte) always changes the sum.
  constexpr std::uint64_t kMul = 0x9fb21c651e98df25ULL;
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ record.size();
  const auto step = [&](std::uint64_t w) {
    h = (std::rotl(h, 29) ^ w) * kMul;
  };
  std::size_t i = 0;
  for (; i + 8 <= record.size(); i += 8) {
    std::uint64_t w = 0;
    if (i != kChecksumAt) std::memcpy(&w, record.data() + i, 8);
    step(w);
  }
  if (i < record.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, record.data() + i, record.size() - i);
    step(w);
  }
  return h;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);
}

std::string ResultStore::log_path() const { return dir_ + "/store.log"; }

bool ResultStore::open() const {
  if (!opened_) {
    opened_ = true;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    fd_ = ::open(log_path().c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ >= 0) catch_up();
  }
  return fd_ >= 0;
}

void ResultStore::catch_up() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return;
  const auto end = static_cast<std::uint64_t>(st.st_size);
  if (end == read_end_) return;
  if (end < read_end_) {
    // The log was cut below what was read in: read it again.
    table_.clear();
    read_end_ = 0;
  }
  LogReader in(fd_, end);
  std::uint64_t pos = read_end_;
  while (end - pos >= kHeaderBytes) {
    if (const std::optional<std::string_view> rec = in.record_at(pos)) {
      const Header h = header_of(*rec);
      remember(fnv1a(rec->substr(kHeaderBytes, h.key_len)),
               {pos, h.key_len, h.payload_len, h.time_ns});
      pos += rec->size();
      continue;
    }
    // A damaged record is skipped, unless it may be the last one still
    // being written: then no intact record follows it.
    const std::uint64_t next = in.next_record(pos + 1);
    if (next == end && in.runs_past_end(pos)) break;
    ++counters_.errors;
    pos = next;
  }
  read_end_ = pos;
}

void ResultStore::remember(std::uint64_t hash, const Slot& s) const {
  const auto [it, fresh] = table_.try_emplace(hash, s);
  if (!fresh && s.offset >= it->second.offset) it->second = s;
}

std::optional<std::string> ResultStore::read_record(const Slot& s) const {
  std::string rec(kHeaderBytes + std::size_t{s.key_len} + s.payload_len, '\0');
  if (!pread_all(fd_, rec.data(), rec.size(), s.offset) || !intact(rec)) {
    return std::nullopt;
  }
  const Header h = header_of(rec);
  if (h.key_len != s.key_len || h.payload_len != s.payload_len) {
    return std::nullopt;
  }
  return rec;
}

std::optional<std::string> ResultStore::load(const std::string& key) {
  if (!open()) {
    ++counters_.misses;
    return std::nullopt;
  }
  const std::uint64_t hash = fnv1a(key);
  auto it = table_.find(hash);
  if (it == table_.end()) {
    catch_up();
    it = table_.find(hash);
  }
  if (it == table_.end()) {
    ++counters_.misses;
    return std::nullopt;
  }
  std::optional<std::string> rec = read_record(it->second);
  // Hash collisions and damaged records alike: the full key must
  // match, or the record is somebody else's answer.
  if (!rec || it->second.key_len != key.size() ||
      rec->compare(kHeaderBytes, key.size(), key) != 0) {
    ++counters_.misses;
    ++counters_.errors;
    return std::nullopt;
  }
  ++counters_.hits;
  rec->erase(0, kHeaderBytes + key.size());
  return rec;
}

bool ResultStore::save(const std::string& key, const std::string& payload) {
  constexpr std::size_t kMaxLen = UINT32_MAX;
  if (!open() || key.size() > kMaxLen || payload.size() > kMaxLen) {
    ++counters_.errors;
    return false;
  }
  Header h;
  h.key_len = static_cast<std::uint32_t>(key.size());
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.time_ns = now_ns();
  std::string rec;
  rec.reserve(record_bytes(h));
  rec.append(reinterpret_cast<const char*>(&h), kHeaderBytes);
  rec += key;
  rec += payload;
  h.checksum = checksum(rec);
  std::memcpy(rec.data() + kChecksumAt, &h.checksum, sizeof h.checksum);

  const ssize_t wrote = ::write(fd_, rec.data(), rec.size());
  if (wrote != static_cast<ssize_t>(rec.size())) {
    ++counters_.errors;
    return false;
  }
  ++counters_.writes;
  // O_APPEND leaves the offset at the end of this record.
  const off_t end = ::lseek(fd_, 0, SEEK_CUR);
  if (end < 0) return true;
  const std::uint64_t offset = static_cast<std::uint64_t>(end) - rec.size();
  remember(fnv1a(key), {offset, h.key_len, h.payload_len, h.time_ns});
  if (offset == read_end_) {
    read_end_ = static_cast<std::uint64_t>(end);
  } else {
    catch_up();  // somebody else appended in between
  }
  return true;
}

bool ResultStore::scan(
    const std::function<void(const std::string& key,
                             const std::string& payload)>& visit) const {
  if (!open()) return false;
  catch_up();
  std::vector<Slot> slots;
  slots.reserve(table_.size());
  for (const auto& [hash, s] : table_) slots.push_back(s);
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.offset < b.offset; });
  for (const Slot& s : slots) {
    const std::optional<std::string> rec = read_record(s);
    if (!rec) {
      ++counters_.errors;
      continue;
    }
    visit(rec->substr(kHeaderBytes, s.key_len),
          rec->substr(kHeaderBytes + s.key_len));
  }
  return true;
}

ResultStore::DirStats ResultStore::dir_stats() const {
  DirStats d;
  if (!open()) return d;
  d.entries = table_.size();
  d.bytes = read_end_;
  const std::int64_t now = now_ns();
  bool first = true;
  for (const auto& [hash, s] : table_) {
    const double age = static_cast<double>(now - s.time_ns) * 1e-9;
    if (first || age > d.oldest_age_seconds) d.oldest_age_seconds = age;
    if (first || age < d.newest_age_seconds) d.newest_age_seconds = age;
    first = false;
  }
  return d;
}

}  // namespace repro::service
