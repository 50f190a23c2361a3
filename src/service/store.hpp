// The warm-start result store: a versioned on-disk cache of computed
// result payloads, keyed by the request's canonical computation key
// (device + stencil definition + problem + options — see
// Request::canonical_key). One append-only log per store directory,
// `<dir>/store.log`, holding one record per save:
//
//   header (32 bytes, host byte order):
//     u32 magic  u32 version  u32 key length  u32 payload length
//     i64 write time (ns since the Unix epoch)  u64 checksum
//   key bytes, then payload bytes, both raw (nothing is escaped)
//
// The checksum covers the whole record, its own field read as zero.
// In memory the store keeps a table from the FNV-1a 64-bit hash of
// each key to its newest record's (offset, lengths, write time).
//
// Invariants:
//   * A save is one write() of the whole record to an O_APPEND
//     descriptor. A lookup is a table lookup: a hit is one pread, a
//     miss one fstat, which reads in any records another ResultStore
//     or process appended since.
//   * Loads are corruption-tolerant: a record is served only after its
//     header, checksum and full key match. A torn or damaged record is
//     skipped (counted in `errors`) and reading resumes at the next
//     valid header, so a record appended after a torn tail is served.
//     A record whose header runs past the end of the log, with no
//     valid record after it, may still be being written; it is left
//     unread until the log grows.
//   * This class is the only code that knows the directory's format.
//     Everything derived from the store (the warm-start similarity
//     index) reads it through scan(), which serves each key's newest
//     valid record exactly as load() would.
//   * The payload is stored verbatim (the serialized JSON string the
//     service computed), so a warm-store response is byte-identical
//     to the cold computation that produced it.
//   * Construction does no I/O. The first load, save, scan or
//     dir_stats creates the directory, opens the log and reads it
//     once; the descriptor is kept until destruction. Entry files of
//     older store versions (`*.json`) are ignored.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace repro::service {

// 64-bit FNV-1a: the table hash of a key.
std::uint64_t fnv1a(std::string_view s);

// fnv1a rendered as 16 lowercase hex digits. Exposed for tests.
std::string fnv1a_hex(std::string_view s);

class ResultStore {
 public:
  inline static constexpr int kStoreVersion = 2;
  inline static constexpr std::size_t kHeaderBytes = 32;

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writes = 0;
    std::uint64_t errors = 0;  // failed saves, damaged or mismatched records
  };

  // Opens nothing. A directory or log that cannot be created or
  // opened is tolerated: every load is then a miss and every save a
  // counted error — the service degrades to compute-only.
  explicit ResultStore(std::string dir);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& dir() const noexcept { return dir_; }

  // `<dir>/store.log` (exposed for tests).
  std::string log_path() const;

  // The payload stored for `key`, or nullopt (miss). Never throws.
  std::optional<std::string> load(const std::string& key);

  // Appends `payload` under `key`. Returns whether the whole record
  // was written. Never throws.
  bool save(const std::string& key, const std::string& payload);

  // Calls `visit(key, payload)` once per key, with its newest valid
  // record, in log order of those records. Reads in everything
  // appended so far first. Returns false when the log cannot be
  // opened. Never throws (unless `visit` does).
  bool scan(
      const std::function<void(const std::string& key,
                               const std::string& payload)>& visit) const;

  // What the table holds: distinct keys, the log's length in bytes, and
  // the age of the oldest/newest of those keys' records in seconds (0
  // when empty). No directory walk and, once the log is open, no I/O.
  // Surfaced in the daemon's shutdown stats line and the `stats`
  // request kind. Never throws; an unopenable log reads as empty.
  struct DirStats {
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    double oldest_age_seconds = 0.0;
    double newest_age_seconds = 0.0;
  };
  DirStats dir_stats() const;

  Counters counters() const noexcept { return counters_; }

  // The checksum a record's header carries: a hash of the whole
  // record with the checksum field read as zero. Exposed for tests.
  static std::uint64_t checksum(std::string_view record);

 private:
  // Where a key's newest record sits in the log.
  struct Slot {
    std::uint64_t offset = 0;
    std::uint32_t key_len = 0;
    std::uint32_t payload_len = 0;
    std::int64_t time_ns = 0;
  };

  // Opens the log and reads it in on the first call; false when it
  // cannot be opened.
  bool open() const;
  // Reads in the records between read_end_ and the log's current end.
  void catch_up() const;
  // Keeps `s` under `hash` unless the table holds a later record.
  void remember(std::uint64_t hash, const Slot& s) const;
  // The record at `s`, read whole and checked against `s`, or nullopt.
  std::optional<std::string> read_record(const Slot& s) const;

  std::string dir_;
  // Mutable: the open descriptor and the table cache the log, which
  // the const readers (scan, dir_stats) may open and read in.
  mutable bool opened_ = false;
  mutable int fd_ = -1;
  mutable std::uint64_t read_end_ = 0;  // the log is read in up to here
  mutable std::unordered_map<std::uint64_t, Slot> table_;
  mutable Counters counters_;
};

}  // namespace repro::service
