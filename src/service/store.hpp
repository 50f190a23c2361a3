// The warm-start result store: a versioned on-disk cache of computed
// result payloads, keyed by the request's canonical computation key
// (device + stencil definition + problem + options — see
// Request::canonical_key). One file per key under the store
// directory, named by the FNV-1a hash of the key:
//
//   <dir>/<16-hex-digit-hash>.json
//   {"store_version":1,"key":"<canonical key>","payload":"<result>"}
//
// Invariants:
//   * Writes are atomic: the entry is written to a temp file in the
//     same directory and renamed into place, so a concurrent reader
//     (or a crash mid-write) sees either the old entry or the new
//     one, never a torn file.
//   * Loads are corruption-tolerant: an unreadable, unparsable,
//     wrong-version or hash-colliding entry is a miss (counted in
//     `errors`), never a crash and never a wrong answer — the stored
//     key is compared against the requested one before the payload is
//     served.
//   * This class is the only code that knows the directory's format.
//     Everything derived from the store (the warm-start similarity
//     index) reads it through scan(), which applies load()'s envelope
//     check to every file.
//   * The payload is stored verbatim (the serialized JSON string the
//     service computed), so a warm-store response is byte-identical
//     to the cold computation that produced it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace repro::service {

// 64-bit FNV-1a, rendered as 16 lowercase hex digits (the store
// filename stem). Exposed for tests.
std::string fnv1a_hex(std::string_view s);

class ResultStore {
 public:
  inline static constexpr int kStoreVersion = 1;

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writes = 0;
    std::uint64_t errors = 0;  // unreadable / corrupt / mismatched entries
  };

  // Creates `dir` (and parents) if missing. A directory that cannot
  // be created is tolerated: every load is then a miss and every save
  // a counted error — the service degrades to compute-only.
  explicit ResultStore(std::string dir);

  const std::string& dir() const noexcept { return dir_; }

  // The payload stored for `key`, or nullopt (miss). Never throws.
  std::optional<std::string> load(const std::string& key);

  // Persists `payload` under `key` (write-temp + rename). Returns
  // whether the entry landed on disk. Never throws.
  bool save(const std::string& key, const std::string& payload);

  // Full path of the entry file for `key` (exposed for tests).
  std::string path_for(const std::string& key) const;

  // Calls `visit(key, payload)` for every entry file load() would
  // serve, in directory order: the envelope must parse, carry the
  // current store_version, a string key and a string payload, and sit
  // in the file named for its key. Other files are skipped silently.
  // Returns false when the directory cannot be scanned. Never throws
  // (unless `visit` does).
  bool scan(
      const std::function<void(const std::string& key,
                               const std::string& payload)>& visit) const;

  // A directory scan over the store's entry files (*.json): how many
  // results are persisted, their total size, and the age of the
  // oldest/newest entry in seconds (0 when empty). Groundwork for
  // eviction; also surfaced in the daemon's shutdown stats line and
  // the `stats` request kind. Never throws; an unscannable directory
  // reads as empty.
  struct DirStats {
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    double oldest_age_seconds = 0.0;
    double newest_age_seconds = 0.0;
  };
  DirStats dir_stats() const;

  Counters counters() const noexcept { return counters_; }

 private:
  std::string dir_;
  Counters counters_;
};

}  // namespace repro::service
