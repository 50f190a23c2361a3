// The warm-start similarity index: a per-store sidecar mapping each
// stored result's canonical key to the *seedable facts* inside its
// payload — the problem it was tuned for and the best (tile, thread,
// variant, texec) point it found. The service consults it on a store
// MISS: entries for the same (device, stencil) ranked by problem
// distance become warm-start candidates (tuner::WarmSeed) for the
// fresh computation, which tighten the sweep's prune incumbent
// without ever changing its answer (see tuner::Session::best_tile).
//
// Format: <store-dir>/index.jsonl, one self-contained JSON object per
// line:
//
//   {"index_version":1,"key":"<canonical key>","kind":"best_tile",
//    "device":"GTX 980","stencil":"Heat2D",
//    "problem":{"S":[512,512],"T":64},
//    "tile":{"tT":6,...},"threads":{"n1":32,...},
//    "variant":{"unroll":1,"staging":"shared"},"texec":1.2e-3}
//
// Invariants, mirroring the ResultStore it shadows:
//   * Append-only, one line per completed computation; a crash can
//     only lose or truncate the tail line.
//   * Loads are corruption-tolerant: a truncated, unparsable or
//     wrong-version line is skipped (counted), never a crash. A later
//     line for the same key supersedes an earlier one.
//   * The index is a pure cache of the store: an entry whose backing
//     store file is gone is stale and dropped on load (a seed must
//     describe a result that still exists), and rebuild() recreates
//     the whole file from the store directory alone (atomic-rename,
//     like ResultStore::save).
//   * Seeding is advisory by construction, so a lost, stale or
//     corrupt index can never change a served byte — only how much
//     pruning a cold computation gets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hhc/tile_sizes.hpp"
#include "stencil/problem.hpp"
#include "stencil/variant.hpp"

namespace repro::service {

// One seedable stored result. `stencil_name`/`stencil_text` carry the
// same either-or identity as Request (catalogue name vs inline DSL).
struct IndexEntry {
  std::string key;   // the result's canonical computation key
  std::string kind;  // request kind that produced it
  std::string device;
  std::string stencil_name;
  std::string stencil_text;
  stencil::ProblemSize problem;
  hhc::TileSizes tile;
  hhc::ThreadConfig threads;
  stencil::KernelVariant variant{};
  double texec = 0.0;
};

class SimilarityIndex {
 public:
  inline static constexpr int kIndexVersion = 1;

  struct Counters {
    std::uint64_t appends = 0;
    std::uint64_t skipped = 0;  // corrupt / wrong-version lines
    std::uint64_t stale = 0;    // entries whose store file is gone
  };

  // `store_dir` is the ResultStore directory the index shadows.
  explicit SimilarityIndex(std::string store_dir);

  // Full path of the index file (exposed for tests).
  std::string path() const;

  // Extracts the seedable entry of one stored (key, payload) pair:
  // predict (with a measured point), best_tile (non-null "best") and
  // compare_strategies (feasible "exhaustive") results index; lint,
  // devices and stats payloads — and infeasible answers — do not.
  static std::optional<IndexEntry> entry_from(const std::string& key,
                                              const std::string& payload);

  // Appends one entry (single-line write; best-effort, never throws).
  bool append(const IndexEntry& e);

  // All live entries: corrupt lines skipped, later lines superseding
  // earlier ones per key, entries without a backing store file
  // dropped. Order is deterministic (ascending key).
  std::vector<IndexEntry> load();

  // Rebuilds the index file from the store directory alone (scan
  // every entry file, re-extract, write-temp + rename). Returns the
  // number of entries written, nullopt when the directory could not
  // be scanned or the file not replaced.
  std::optional<std::size_t> rebuild();

  struct Neighbor {
    IndexEntry entry;
    double distance = 0.0;
  };

  // Stored results usable as warm-start candidates for (device,
  // stencil identity, problem, variant): same device, same stencil,
  // same dimensionality, ranked same-variant-first (a seed whose
  // variant lies outside the sweep's span is rejected in-space and
  // wastes its slot — see Session::best_tile), then by
  // stencil::log_distance(problem, entry problem) with ascending-key
  // tie-breaks, at most `max_results`. Other-variant
  // entries still rank (the fallback when same-variant neighbors run
  // out); an entry for the *identical* problem is a legitimate
  // distance-0 neighbor (a different request kind or option set can
  // share the problem).
  std::vector<Neighbor> neighbors(const std::string& device,
                                  const std::string& stencil_name,
                                  const std::string& stencil_text,
                                  const stencil::ProblemSize& problem,
                                  const stencil::KernelVariant& variant,
                                  std::size_t max_results);

  Counters counters() const noexcept { return counters_; }

 private:
  std::string dir_;
  Counters counters_;
};

}  // namespace repro::service
