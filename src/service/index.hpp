// The warm-start similarity index: an in-memory view of a result
// store that maps each stored result's canonical key to the
// *seedable facts* inside its payload — the problem it was tuned for
// and the best (tile, thread, variant, texec) point it found. The
// service consults it on a store MISS: entries for the same (device,
// stencil) ranked by problem distance become warm-start candidates
// (tuner::WarmSeed) for the fresh computation, which tighten the
// sweep's prune incumbent without ever changing its answer (see
// tuner::Session::best_tile).
//
// Invariants:
//   * The index owns no file. It is derived from the store alone: the
//     first lookup reads the store through ResultStore::scan (each
//     key's newest record, checked as load() checks it), and append()
//     adds each result the owner saves. A fresh index over the same
//     directory therefore holds the same entries as the one that
//     appended them.
//   * One entry per key, the latest append winning; neighbors() and
//     entries() iterate in ascending key order.
//   * The view is per process. A store log deleted while the index is
//     live stays indexed, and a result another process saves into the
//     same directory is not seen, until the next scan (a restart or
//     rebuild()).
//   * Seeding is advisory by construction, so a missing or outdated
//     entry can never change a served byte — only how much pruning a
//     cold computation gets.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
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
  // `store_dir` is the ResultStore directory the index is derived
  // from. Construction does no I/O; the first lookup scans.
  explicit SimilarityIndex(std::string store_dir);

  // `<store_dir>/index.jsonl`, the sidecar file older versions kept.
  // Nothing writes it any more; it exists only for perfbench's traced
  // line count.
  std::string path() const;

  // Extracts the seedable entry of one stored (key, payload) pair:
  // predict (with a measured point), best_tile (non-null "best") and
  // compare_strategies (feasible "exhaustive") results index; lint,
  // devices and stats payloads — and infeasible answers — do not.
  static std::optional<IndexEntry> entry_from(const std::string& key,
                                              const std::string& payload);

  // Whether results of this request kind (protocol name) can index:
  // predict, best_tile and compare_strategies. The owner skips
  // entry_from, which parses key and payload, for every other kind.
  static bool indexes(std::string_view kind) noexcept;

  // Inserts `e`, replacing any entry under the same key; returns
  // whether the key was new to the index. Call it after the result
  // behind `e` was saved to the store. It does not trigger the first
  // scan, which keeps appended entries over the store's copies.
  bool append(const IndexEntry& e);

  // Every entry, in ascending key order.
  std::vector<IndexEntry> entries();

  // Replaces the index with a fresh scan of the store. Returns the
  // number of entries, nullopt when the store's log cannot be opened.
  std::optional<std::size_t> rebuild();

  struct Neighbor {
    IndexEntry entry;
    double distance = 0.0;
  };

  // Stored results usable as warm-start candidates for (device,
  // stencil identity, problem, variant): same device, same stencil,
  // same dimensionality, same variant first, then by
  // stencil::log_distance(problem, entry problem), ascending key
  // breaking ties, at most `max_results`.
  // Other-variant entries still rank (the fallback when same-variant
  // neighbors run out); an entry for the *identical* problem is a
  // legitimate distance-0 neighbor (a different request kind or
  // option set can share the problem).
  std::vector<Neighbor> neighbors(const std::string& device,
                                  const std::string& stencil_name,
                                  const std::string& stencil_text,
                                  const stencil::ProblemSize& problem,
                                  const stencil::KernelVariant& variant,
                                  std::size_t max_results);

 private:
  // Scans the store on the first lookup.
  void load_once();
  // Adds every seedable store entry not yet indexed; false when the
  // store's log cannot be opened.
  bool scan();

  std::string dir_;
  bool loaded_ = false;
  std::map<std::string, IndexEntry> entries_;
};

}  // namespace repro::service
