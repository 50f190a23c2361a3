// The unified tuning-session API.
//
// A `Session` binds together everything one tuning run needs — the
// device, the stencil, the problem size, the calibrated model inputs
// (a `TuningContext`), a fixed thread pool, and a memoization cache
// of simulator measurements — and exposes the optimizer entry points
// as methods. It is the only machine-evaluation API of the tuner:
//
//   tuner::Session s(gpusim::gtx980(), def, p);       // calibrates
//   const auto space = tuner::enumerate_feasible(p.dim, s.inputs().hw);
//   const auto sweep = s.sweep_model(space, 0.10);
//   const auto best  = s.best_over_threads(sweep.argmin);
//
// Parallelism: every sweep-shaped method distributes its points over
// the session's pool (--jobs / REPRO_JOBS; default: all cores) with
// deterministic chunked reduction, so results are bitwise-identical
// for any worker count.
//
// Memoization: the session keeps one record per tile size, holding
// the tile's GPU geometry profile, its model Talg and every
// (thread config, kernel variant) point measured on it; the problem,
// stencil and device are fixed by the session's context, so the full
// key of a measurement is (tiles, threads, variant, problem, device).
// A thread sweep reads its tile's record under the session lock once
// and commits its new points and counters once, not once per thread
// config. compare_strategies profits directly: every point the
// exhaustive pass shares with the baseline or within-10% sets is
// served from the record instead of being re-simulated.
//
// Bound-and-prune (SessionOptions::prune, default on): every
// reduction-shaped method (best_over_threads, best_over_threads_many,
// the strategy-comparison passes) keeps an atomic incumbent — the
// best measured texec inside its own reduction scope — and skips the
// simulator for any point whose admissible lower bound
// (gpusim/lower_bound.hpp) exceeds it. Candidate points are visited
// in ascending model-Talg order so the incumbent tightens early;
// visit order never affects the reduction order.
//
// Determinism invariant (why pruned results are bitwise-identical to
// unpruned, for any job count):
//   * A point is skipped ONLY when an admissible bound proves
//     lower_bound > incumbent, where the incumbent is a measured
//     texec of a point participating in the same final reduction —
//     never a bound, never a measurement foreign to the reduction.
//     Then texec >= lower_bound > incumbent >= final minimum, so the
//     skipped point is strictly worse than the winner and can affect
//     neither the winning value nor the first-strictly-better
//     tie-breaking. In particular every minimum-achieving point has
//     lower_bound <= texec = minimum <= incumbent at all times and is
//     therefore never skipped.
//   * Chunk-local skip decisions may race with other chunks' updates
//     (the incumbent only tightens, so a stale read merely prunes
//     less); the *result* is re-derived from the surviving
//     measurements by the final index-ordered reduction, which prunes
//     only on bounds and never folds measured values across chunks
//     out of index order.
// The tuner-tier tests pin compare_strategies equality with pruning
// on vs off across job counts; SweepStats reports the pruning volume
// (points_pruned) and the bound-evaluation wall time (bound_seconds).
//
// Batched pricing: every point is priced through one backend batch
// call per (tile, variant) — a single point is a batch of one. Talg
// is computed once per tile and the surviving thread configs of a
// sweep are priced together:
//   * GPU: stage one runs once per tile and in two layers
//     (gpusim/cost_profile.hpp). The first bound on a tile builds a
//     bounds-only profile (row classes and bound aggregates, or an
//     incremental build_step from a profile sharing (tT, tS1)); the
//     band histograms and SoA slab are derived only when the tile is
//     first priced, so the tiles pruning discards never pay for them.
//     gpusim::measure_best_of_batch then folds the contiguous slab.
//   * CPU: cpusim analyzes the tile and hashes its jitter-key prefix
//     once, then pays only the per-strand step per config, and the
//     strand-invariant lower bound is evaluated once per tile.
// Both batch calls are bit-identical to the public scalar
// measure_best_of; the tuner-tier tests pin Session results against
// a serial scalar fold (tests/support/scalar_oracle.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/parallel.hpp"
#include "tuner/optimizer.hpp"

namespace repro::gpusim {
class TileCostProfile;  // gpusim/cost_profile.hpp
}

namespace repro::tuner {

// The shared atomic incumbent of one reduction scope: the smallest
// measured texec offered so far. Loads/offers are relaxed atomics —
// a stale read is conservative (prunes less, never wrong).
class Incumbent {
 public:
  // +infinity while no feasible measurement has been offered.
  double load() const noexcept {
    return best_.load(std::memory_order_relaxed);
  }
  // Atomic minimum update.
  void offer(double seconds) noexcept {
    double cur = best_.load(std::memory_order_relaxed);
    while (seconds < cur &&
           !best_.compare_exchange_weak(cur, seconds,
                                        std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> best_{std::numeric_limits<double>::infinity()};
};

// The parameter pack every optimizer entry point used to take,
// collapsed into one value type. The device is a tagged descriptor
// (device/descriptor.hpp): GPU payloads drive the gpusim pipeline
// byte-identically to the pre-descriptor code; CPU payloads route
// measurement, bounding and calibration through cpusim.
struct TuningContext {
  device::Descriptor dev;
  stencil::StencilDef def;
  stencil::ProblemSize problem;
  model::ModelInputs inputs;

  // Run the micro-benchmarks (Section 5.2) against the descriptor's
  // backend to fill `inputs`.
  static TuningContext calibrate(const device::Descriptor& dev,
                                 const stencil::StencilDef& def,
                                 const stencil::ProblemSize& p);

  // Reuse an existing calibration (it depends only on device and
  // stencil, so it can be shared across problem sizes).
  static TuningContext with_inputs(const device::Descriptor& dev,
                                   const stencil::StencilDef& def,
                                   const stencil::ProblemSize& p,
                                   const model::ModelInputs& in);
};

// Simple counters a bench can print after a sweep. Snapshot type —
// Session::stats() returns a consistent copy.
struct SweepStats {
  std::size_t model_points = 0;    // Talg evaluations (model sweeps)
  std::size_t machine_points = 0;  // simulator measurements requested
  std::size_t cache_hits = 0;      // ... of which served from the cache
  double model_seconds = 0.0;      // wall time inside model sweeps
  double machine_seconds = 0.0;    // wall time inside machine evaluation

  // Two-stage pipeline split (GPU): a tile size's geometry profile is
  // built once (stage one: row classes in O(classes), then per-class
  // bound aggregates) and every later batch or bound on that tile
  // reuses it (stage two, closed-form pricing). A "step" is an
  // incremental rebuild (TileCostProfile::build_step) from a cached
  // profile sharing (tT, tS1) — the row classes carry over and only
  // the per-class aggregates are recomputed. A "hit" is a tile visit
  // (a thread sweep or a single point) that needed the profile and
  // found it in the tile's record. The band histograms pricing needs
  // are derived once per tile, the first time it is priced
  // (histogram_builds); a tile that is only ever bounded never pays
  // for them. CPU tiles build no profile: cpusim's per-tile stage
  // runs inside each batch call, so its time counts in
  // pricing_seconds and the profile counters stay 0.
  std::size_t profile_builds = 0;   // geometry profiles built from scratch
  std::size_t profile_steps = 0;    // ... rebuilt incrementally instead
  std::size_t profile_hits = 0;     // served from the tile's record
  std::size_t histogram_builds = 0; // profiles given band histograms
  double geometry_seconds = 0.0;    // wall time building GPU profiles
                                    // and their histograms
  double pricing_seconds = 0.0;     // wall time in simulator pricing calls

  // Bound-and-prune: points skipped because their admissible lower
  // bound exceeded the incumbent (these count in neither
  // machine_points nor cache_hits), and the wall time spent inside
  // gpusim::lower_bound / cpusim::lower_bound / Talg visit ordering.
  std::size_t points_pruned = 0;
  double bound_seconds = 0.0;

  // Warm-start transfer (best_tile): candidate seeds offered, and the
  // subset admitted — in-space points that were re-priced under this
  // session's problem and allowed to tighten the incumbent.
  std::size_t seeds_offered = 0;
  std::size_t seeds_admitted = 0;

  // Every field once, as f(name, member pointer) in declaration
  // order: the field-wise sum below and the benches' --stats-json
  // writer walk this list, so a counter added here reaches both.
  template <class F>
  static void for_each_field(F&& f) {
    f("model_points", &SweepStats::model_points);
    f("machine_points", &SweepStats::machine_points);
    f("cache_hits", &SweepStats::cache_hits);
    f("model_seconds", &SweepStats::model_seconds);
    f("machine_seconds", &SweepStats::machine_seconds);
    f("profile_builds", &SweepStats::profile_builds);
    f("profile_steps", &SweepStats::profile_steps);
    f("profile_hits", &SweepStats::profile_hits);
    f("histogram_builds", &SweepStats::histogram_builds);
    f("geometry_seconds", &SweepStats::geometry_seconds);
    f("pricing_seconds", &SweepStats::pricing_seconds);
    f("points_pruned", &SweepStats::points_pruned);
    f("bound_seconds", &SweepStats::bound_seconds);
    f("seeds_offered", &SweepStats::seeds_offered);
    f("seeds_admitted", &SweepStats::seeds_admitted);
  }

  // Field-wise sum: benches and the pipeline planner total the stats
  // of several sessions with it.
  SweepStats& operator+=(const SweepStats& o) noexcept {
    for_each_field([&](std::string_view, auto member) {
      this->*member += o.*member;
    });
    return *this;
  }
};

// A warm-start candidate: a (tile, thread, variant) point some
// earlier tuning run found good on a *nearby* problem (the service's
// similarity index supplies these). A seed is only a visit-order and
// prune hint — Session::best_tile re-prices it under its own problem
// and admits it only when the point lies inside the requested sweep
// space, so seeding can never change a result, only skip work.
struct WarmSeed {
  hhc::TileSizes ts;
  hhc::ThreadConfig thr;
  stencil::KernelVariant var{};
};

// The warm-seed ranking rule, shared by the service's similarity
// index and the pipeline planner: the order in which to offer earlier
// results of the same stencil as seeds to a sweep of `problem` at
// variant `want`. Candidates of variant `want` come first (another
// variant's point lies outside the sweep's span, so best_tile rejects
// it and the seed slot is wasted), then the nearest by
// stencil::log_distance. The sort is stable: equal ranks keep their
// input order. Returns indices into `candidates`.
struct SeedCandidate {
  stencil::ProblemSize problem;
  stencil::KernelVariant variant;
};
std::vector<std::size_t> rank_warm_seeds(
    std::span<const SeedCandidate> candidates,
    const stencil::ProblemSize& problem, const stencil::KernelVariant& want);

struct SessionOptions {
  // <= 0: default_jobs() (REPRO_JOBS env var, else all hardware
  // threads). The bench binaries wire --jobs into this.
  int jobs = 0;
  // Bound-and-prune: skip the simulator for points whose admissible
  // lower bound beats the incumbent (see the header comment). Off
  // measures every requested point — the oracle the pruning equality
  // tests and the fig6 --no-prune run compare against.
  bool prune = true;

  SessionOptions& with_jobs(int j) noexcept { jobs = j; return *this; }
  SessionOptions& with_prune(bool p) noexcept { prune = p; return *this; }
};

class Session {
 public:
  explicit Session(TuningContext ctx, SessionOptions opt = {});
  // Convenience: calibrate on construction. Takes any descriptor
  // (gpusim::DeviceParams and cpusim::CpuParams convert implicitly).
  Session(const device::Descriptor& dev, const stencil::StencilDef& def,
          const stencil::ProblemSize& p, SessionOptions opt = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const TuningContext& context() const noexcept { return ctx_; }
  const model::ModelInputs& inputs() const noexcept { return ctx_.inputs; }
  int jobs() const noexcept { return pool_.jobs(); }

  // --- The optimizer entry points, as methods -----------------------

  // Model sweep over `space` (Section 6): parallel over the pool,
  // argmin and candidate selection in index order.
  ModelSweep sweep_model(std::span<const hhc::TileSizes> space, double delta);

  // One machine measurement (memoized).
  EvaluatedPoint evaluate_point(const DataPoint& dp);

  // Batch form: out[i] corresponds to dps[i]; evaluated in parallel.
  // Exact — every point is measured (no pruning), so the result is a
  // complete table.
  std::vector<EvaluatedPoint> evaluate_points(std::span<const DataPoint> dps);

  // Bounded batch form: points are visited in ascending model-Talg
  // order, each consulting (and tightening) the caller's incumbent.
  // A point pruned because its lower bound exceeded the incumbent
  // comes back with its `dp` set but `feasible == false` — exactly
  // like an infeasible point, it is provably not the argmin over the
  // incumbent's scope. out[i] still corresponds to dps[i].
  std::vector<EvaluatedPoint> evaluate_points(std::span<const DataPoint> dps,
                                              Incumbent& inc);

  // Best measured thread config for one tile size (Section 7's
  // empirical thread-count step; serial — it is the unit of work the
  // batch APIs parallelize over).
  EvaluatedPoint best_over_threads(const hhc::TileSizes& ts);

  // Variant-extended form: best measured (thread config, kernel
  // variant) pair for one tile size. An empty span means the default
  // variant only (== best_over_threads); the fold visits variants in
  // span order, thread configs innermost, with the serial loops'
  // first-strictly-better tie-breaking. CPU sessions collapse the
  // axis to the default variant.
  EvaluatedPoint best_over_variants(
      const hhc::TileSizes& ts,
      std::span<const stencil::KernelVariant> variants);

  // Batch form: out[i] corresponds to tiles[i]; evaluated in parallel.
  std::vector<EvaluatedPoint> best_over_threads_many(
      std::span<const hhc::TileSizes> tiles);

  // Single best point over a tile list (optionally crossed with
  // kernel variants), with optional warm-start transfer: one shared
  // incumbent spans the reduction, and each candidate seed whose
  // point lies inside the sweep space — tile in `tiles`, threads in
  // this device's thread configs, variant in `variants` (or default
  // when the span is empty) — is re-priced under this session's
  // problem first. An admitted seed (a) tightens the incumbent with
  // its measured texec and (b) moves its tile to the front of the
  // visit order. Both are strictly admissible: the seed is a measured
  // point of this very reduction (the sweep revisits it as a cache
  // hit), and visit order never affects the index-ordered fold — so
  // warm results are byte-identical to cold, seeded or not, for any
  // prune/jobs setting. Out-of-space seeds are ignored
  // (counted in SweepStats::seeds_offered but not seeds_admitted).
  // `incumbent_seed` must be a valid cutoff (SL315 otherwise): +inf
  // means none; a finite value must be the measured texec of a point
  // the caller folds into the same final answer.
  EvaluatedPoint best_tile(
      std::span<const hhc::TileSizes> tiles,
      std::span<const stencil::KernelVariant> variants = {},
      std::span<const WarmSeed> seeds = {},
      double incumbent_seed = std::numeric_limits<double>::infinity());

  // The Fig 5/6 strategy comparison. All four machine-evaluation
  // passes run on the pool; the baseline/within-10% points revisited
  // by the exhaustive pass are cache hits.
  StrategyComparison compare_strategies(const CompareOptions& opt = {});

  // The simulated-annealing stand-in (inherently sequential).
  SolverResult anneal_talg(const EnumOptions& bounds, std::uint64_t seed = 1,
                           int iterations = 400);

  // --- Introspection ------------------------------------------------

  // Semantic audit (SL5xx) of the session's fixed context: the device
  // descriptor, the calibrated model inputs, the stencil's tap ranges
  // and — when a tile/thread pair is given — the static resource
  // prediction. Purely observational: no tuning path ever consults
  // the findings, so running (or skipping) the audit cannot perturb
  // any sweep; tests pin byte-identical results either way.
  std::vector<analysis::Diagnostic> audit(
      std::optional<hhc::TileSizes> ts = std::nullopt,
      std::optional<hhc::ThreadConfig> thr = std::nullopt) const;

  SweepStats stats() const;
  void reset_stats();
  // Measured points held across all tile records.
  std::size_t cache_size() const;
  // Drops every tile record (points, profiles, Talg).
  void clear_cache();

 private:
  struct TileKey {
    std::int64_t tT, tS1, tS2, tS3;
    friend bool operator==(const TileKey&, const TileKey&) = default;
  };
  struct TileKeyHash {
    std::size_t operator()(const TileKey& k) const noexcept;
  };
  struct StepKey {
    std::int64_t tT, tS1;
    friend bool operator==(const StepKey&, const StepKey&) = default;
  };
  struct StepKeyHash {
    std::size_t operator()(const StepKey& k) const noexcept;
  };

  // Everything the session knows about one tile size.
  struct TileRecord {
    // GPU stage one: bounds-only until the tile is first priced, then
    // with histograms. Orthogonal to the measured points — every
    // variant batch, bound and single point on a tile after the first
    // reuses it even when every measurement is new.
    std::shared_ptr<const gpusim::TileCostProfile> profile;
    std::optional<double> talg;  // set once the tile is priced
    // Measured (thread config, variant) points, in measurement order.
    std::vector<EvaluatedPoint> points;
  };

  // The variants a sweep visits: `variants`, or the default variant
  // alone when the span is empty or the device is a CPU (no variant
  // codegen there).
  std::span<const stencil::KernelVariant> variant_axis(
      std::span<const stencil::KernelVariant> variants) const noexcept;

  // The one pricing call of the session: out[j] = the measured point
  // (ts, thrs[j], var) with model price `talg`, priced in a single
  // backend batch call (GPU: against `prof`, which has histograms).
  // Returns the pricing wall time for the caller to book.
  double price_batch(const hhc::TileSizes& ts,
                     const stencil::KernelVariant& var,
                     std::span<const hhc::ThreadConfig> thrs, double talg,
                     const gpusim::TileCostProfile* prof,
                     std::span<EvaluatedPoint> out);

  // The one per-tile path behind every measurement: the points
  // vars x thrs of tile `ts`, variant-major (out[vi * thrs.size() +
  // ti]). Points the tile's record holds are served from it (cache
  // hits); with `inc` and pruning on, each miss whose admissible
  // lower bound exceeds the incumbent strictly is skipped (nullopt,
  // counted in points_pruned), and hits and fresh measurements offer
  // their texec to it in visit order; the surviving misses are
  // priced in one batch call per variant. Takes the session lock
  // once to read the record and once to commit. Not timed — callers
  // own the phase.
  void measure_tile(const hhc::TileSizes& ts,
                    std::span<const stencil::KernelVariant> vars,
                    std::span<const hhc::ThreadConfig> thrs, Incumbent* inc,
                    std::span<std::optional<EvaluatedPoint>> out);

  // One point through measure_tile, unbounded.
  EvaluatedPoint measure(const DataPoint& dp);
  // Fold `candidate` into `best` with the serial loops' tie-breaking
  // (first strictly-better point wins).
  static void fold_best(EvaluatedPoint& best, const EvaluatedPoint& candidate);
  // The unit of work of every thread sweep: the best measured
  // (thread, variant) point of one tile over the device's thread
  // configs, folded variant-major in variant_axis order. `inc`
  // participates as in measure_tile: nullptr (or prune off) measures
  // every point. Not timed — callers own the phase.
  EvaluatedPoint sweep_tile(const hhc::TileSizes& ts,
                            std::span<const stencil::KernelVariant> variants,
                            Incumbent* inc);

  // Best-over-threads reduction across a tile list, parallel with
  // deterministic chunk order. Not timed — callers own the phase.
  // With pruning on, tiles are visited in ascending model-Talg order
  // against a shared incumbent, optionally seeded with a measured
  // texec that participates in the caller's final reduction
  // (compare_strategies seeds the exhaustive pass with the best of
  // the earlier passes — all of which it folds into the result).
  // `priority` tiles are visited before the Talg-ordered rest
  // (best_tile puts admitted warm-seed tiles there); order cannot
  // affect the fold, only how early the incumbent tightens.
  EvaluatedPoint best_of_tiles(
      std::span<const hhc::TileSizes> tiles,
      std::span<const stencil::KernelVariant> variants = {},
      double incumbent_seed = std::numeric_limits<double>::infinity(),
      std::span<const hhc::TileSizes> priority = {});
  void add_model_time(double seconds, std::size_t points);
  void add_machine_time(double seconds);

  TuningContext ctx_;
  SessionOptions opt_;
  ThreadPool pool_;
  // The device's thread configs (device_thread_configs), fixed for
  // the session's lifetime.
  std::vector<hhc::ThreadConfig> threads_;

  mutable std::mutex mu_;  // guards tiles_, steps_, points_held_, stats_
  std::unordered_map<TileKey, TileRecord, TileKeyHash> tiles_;
  // Latest cached profile per (tT, tS1): HexSchedule depends only on
  // those two tile dimensions, so a tile whose (tT, tS1) matches a
  // cached profile builds its own incrementally via build_step (the
  // rows are not classified again) instead of from scratch.
  // Bit-identical to a scratch build, so which base a racing worker
  // sees can never change a result, only the
  // profile_builds/profile_steps split.
  std::unordered_map<StepKey, std::shared_ptr<const gpusim::TileCostProfile>,
                     StepKeyHash>
      steps_;
  std::size_t points_held_ = 0;  // sum of points.size() over tiles_
  SweepStats stats_;
};

}  // namespace repro::tuner
