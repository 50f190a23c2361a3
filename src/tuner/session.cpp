#include "tuner/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "analysis/audit.hpp"
#include "common/rng.hpp"
#include "cpusim/lower_bound.hpp"
#include "cpusim/timing.hpp"
#include "gpusim/cost_profile.hpp"
#include "gpusim/lower_bound.hpp"
#include "gpusim/timing.hpp"

namespace repro::tuner {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Copy a simulator result (gpusim or cpusim SimResult) into `ep`.
template <class Result>
void take_result(EvaluatedPoint& ep, const Result& res) {
  ep.feasible = res.feasible;
  if (res.feasible) {
    ep.texec = res.seconds;
    ep.gflops = res.gflops;
  }
}

// The point of `points` measured at (thr, var), or nullptr. A tile
// holds at most a few dozen points, so a linear scan beats hashing.
const EvaluatedPoint* find_point(const std::vector<EvaluatedPoint>& points,
                                 const hhc::ThreadConfig& thr,
                                 const stencil::KernelVariant& var) {
  for (const EvaluatedPoint& ep : points) {
    if (ep.dp.thr == thr && ep.dp.var == var) return &ep;
  }
  return nullptr;
}

}  // namespace

// --- TuningContext ---------------------------------------------------

TuningContext TuningContext::calibrate(const device::Descriptor& dev,
                                       const stencil::StencilDef& def,
                                       const stencil::ProblemSize& p) {
  return with_inputs(dev, def, p, calibrate_model(dev, def));
}

TuningContext TuningContext::with_inputs(const device::Descriptor& dev,
                                         const stencil::StencilDef& def,
                                         const stencil::ProblemSize& p,
                                         const model::ModelInputs& in) {
  TuningContext ctx;
  ctx.dev = dev;
  ctx.def = def;
  ctx.problem = p;
  ctx.inputs = in;
  return ctx;
}

// --- Session ---------------------------------------------------------

std::size_t Session::TileKeyHash::operator()(const TileKey& k) const noexcept {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(k.tT));
  h = mix64(h ^ static_cast<std::uint64_t>(k.tS1));
  h = mix64(h ^ static_cast<std::uint64_t>(k.tS2));
  h = mix64(h ^ static_cast<std::uint64_t>(k.tS3));
  return static_cast<std::size_t>(h);
}

Session::TileKey Session::tile_key(const hhc::TileSizes& ts) noexcept {
  return {ts.tT, ts.tS1, ts.tS2, ts.tS3};
}

std::size_t Session::StepKeyHash::operator()(const StepKey& k) const noexcept {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(k.tT));
  h = mix64(h ^ static_cast<std::uint64_t>(k.tS1));
  return static_cast<std::size_t>(h);
}

Session::Session(TuningContext ctx, SessionOptions opt)
    : ctx_(std::move(ctx)),
      opt_(opt),
      pool_(opt.jobs),
      threads_(device_thread_configs(ctx_.dev, ctx_.problem.dim)) {}

Session::Session(const device::Descriptor& dev,
                 const stencil::StencilDef& def,
                 const stencil::ProblemSize& p, SessionOptions opt)
    : Session(TuningContext::calibrate(dev, def, p), opt) {}

void Session::add_model_time(double seconds, std::size_t points) {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.model_seconds += seconds;
  stats_.model_points += points;
}

void Session::add_machine_time(double seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.machine_seconds += seconds;
}

std::vector<analysis::Diagnostic> Session::audit(
    std::optional<hhc::TileSizes> ts,
    std::optional<hhc::ThreadConfig> thr) const {
  // Read-only over the immutable context: no pool, no caches, no
  // stats — nothing a tuning path could observe.
  analysis::AuditOptions opt;
  opt.ts = ts;
  opt.thr = thr;
  opt.problem = ctx_.problem;
  opt.dev = ctx_.dev;
  opt.calibration = ctx_.inputs;
  analysis::DiagnosticEngine diags;
  analysis::audit_stencil_def(ctx_.def, opt, diags);
  return diags.diagnostics();
}

SweepStats Session::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t Session::cache_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return points_held_;
}

std::size_t Session::tiles_held() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tiles_.size();
}

void Session::clear_cache() {
  std::lock_guard<std::mutex> lk(mu_);
  tiles_.clear();
  steps_.clear();
  points_held_ = 0;
}

std::span<const stencil::KernelVariant> Session::variant_axis(
    std::span<const stencil::KernelVariant> variants) const noexcept {
  static constexpr stencil::KernelVariant kDefault{};
  return (variants.empty() || ctx_.dev.is_cpu())
             ? std::span<const stencil::KernelVariant>(&kDefault, 1)
             : variants;
}

double Session::price_misses(const hhc::TileSizes& ts,
                             std::span<const stencil::KernelVariant> vars,
                             std::span<const hhc::ThreadConfig> thrs,
                             std::span<const std::size_t> miss, double talg,
                             const gpusim::TileCostProfile* prof,
                             std::span<std::optional<EvaluatedPoint>> out) {
  const std::size_t nthr = thrs.size();
  const auto fill = [&](std::size_t i, const auto& res) {
    EvaluatedPoint& ep = out[i].emplace();
    ep.dp = DataPoint{ts, thrs[i % nthr], vars[i / nthr]};
    ep.talg = talg;
    take_result(ep, res);
  };
  if (ctx_.dev.is_cpu()) {
    // cpusim prices no variants, so every miss is one strand count of
    // a single batch call.
    std::vector<hhc::ThreadConfig> batch;
    batch.reserve(miss.size());
    for (const std::size_t i : miss) batch.push_back(thrs[i % nthr]);
    std::vector<cpusim::SimResult> res(miss.size());
    const auto t0 = Clock::now();
    cpusim::measure_best_of_batch(ctx_.dev.cpu(), ctx_.def, ctx_.problem,
                                  ts, batch, res);
    const double priced = seconds_since(t0);
    for (std::size_t k = 0; k < miss.size(); ++k) fill(miss[k], res[k]);
    return priced;
  }
  // Stage two: each point against the tile's profile.
  const auto t0 = Clock::now();
  for (const std::size_t i : miss) {
    fill(i, gpusim::measure_best_of(ctx_.dev.gpu(), ctx_.def, ctx_.problem,
                                    ts, thrs[i % nthr], *prof, /*runs=*/5,
                                    vars[i / nthr]));
  }
  return seconds_since(t0);
}

void Session::measure_tile(const hhc::TileSizes& ts,
                           std::span<const stencil::KernelVariant> vars,
                           std::span<const hhc::ThreadConfig> thrs,
                           const TileBound* bound,
                           std::span<std::optional<EvaluatedPoint>> out,
                           std::optional<double> talg) {
  const bool cpu = ctx_.dev.is_cpu();
  const TileKey key = tile_key(ts);
  const std::size_t nthr = thrs.size();
  std::fill(out.begin(), out.end(), std::nullopt);

  // Read the tile's record once: its profile, its Talg (unless the
  // caller knows it) and every requested point it already holds
  // (those slots are the hits). A tile without a profile may step
  // from a cached one sharing (tT, tS1).
  std::shared_ptr<const gpusim::TileCostProfile> prof;
  std::shared_ptr<const gpusim::TileCostProfile> base;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = tiles_.find(key);
    if (it != tiles_.end()) {
      const TileRecord& rec = it->second;
      prof = rec.profile;
      if (!talg) talg = rec.talg;
      for (std::size_t i = 0; !rec.points.empty() && i < out.size(); ++i) {
        const EvaluatedPoint* ep =
            find_point(rec.points, thrs[i % nthr], vars[i / nthr]);
        if (ep != nullptr) out[i] = *ep;
      }
    }
    if (!cpu && !prof) {
      const auto sit = steps_.find(StepKey{ts.tT, ts.tS1});
      if (sit != steps_.end() && sit->second->valid()) base = sit->second;
    }
  }

  // Counters and the record's new state accumulate locally and are
  // committed under one lock at the end.
  SweepStats local;
  const bool prof_cached = prof != nullptr;
  bool prof_changed = false;
  // GPU stage one on demand: the record's profile, else one built
  // here, bounds-only until the tile is priced. Racing builders
  // produce identical profiles, so which one the record keeps can
  // never change a result.
  const auto stage_one = [&](bool priced) {
    if (prof_cached) local.profile_hits = 1;
    if (prof && (!priced || prof->has_histograms())) return;
    const auto t0 = Clock::now();
    if (!prof) {
      if (base) {
        prof = std::make_shared<const gpusim::TileCostProfile>(
            base->build_step(ts));
        ++local.profile_steps;
      } else {
        prof = std::make_shared<const gpusim::TileCostProfile>(
            priced ? gpusim::TileCostProfile::build(ctx_.problem, ts,
                                                    ctx_.def.radius)
                   : gpusim::TileCostProfile::build_bounds(
                         ctx_.problem, ts, ctx_.def.radius));
        ++local.profile_builds;
      }
    }
    if (priced) {
      if (!prof->has_histograms()) {
        prof = std::make_shared<const gpusim::TileCostProfile>(
            prof->with_histograms());
      }
      ++local.histogram_builds;
    }
    local.geometry_seconds += seconds_since(t0);
    prof_changed = true;
  };

  // Pass 1 walks the points variant-major, serving hits and bounding
  // misses; pass 2 prices the surviving misses.
  //
  // While the tile's floor over its (thread, variant) axes exceeds
  // the incumbent, which only tightens, every miss is pruned on it
  // without a profile or a point bound; otherwise each miss is bounded
  // on its own (a CPU tile is analyzed once, on the first such miss).
  // The floor is <= every point bound, so the pruned set is the one
  // the point bounds alone would prune.
  std::optional<cpusim::TileFloors> cpu_floors;
  const auto analyze_cpu = [&]() -> const cpusim::TileFloors& {
    if (!cpu_floors) {
      cpu_floors.emplace(ctx_.dev.cpu(), ctx_.def, ctx_.problem, ts);
    }
    return *cpu_floors;
  };
  std::vector<std::size_t> miss;  // ascending: the visit order
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i]) {
      ++local.machine_points;
      ++local.cache_hits;
      if (bound != nullptr && out[i]->feasible) bound->inc.offer(out[i]->texec);
      continue;
    }
    if (bound != nullptr) {
      // Bound gate: only worth evaluating once an incumbent exists. A
      // prune requires bound > incumbent strictly — see the header
      // comment's determinism invariant.
      const double cut = bound->inc.load();
      if (cut < std::numeric_limits<double>::infinity()) {
        if (bound->floor_s > cut) {
          ++local.points_pruned;
          continue;
        }
        if (!cpu) stage_one(/*priced=*/false);
        const hhc::ThreadConfig& thr = thrs[i % nthr];
        const auto tb = Clock::now();
        const double point_s =
            cpu ? analyze_cpu().point(thr).seconds
                : gpusim::lower_bound(ctx_.dev.gpu(), ctx_.def, ctx_.problem,
                                      ts, thr, *prof, vars[i / nthr])
                      .seconds;
        local.bound_seconds += seconds_since(tb);
        if (point_s > cut) {
          ++local.points_pruned;
          continue;
        }
      }
    }
    miss.push_back(i);
  }

  if (!miss.empty()) {
    // Talg depends only on the tile, not on threads or variant.
    if (!talg) talg = model_talg_or_inf(ctx_.inputs, ctx_.problem, ts);
    if (!cpu) stage_one(/*priced=*/true);
    local.pricing_seconds +=
        price_misses(ts, vars, thrs, miss, *talg, prof.get(), out);
    local.machine_points += miss.size();
    if (bound != nullptr) {
      for (const std::size_t i : miss) {
        if (out[i]->feasible) bound->inc.offer(out[i]->texec);
      }
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  stats_ += local;
  if (miss.empty() && !prof_changed) return;
  TileRecord& rec = tiles_[key];
  if (prof_changed &&
      (!rec.profile ||
       (prof->has_histograms() && !rec.profile->has_histograms()))) {
    rec.profile = prof;
    steps_[StepKey{ts.tT, ts.tS1}] = prof;
  }
  if (talg && !rec.talg) rec.talg = talg;
  // Two workers may race to price the same point; they measure the
  // same value, so the first commit wins.
  for (const std::size_t i : miss) {
    const EvaluatedPoint& ep = *out[i];
    if (find_point(rec.points, ep.dp.thr, ep.dp.var) == nullptr) {
      rec.points.push_back(ep);
      ++points_held_;
    }
  }
}

EvaluatedPoint Session::measure(const DataPoint& dp) {
  std::optional<EvaluatedPoint> ep;
  measure_tile(dp.ts, {&dp.var, 1}, {&dp.thr, 1}, nullptr, {&ep, 1});
  return *ep;
}

void Session::fold_best(EvaluatedPoint& best, const EvaluatedPoint& cand) {
  if (!cand.feasible) return;
  if (!best.feasible || cand.texec < best.texec) best = cand;
}

ModelSweep Session::sweep_model(std::span<const hhc::TileSizes> space,
                                double delta) {
  validate_sweep_delta(delta);
  const auto t0 = Clock::now();
  const model::ModelInputs& in = ctx_.inputs;
  const stencil::ProblemSize& p = ctx_.problem;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ModelSweep sweep;
  sweep.space_size = space.size();
  sweep.talg_min = kInf;

  // Bounded sweep (model::TalgFloor). The tile with the smallest floor
  // (first index among equals) is priced exactly, and its Talg B fixes
  // the cut B (1 + delta). A tile is priced exactly only if its floor
  // does not exceed the cut: every other tile has Talg > B >=
  // talg_min, and talg_min (1 + delta) <= the cut, so it is neither
  // the argmin nor a candidate. B depends only on the space, so the
  // priced set does not depend on the job count.
  //
  // The tiles are walked in (tT, tS1) runs, segment by segment
  // (TalgFloor::segment_end): a segment's run floors (over_run, <=
  // each tile floor of the run) do not decrease along it, so a walk
  // up a segment stops at its first run above its bound. The argmin
  // search walks the segment with the smallest head first, then every
  // segment under the best tile floor so far; pricing walks every
  // segment under the cut. Unmodeled inputs (floors of 0) and an
  // infinite cut (no feasible tile) price every tile.
  const model::TalgFloor floor(in, p);
  // The walk needs the runs in ascending (tT, tS1), the order
  // enumerate_feasible emits.
  if (!std::is_sorted(space.begin(), space.end(),
                      [](const hhc::TileSizes& a, const hhc::TileSizes& b) {
                        return std::tie(a.tT, a.tS1) < std::tie(b.tT, b.tS1);
                      })) {
    throw std::invalid_argument(
        "sweep_model: the space is not in ascending (tT, tS1) order");
  }
  // The end of the stretch of `space` from j (below hi) on which
  // `pred` holds, given that it holds at j and then on a prefix: a
  // galloping search, logarithmic in the stretch's length, since most
  // runs and many segments hold a few tiles.
  const auto stretch_end = [&](std::size_t j, std::size_t hi,
                               const auto& pred) {
    std::size_t step = 1;
    for (; j + step < hi && pred(space[j + step]); step *= 2) j += step;
    return static_cast<std::size_t>(
        std::partition_point(space.begin() + j + 1,
                             space.begin() + std::min(j + step, hi), pred) -
        space.begin());
  };

  // Segment k is [begin, end) of `space`, its first run floor `head`;
  // the argmin search holds the tile floors of its first `held` tiles
  // (whole runs), from floors[floors_at].
  struct Segment {
    std::size_t begin, end;
    double head;
    std::size_t held = 0, floors_at = 0;
  };
  std::vector<Segment> segments;
  for (std::size_t j = 0; j < space.size();) {
    const std::int64_t tT = space[j].tT;
    const std::int64_t stop = floor.segment_end(space[j]);
    const std::size_t end =
        stretch_end(j, space.size(), [&](const hhc::TileSizes& t) {
          return t.tT == tT && t.tS1 < stop;
        });
    segments.push_back(
        {.begin = j, .end = end, .head = floor.over_run(space[j])});
    j = end;
  }
  // Calls visit(begin, end) on each run of `seg`, in ascending tS1,
  // while its run floor does not exceed `bound` (read before each run,
  // so a bound that tightens during the walk applies at once).
  const auto walk = [&](const Segment& seg, const double& bound,
                        const auto& visit) {
    double run_floor = seg.head;
    for (std::size_t j = seg.begin; j < seg.end && run_floor <= bound;) {
      const std::int64_t tS1 = space[j].tS1;
      const std::size_t end = stretch_end(
          j, seg.end, [&](const hhc::TileSizes& t) { return t.tS1 == tS1; });
      visit(j, end);
      j = end;
      if (j < seg.end) run_floor = floor.over_run(space[j]);
    }
  };

  std::size_t b = space.size();  // the floor-argmin tile, once priced
  double talg_b = kInf;
  double cut = kInf;
  std::vector<double> floors;
  if (floor.modeled() && !segments.empty()) {
    model::TalgFloor::Run run;
    double best = kInf;
    const auto seek = [&](Segment& seg) {
      seg.floors_at = floors.size();
      walk(seg, best, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) {
          const double f = floors.emplace_back(floor(space[j], run));
          if (f < best || (f == best && j < b)) {
            best = f;
            b = j;
          }
        }
      });
      seg.held = floors.size() - seg.floors_at;
    };
    const auto first = std::min_element(
        segments.begin(), segments.end(),
        [](const Segment& x, const Segment& y) { return x.head < y.head; });
    seek(*first);
    for (auto it = segments.begin(); it != segments.end(); ++it) {
      if (it != first) seek(*it);
    }
    talg_b = model_talg_or_inf(in, p, space[b]);
    cut = talg_b * (1.0 + delta);
  }

  // The runs the cut keeps, priced in fixed chunks of kept runs, each
  // chunk with its own TalgFloor::Run: the exact Talg of each tile
  // whose floor (held from the argmin search, else computed) does not
  // exceed the cut, in one slot per kept tile.
  constexpr std::size_t kNotHeld = std::numeric_limits<std::size_t>::max();
  struct KeptRun {
    std::size_t begin, end, slot, floors_at;
  };
  std::vector<KeptRun> kept;
  std::size_t slots = 0;
  for (const Segment& seg : segments) {
    walk(seg, cut, [&](std::size_t lo, std::size_t hi) {
      const std::size_t off = lo - seg.begin;
      kept.push_back(
          {lo, hi, slots, off < seg.held ? seg.floors_at + off : kNotHeld});
      slots += hi - lo;
    });
  }
  // (span index, Talg) of each kept tile, the Talg set where priced.
  std::vector<std::pair<std::size_t, std::optional<double>>> talg(slots);
  constexpr std::size_t kRunChunk = 16;
  const std::size_t chunks = (kept.size() + kRunChunk - 1) / kRunChunk;
  pool_.for_each_index(chunks, /*grain=*/1, [&](std::size_t c) {
    model::TalgFloor::Run run;
    const std::size_t hi = std::min((c + 1) * kRunChunk, kept.size());
    for (std::size_t k = c * kRunChunk; k < hi; ++k) {
      const KeptRun& kr = kept[k];
      for (std::size_t j = kr.begin; j < kr.end; ++j) {
        auto& [i, t] = talg[kr.slot + j - kr.begin];
        i = j;
        if (j == b) {
          t = talg_b;
          continue;
        }
        const double f = kr.floors_at == kNotHeld
                             ? floor(space[j], run)
                             : floors[kr.floors_at + j - kr.begin];
        if (f <= cut) t = model_talg_or_inf(in, p, space[j]);
      }
    }
  });

  // Selection in span index order, as the full loop makes it.
  std::size_t priced = 0;
  for (const auto& [i, t] : talg) {
    if (!t) continue;
    ++priced;
    if (*t < sweep.talg_min) {
      sweep.talg_min = *t;
      sweep.argmin = space[i];
    }
  }
  const double cutoff = sweep.talg_min * (1.0 + delta);
  const auto candidates = static_cast<std::size_t>(
      std::count_if(talg.begin(), talg.end(), [&](const auto& e) {
        return e.second && *e.second <= cutoff;
      }));
  sweep.candidates.reserve(candidates);
  sweep.candidate_talg.reserve(candidates);
  for (const auto& [i, t] : talg) {
    if (t && *t <= cutoff) {
      sweep.candidates.push_back(space[i]);
      sweep.candidate_talg.push_back(*t);
    }
  }
  add_model_time(seconds_since(t0), priced);
  return sweep;
}

EvaluatedPoint Session::evaluate_point(const DataPoint& dp) {
  const auto t0 = Clock::now();
  const EvaluatedPoint ep = measure(dp);
  add_machine_time(seconds_since(t0));
  return ep;
}

std::vector<EvaluatedPoint> Session::evaluate_points(
    std::span<const DataPoint> dps) {
  const auto t0 = Clock::now();
  std::vector<EvaluatedPoint> out = parallel_map<EvaluatedPoint>(
      pool_, dps.size(), /*grain=*/8,
      [&](std::size_t i) { return measure(dps[i]); });
  add_machine_time(seconds_since(t0));
  return out;
}

EvaluatedPoint Session::sweep_tile(
    const hhc::TileSizes& ts,
    std::span<const stencil::KernelVariant> variants, const TileBound* bound,
    std::optional<double> talg) {
  const std::span<const stencil::KernelVariant> vars = variant_axis(variants);
  // Results land in visit-order slots, so the fold's tie-breaking is
  // the serial variant-major loop's.
  std::vector<std::optional<EvaluatedPoint>> slot(vars.size() *
                                                  threads_.size());
  measure_tile(ts, vars, threads_, bound, slot, talg);
  EvaluatedPoint best;
  for (const std::optional<EvaluatedPoint>& ep : slot) {
    if (ep) fold_best(best, *ep);
  }
  return best;
}

EvaluatedPoint Session::best_over_threads(const hhc::TileSizes& ts) {
  const auto t0 = Clock::now();
  const EvaluatedPoint best = sweep_tile(ts, {}, nullptr);
  add_machine_time(seconds_since(t0));
  return best;
}

std::vector<EvaluatedPoint> Session::best_over_threads_many(
    std::span<const hhc::TileSizes> tiles) {
  const auto t0 = Clock::now();
  // Unbounded: every tile's best is an output here (fig5 emits one
  // CSV row per tile), so no tile can be pruned against another.
  std::vector<EvaluatedPoint> out = parallel_map<EvaluatedPoint>(
      pool_, tiles.size(), /*grain=*/4,
      [&](std::size_t i) { return sweep_tile(tiles[i], {}, nullptr); });
  add_machine_time(seconds_since(t0));
  return out;
}

EvaluatedPoint Session::best_tile(
    std::span<const hhc::TileSizes> tiles,
    std::span<const stencil::KernelVariant> variants,
    std::span<const WarmSeed> seeds, double incumbent_seed) {
  return seeded_best(tiles, {}, variants, seeds, incumbent_seed);
}

EvaluatedPoint Session::best_tile(
    const ModelSweep& sweep, std::span<const stencil::KernelVariant> variants,
    std::span<const WarmSeed> seeds, double incumbent_seed) {
  return seeded_best(sweep.candidates, sweep.candidate_talg, variants, seeds,
                     incumbent_seed);
}

EvaluatedPoint Session::seeded_best(
    std::span<const hhc::TileSizes> tiles, std::span<const double> talg,
    std::span<const stencil::KernelVariant> variants,
    std::span<const WarmSeed> seeds, double incumbent_seed) {
  validate_incumbent_seed(incumbent_seed);
  const auto t0 = Clock::now();
  // Admissibility filter: a seed may only enter the incumbent when
  // its point lies inside THIS sweep's space — otherwise a foreign
  // point could beat the space's argmin and prune it away. The space
  // membership test mirrors sweep_tile exactly: the variant axis
  // collapses to the default on an empty span or a CPU device.
  const std::span<const stencil::KernelVariant> vars = variant_axis(variants);
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.seeds_offered += seeds.size();
  }
  double seed = incumbent_seed;
  std::vector<hhc::TileSizes> priority;
  for (const WarmSeed& ws : seeds) {
    const bool in_space =
        std::find(tiles.begin(), tiles.end(), ws.ts) != tiles.end() &&
        std::find(threads_.begin(), threads_.end(), ws.thr) !=
            threads_.end() &&
        std::find(vars.begin(), vars.end(), ws.var) != vars.end();
    if (!in_space) continue;
    // Re-price the neighbor's point under this session's problem. The
    // sweep below revisits the point (it is in space), so the tile's
    // record serves it back and it participates in the final
    // reduction — which is exactly what makes seeding it admissible.
    const EvaluatedPoint ep = measure(DataPoint{ws.ts, ws.thr, ws.var});
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.seeds_admitted;
    }
    if (ep.feasible && ep.texec < seed) seed = ep.texec;
    if (std::find(priority.begin(), priority.end(), ws.ts) ==
        priority.end()) {
      priority.push_back(ws.ts);
    }
  }
  const EvaluatedPoint best =
      best_of_tiles(tiles, talg, variants, seed, priority);
  add_machine_time(seconds_since(t0));
  return best;
}

EvaluatedPoint Session::best_of_tiles(
    std::span<const hhc::TileSizes> tiles, std::span<const double> talg,
    std::span<const stencil::KernelVariant> variants, double incumbent_seed,
    std::span<const hhc::TileSizes> priority) {
  const auto known = [&](std::size_t i) {
    return talg.empty() ? std::nullopt : std::optional<double>(talg[i]);
  };
  if (!opt_.prune) {
    return parallel_reduce<EvaluatedPoint>(
        pool_, tiles.size(), /*grain=*/4, EvaluatedPoint{},
        [&](EvaluatedPoint& acc, std::size_t i) {
          fold_best(acc, sweep_tile(tiles[i], variants, nullptr, known(i)));
        },
        [](EvaluatedPoint a, EvaluatedPoint b) {
          fold_best(a, b);
          return a;
        });
  }
  // Pruned path: one incumbent spans the whole reduction (a single
  // best is returned, so cross-tile pruning is safe). Every tile's
  // floor is computed first, in one lock-free pass; tiles are then
  // visited candidate-first (warm-seeded tiles, when any), then in
  // ascending floor and model-Talg order so the incumbent tightens
  // early. A tile whose floor exceeds the incumbent is not visited at
  // all: every point of it, cached ones included, is strictly worse
  // than the final minimum. The per-tile bests are folded serially in
  // the original index order afterwards — identical tie-breaking to
  // the unpruned reduction above. The Talg keys are the caller's
  // values when it has them.
  const std::vector<double> floors = tile_floors(tiles, variants);
  const auto tb = Clock::now();
  std::vector<double> computed;
  if (talg.empty()) {
    computed = parallel_map<double>(
        pool_, tiles.size(), /*grain=*/64, [&](std::size_t i) {
          return model_talg_or_inf(ctx_.inputs, ctx_.problem, tiles[i]);
        });
    talg = computed;
  }
  // Visit keys (rank, floor, Talg, index), rank 0 for a warm-seeded
  // tile: sorting them is a stable sort of the indices by (rank,
  // floor, Talg), without the indirection.
  std::unordered_set<TileKey, TileKeyHash> first;
  for (const hhc::TileSizes& ts : priority) first.insert(tile_key(ts));
  std::vector<std::tuple<bool, double, double, std::size_t>> visit(
      tiles.size());
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    visit[i] = {first.empty() || !first.contains(tile_key(tiles[i])),
                floors[i], talg[i], i};
  }
  std::sort(visit.begin(), visit.end());
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.bound_seconds += seconds_since(tb);
  }
  const std::size_t axis = variant_axis(variants).size() * threads_.size();
  std::atomic<std::size_t> skipped{0};
  Incumbent inc;
  inc.offer(incumbent_seed);
  std::vector<EvaluatedPoint> slot(tiles.size());
  pool_.for_each_index(tiles.size(), /*grain=*/1, [&](std::size_t j) {
    const std::size_t i = std::get<3>(visit[j]);
    if (floors[i] > inc.load()) {
      skipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const TileBound bound{inc, floors[i]};
    slot[i] = sweep_tile(tiles[i], variants, &bound, talg[i]);
  });
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.points_pruned += skipped.load() * axis;
  }
  EvaluatedPoint out;
  for (const EvaluatedPoint& ep : slot) fold_best(out, ep);
  return out;
}

std::vector<double> Session::tile_floors(
    std::span<const hhc::TileSizes> tiles,
    std::span<const stencil::KernelVariant> variants) {
  const auto t0 = Clock::now();
  const std::span<const stencil::KernelVariant> vars = variant_axis(variants);
  const bool cpu = ctx_.dev.is_cpu();
  std::vector<double> floors(tiles.size());
  std::atomic<std::size_t> builds{0};
  std::atomic<std::size_t> steps{0};
  // Fixed chunks, each with its own step chain: a tile sharing
  // (tT, tS1) with the previous tile of its chunk steps from that
  // tile's bounds-only profile, any other builds one. build_step is
  // bit-identical to build_bounds, so the floors depend on neither
  // the chunking nor the job count; the counters depend only on the
  // chunking.
  const std::size_t chunks = (tiles.size() + kFloorChunk - 1) / kFloorChunk;
  pool_.for_each_index(chunks, /*grain=*/1, [&](std::size_t c) {
    const std::size_t lo = c * kFloorChunk;
    const std::size_t hi = std::min(lo + kFloorChunk, tiles.size());
    std::size_t chunk_builds = 0;
    std::size_t chunk_steps = 0;
    std::optional<gpusim::TileCostProfile> prof;
    for (std::size_t i = lo; i < hi; ++i) {
      const hhc::TileSizes& ts = tiles[i];
      if (cpu) {
        floors[i] = cpusim::TileFloors(ctx_.dev.cpu(), ctx_.def, ctx_.problem,
                                       ts)
                        .over(threads_)
                        .seconds;
        continue;
      }
      if (prof && prof->valid() && tiles[i - 1].tT == ts.tT &&
          tiles[i - 1].tS1 == ts.tS1) {
        prof = prof->build_step(ts);
        ++chunk_steps;
      } else {
        prof = gpusim::TileCostProfile::build_bounds(ctx_.problem, ts,
                                                     ctx_.def.radius);
        ++chunk_builds;
      }
      floors[i] = gpusim::tile_floor(ctx_.dev.gpu(), ctx_.def, ctx_.problem,
                                     ts, threads_, vars, *prof)
                      .seconds;
    }
    builds.fetch_add(chunk_builds, std::memory_order_relaxed);
    steps.fetch_add(chunk_steps, std::memory_order_relaxed);
  });
  std::lock_guard<std::mutex> lk(mu_);
  stats_.profile_builds += builds.load();
  stats_.profile_steps += steps.load();
  stats_.bound_seconds += seconds_since(t0);
  return floors;
}

StrategyComparison Session::compare_strategies(const CompareOptions& opt) {
  opt.validate();
  StrategyComparison cmp;
  cmp.device = ctx_.dev.name();
  cmp.stencil = ctx_.def.name;
  cmp.problem = ctx_.problem;

  const int dim = ctx_.problem.dim;
  const std::vector<hhc::TileSizes> space =
      enumerate_feasible(dim, ctx_.inputs.hw, opt.enumeration,
                         ctx_.def.radius);
  // Every *tuned* pass searches the variant axis too (empty = default
  // variant only, byte-identical to the pre-variant comparison). The
  // untuned HHC default stays on the default variant: an untuned
  // compile picks no variant either.
  const std::span<const stencil::KernelVariant> vars(
      opt.enumeration.variants);

  // 1. Untuned compiler defaults: default tile sizes AND the default
  // 32x2 thread block — no tuning of any kind (the paper's "HHC" bar).
  const auto t_machine0 = Clock::now();
  cmp.hhc_default = measure(
      DataPoint{hhc_default_tiles(dim),
                dim == 1 ? hhc::ThreadConfig{64, 1, 1}
                         : hhc::ThreadConfig{32, 2, 1}});
  add_machine_time(seconds_since(t_machine0));

  // 2. The single model-minimal point (sweep_model times the model
  // phase itself).
  const ModelSweep sweep = sweep_model(space, opt.delta);
  cmp.space_size = sweep.space_size;

  const auto t_machine = Clock::now();
  cmp.talg_min = best_of_tiles({&sweep.argmin, 1}, {&sweep.talg_min, 1}, vars);

  // 3. Best of the paper's baseline experiment set, drawn from the
  // space enumerated above.
  const std::vector<hhc::TileSizes> baseline = baseline_tile_set(
      dim, space, ctx_.inputs.hw, opt.baseline_count, ctx_.def.radius);
  cmp.baseline_best = best_of_tiles(baseline, {}, vars);

  // 4. Best of the within-10 %-of-Talg_min candidates.
  cmp.candidates_tried = sweep.candidates.size();
  cmp.within10_best =
      best_of_tiles(sweep.candidates, sweep.candidate_talg, vars);

  // 5. Exhaustive search over the feasible space (deterministically
  // subsampled when capped): the reference the paper could not run at
  // full scale ("these took many weeks of dedicated machine time").
  // exhaustive_cap == 0 means no cap (stride stays 1).
  std::size_t stride = 1;
  if (opt.exhaustive_cap > 0 && space.size() > opt.exhaustive_cap) {
    stride = (space.size() + opt.exhaustive_cap - 1) / opt.exhaustive_cap;
  }
  std::vector<hhc::TileSizes> visited;
  visited.reserve(space.size() / stride + 1);
  for (std::size_t i = 0; i < space.size(); i += stride) {
    visited.push_back(space[i]);
  }
  // Every baseline and within-10% point that reappears here is a
  // memo-cache hit rather than a fresh simulation. Seeding the
  // incumbent with the earlier passes' best is safe because those
  // points are folded into cmp.exhaustive below — the seed is a
  // measured texec participating in this reduction.
  double seed = std::numeric_limits<double>::infinity();
  for (const EvaluatedPoint* ep :
       {&cmp.talg_min, &cmp.within10_best, &cmp.baseline_best}) {
    if (ep->feasible && ep->texec < seed) seed = ep->texec;
  }
  cmp.exhaustive = best_of_tiles(visited, {}, vars, seed);

  // The exhaustive pass subsumes every specific strategy point it
  // visited; make sure it is at least as good as the others.
  for (const EvaluatedPoint* ep :
       {&cmp.talg_min, &cmp.within10_best, &cmp.baseline_best}) {
    if (ep->feasible &&
        (!cmp.exhaustive.feasible || ep->texec < cmp.exhaustive.texec)) {
      cmp.exhaustive = *ep;
    }
  }
  add_machine_time(seconds_since(t_machine));
  return cmp;
}

SolverResult Session::anneal_talg(const EnumOptions& bounds,
                                  std::uint64_t seed, int iterations) {
  const auto t0 = Clock::now();
  const SolverResult sol =
      tuner::anneal_talg(ctx_.inputs, ctx_.problem, bounds, seed, iterations);
  add_model_time(seconds_since(t0),
                 static_cast<std::size_t>(sol.evaluations));
  return sol;
}

}  // namespace repro::tuner
