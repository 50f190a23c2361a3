#include "tuner/session.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <utility>

#include "analysis/audit.hpp"
#include "common/rng.hpp"
#include "cpusim/lower_bound.hpp"
#include "cpusim/microbench.hpp"
#include "cpusim/timing.hpp"
#include "gpusim/cost_profile.hpp"
#include "gpusim/lower_bound.hpp"
#include "gpusim/microbench.hpp"
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
  return with_inputs(dev, def, p,
                     dev.is_gpu() ? gpusim::calibrate_model(dev.gpu(), def)
                                  : cpusim::calibrate_model(dev.cpu(), def));
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

void Session::reset_stats() {
  std::lock_guard<std::mutex> lk(mu_);
  stats_ = SweepStats{};
}

std::size_t Session::cache_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return points_held_;
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

double Session::price_batch(const hhc::TileSizes& ts,
                            const stencil::KernelVariant& var,
                            std::span<const hhc::ThreadConfig> thrs,
                            double talg, const gpusim::TileCostProfile* prof,
                            std::span<EvaluatedPoint> out) {
  const auto fill = [&](const auto& results) {
    for (std::size_t j = 0; j < thrs.size(); ++j) {
      out[j].dp = DataPoint{ts, thrs[j], var};
      out[j].talg = talg;
      take_result(out[j], results[j]);
    }
  };
  if (ctx_.dev.is_cpu()) {
    std::vector<cpusim::SimResult> res(thrs.size());
    const auto t0 = Clock::now();
    cpusim::measure_best_of_batch(ctx_.dev.cpu(), ctx_.def, ctx_.problem,
                                  ts, thrs, res);
    const double priced = seconds_since(t0);
    fill(res);
    return priced;
  }
  // Stage two: the SoA fold over every thread config.
  std::vector<gpusim::SimResult> res(thrs.size());
  const auto t0 = Clock::now();
  gpusim::measure_best_of_batch(ctx_.dev.gpu(), ctx_.def, ctx_.problem, ts,
                                thrs, *prof, res, /*runs=*/5, var);
  const double priced = seconds_since(t0);
  fill(res);
  return priced;
}

void Session::measure_tile(const hhc::TileSizes& ts,
                           std::span<const stencil::KernelVariant> vars,
                           std::span<const hhc::ThreadConfig> thrs,
                           Incumbent* inc,
                           std::span<std::optional<EvaluatedPoint>> out) {
  const bool cpu = ctx_.dev.is_cpu();
  const bool bounded = inc != nullptr && opt_.prune;
  const TileKey key{ts.tT, ts.tS1, ts.tS2, ts.tS3};
  const std::size_t nthr = thrs.size();
  std::fill(out.begin(), out.end(), std::nullopt);

  // Read the tile's record once: its profile, its Talg and every
  // requested point it already holds (those slots are the hits). A
  // tile without a profile may step from a cached one sharing
  // (tT, tS1).
  std::shared_ptr<const gpusim::TileCostProfile> prof;
  std::shared_ptr<const gpusim::TileCostProfile> base;
  std::optional<double> talg;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = tiles_.find(key);
    if (it != tiles_.end()) {
      const TileRecord& rec = it->second;
      prof = rec.profile;
      talg = rec.talg;
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
  // misses; pass 2 prices each variant's surviving misses in one
  // batch call.
  //
  // The CPU bound never reads the strand count, so it is evaluated
  // once per tile, on the first miss that needs it. Every measured
  // texec of this tile is >= that bound, so at one worker a tile's
  // misses are either all pruned or none are, exactly as in a
  // point-by-point walk.
  std::optional<double> cpu_tile_bound;
  std::vector<std::size_t> miss;  // ascending, so grouped by variant
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i]) {
      ++local.machine_points;
      ++local.cache_hits;
      if (bounded && out[i]->feasible) inc->offer(out[i]->texec);
      continue;
    }
    if (bounded) {
      // Bound gate: only worth evaluating once an incumbent exists. A
      // prune requires lower_bound > incumbent strictly — see the
      // header comment's determinism invariant.
      const double cut = inc->load();
      if (cut < std::numeric_limits<double>::infinity()) {
        if (!cpu) stage_one(/*priced=*/false);
        const hhc::ThreadConfig& thr = thrs[i % nthr];
        const auto tb = Clock::now();
        double bound = std::numeric_limits<double>::infinity();
        if (cpu) {
          if (!cpu_tile_bound) {
            cpu_tile_bound = cpusim::lower_bound(ctx_.dev.cpu(), ctx_.def,
                                                 ctx_.problem, ts)
                                 .seconds;
          }
          if (cpusim::strands_in_range(thr)) bound = *cpu_tile_bound;
        } else {
          bound = gpusim::lower_bound(ctx_.dev.gpu(), ctx_.def, ctx_.problem,
                                      ts, thr, *prof, vars[i / nthr])
                      .seconds;
        }
        local.bound_seconds += seconds_since(tb);
        if (bound > cut) {
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
    std::vector<hhc::ThreadConfig> batch;
    std::vector<EvaluatedPoint> priced;
    for (std::size_t lo = 0; lo < miss.size();) {
      const std::size_t vi = miss[lo] / nthr;
      std::size_t hi = lo;
      batch.clear();
      for (; hi < miss.size() && miss[hi] / nthr == vi; ++hi) {
        batch.push_back(thrs[miss[hi] % nthr]);
      }
      priced.assign(batch.size(), EvaluatedPoint{});
      local.pricing_seconds +=
          price_batch(ts, vars[vi], batch, *talg, prof.get(), priced);
      local.machine_points += batch.size();
      for (std::size_t k = 0; k < priced.size(); ++k) {
        if (bounded && priced[k].feasible) inc->offer(priced[k].texec);
        out[miss[lo + k]] = priced[k];
      }
      lo = hi;
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
  ModelSweep sweep;
  sweep.space_size = space.size();
  sweep.talg_min = std::numeric_limits<double>::infinity();

  // Model pricing is pure; evaluate the whole space on the pool, then
  // select argmin and candidates serially in index order (identical
  // tie-breaking to the serial loop for any worker count).
  const std::vector<double> values = parallel_map<double>(
      pool_, space.size(), /*grain=*/64, [&](std::size_t i) {
        return model_talg_or_inf(ctx_.inputs, ctx_.problem, space[i]);
      });
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (values[i] < sweep.talg_min) {
      sweep.talg_min = values[i];
      sweep.argmin = space[i];
    }
  }
  const double cutoff = sweep.talg_min * (1.0 + delta);
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (values[i] <= cutoff) sweep.candidates.push_back(space[i]);
  }
  add_model_time(seconds_since(t0), space.size());
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

std::vector<EvaluatedPoint> Session::evaluate_points(
    std::span<const DataPoint> dps, Incumbent& inc) {
  // A poisoned incumbent (NaN / negative) would silently prune valid
  // points — reject it at the entry point, like a bad seed (SL315).
  validate_incumbent_seed(inc.load());
  const auto t0 = Clock::now();
  // Visit in ascending model-Talg order so the incumbent tightens
  // early; results still land in their original slots, so out[i]
  // always corresponds to dps[i].
  const auto tb = Clock::now();
  const std::vector<double> talg = parallel_map<double>(
      pool_, dps.size(), /*grain=*/64, [&](std::size_t i) {
        return model_talg_or_inf(ctx_.inputs, ctx_.problem, dps[i].ts);
      });
  std::vector<std::size_t> order(dps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return talg[a] < talg[b];
                   });
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.bound_seconds += seconds_since(tb);
  }
  std::vector<EvaluatedPoint> out(dps.size());
  pool_.for_each_index(dps.size(), /*grain=*/1, [&](std::size_t j) {
    const std::size_t i = order[j];
    const DataPoint& dp = dps[i];
    std::optional<EvaluatedPoint> ep;
    measure_tile(dp.ts, {&dp.var, 1}, {&dp.thr, 1}, &inc, {&ep, 1});
    if (ep) {
      out[i] = *ep;
    } else {
      out[i].dp = dp;  // pruned: provably not the scope's argmin
    }
  });
  add_machine_time(seconds_since(t0));
  return out;
}

EvaluatedPoint Session::sweep_tile(
    const hhc::TileSizes& ts,
    std::span<const stencil::KernelVariant> variants, Incumbent* inc) {
  const std::span<const stencil::KernelVariant> vars = variant_axis(variants);
  // Results land in visit-order slots, so the fold's tie-breaking is
  // the serial variant-major loop's.
  std::vector<std::optional<EvaluatedPoint>> slot(vars.size() *
                                                  threads_.size());
  measure_tile(ts, vars, threads_, inc, slot);
  EvaluatedPoint best;
  for (const std::optional<EvaluatedPoint>& ep : slot) {
    if (ep) fold_best(best, *ep);
  }
  return best;
}

EvaluatedPoint Session::best_over_threads(const hhc::TileSizes& ts) {
  const auto t0 = Clock::now();
  Incumbent inc;  // thread-sweep-scoped
  const EvaluatedPoint best = sweep_tile(ts, {}, &inc);
  add_machine_time(seconds_since(t0));
  return best;
}

EvaluatedPoint Session::best_over_variants(
    const hhc::TileSizes& ts,
    std::span<const stencil::KernelVariant> variants) {
  const auto t0 = Clock::now();
  Incumbent inc;  // sweep-scoped, shared across the variant axis
  const EvaluatedPoint best = sweep_tile(ts, variants, &inc);
  add_machine_time(seconds_since(t0));
  return best;
}

std::vector<EvaluatedPoint> Session::best_over_threads_many(
    std::span<const hhc::TileSizes> tiles) {
  const auto t0 = Clock::now();
  // The incumbent is per tile, not shared: every tile's best is an
  // output here (fig5 emits one CSV row per tile), so pruning may
  // only ever discard points dominated within their own tile.
  std::vector<EvaluatedPoint> out = parallel_map<EvaluatedPoint>(
      pool_, tiles.size(), /*grain=*/4, [&](std::size_t i) {
        Incumbent inc;
        return sweep_tile(tiles[i], {}, &inc);
      });
  add_machine_time(seconds_since(t0));
  return out;
}

EvaluatedPoint Session::best_tile(
    std::span<const hhc::TileSizes> tiles,
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
  const EvaluatedPoint best = best_of_tiles(tiles, variants, seed, priority);
  add_machine_time(seconds_since(t0));
  return best;
}

EvaluatedPoint Session::best_of_tiles(
    std::span<const hhc::TileSizes> tiles,
    std::span<const stencil::KernelVariant> variants, double incumbent_seed,
    std::span<const hhc::TileSizes> priority) {
  if (!opt_.prune) {
    return parallel_reduce<EvaluatedPoint>(
        pool_, tiles.size(), /*grain=*/4, EvaluatedPoint{},
        [&](EvaluatedPoint& acc, std::size_t i) {
          fold_best(acc, sweep_tile(tiles[i], variants, nullptr));
        },
        [](EvaluatedPoint a, EvaluatedPoint b) {
          fold_best(a, b);
          return a;
        });
  }
  // Pruned path: one incumbent spans the whole reduction (a single
  // best is returned, so cross-tile pruning is safe), tiles are
  // visited candidate-first (warm-seeded tiles, when any), then in
  // ascending model-Talg order so it tightens early, and the per-tile
  // bests are folded serially in the original index order afterwards
  // — identical tie-breaking to the unpruned reduction above.
  const auto tb = Clock::now();
  const std::vector<double> talg = parallel_map<double>(
      pool_, tiles.size(), /*grain=*/64, [&](std::size_t i) {
        return model_talg_or_inf(ctx_.inputs, ctx_.problem, tiles[i]);
      });
  std::vector<char> seeded(tiles.size(), 0);
  for (const hhc::TileSizes& ts : priority) {
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      if (tiles[i] == ts) seeded[i] = 1;
    }
  }
  std::vector<std::size_t> order(tiles.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (seeded[a] != seeded[b]) return seeded[a] > seeded[b];
                     return talg[a] < talg[b];
                   });
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.bound_seconds += seconds_since(tb);
  }
  Incumbent inc;
  inc.offer(incumbent_seed);
  std::vector<EvaluatedPoint> slot(tiles.size());
  pool_.for_each_index(tiles.size(), /*grain=*/1, [&](std::size_t j) {
    const std::size_t i = order[j];
    slot[i] = sweep_tile(tiles[i], variants, &inc);
  });
  EvaluatedPoint out;
  for (const EvaluatedPoint& ep : slot) fold_best(out, ep);
  return out;
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
  cmp.talg_min = best_of_tiles({&sweep.argmin, 1}, vars);

  // 3. Best of the paper's baseline experiment set.
  const std::vector<hhc::TileSizes> baseline = baseline_tile_set(
      dim, ctx_.inputs.hw, opt.baseline_count, opt.enumeration,
      ctx_.def.radius);
  cmp.baseline_best = best_of_tiles(baseline, vars);

  // 4. Best of the within-10 %-of-Talg_min candidates.
  cmp.candidates_tried = sweep.candidates.size();
  cmp.within10_best = best_of_tiles(sweep.candidates, vars);

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
  cmp.exhaustive = best_of_tiles(visited, vars, seed);

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

std::vector<std::size_t> rank_warm_seeds(
    std::span<const SeedCandidate> candidates,
    const stencil::ProblemSize& problem, const stencil::KernelVariant& want) {
  std::vector<double> distance(candidates.size());
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    distance[i] = stencil::log_distance(problem, candidates[i].problem);
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const bool am = candidates[a].variant == want;
                     const bool bm = candidates[b].variant == want;
                     if (am != bm) return am;
                     return distance[a] < distance[b];
                   });
  return order;
}

}  // namespace repro::tuner
