// Serial scalar reference for tuner::Session's GPU pricing.
//
// Talg comes from model_talg_or_inf and texec from the public scalar
// gpusim::measure_best_of, folded the way the Session's reductions
// fold: tiles outermost, then variants (span order; empty = default
// variant), then thread configs in device_thread_configs order, and
// the first strictly better feasible point wins. It builds every
// profile from scratch and keeps no record, step, bound or
// incumbent, so equality against it pins the Session's caching,
// incremental profiles, histogram layer and pruning to the scalar
// simulator.
#pragma once

#include <span>
#include <vector>

#include "gpusim/cost_profile.hpp"
#include "gpusim/timing.hpp"
#include "tuner/session.hpp"

namespace repro::test {

namespace detail {

inline tuner::EvaluatedPoint take(const tuner::TuningContext& ctx,
                                  const tuner::DataPoint& dp,
                                  const gpusim::SimResult& r) {
  tuner::EvaluatedPoint ep;
  ep.dp = dp;
  ep.talg = tuner::model_talg_or_inf(ctx.inputs, ctx.problem, dp.ts);
  ep.feasible = r.feasible;
  if (r.feasible) {
    ep.texec = r.seconds;
    ep.gflops = r.gflops;
  }
  return ep;
}

}  // namespace detail

// One point, priced from scratch (the profile is built per call).
inline tuner::EvaluatedPoint scalar_point(const tuner::TuningContext& ctx,
                                          const tuner::DataPoint& dp) {
  return detail::take(
      ctx, dp,
      gpusim::measure_best_of(ctx.dev.gpu(), ctx.def, ctx.problem, dp.ts,
                              dp.thr, /*runs=*/5, dp.var));
}

// The best point over tiles x variants x thread configs; one profile
// build per tile.
inline tuner::EvaluatedPoint scalar_best(
    const tuner::TuningContext& ctx, std::span<const hhc::TileSizes> tiles,
    std::span<const stencil::KernelVariant> variants = {}) {
  static constexpr stencil::KernelVariant kDefault{};
  const std::span<const stencil::KernelVariant> vars =
      variants.empty() ? std::span<const stencil::KernelVariant>(&kDefault, 1)
                       : variants;
  const std::vector<hhc::ThreadConfig> threads =
      tuner::device_thread_configs(ctx.dev, ctx.problem.dim);
  tuner::EvaluatedPoint best;
  for (const hhc::TileSizes& ts : tiles) {
    const gpusim::TileCostProfile prof =
        gpusim::TileCostProfile::build(ctx.problem, ts, ctx.def.radius);
    for (const stencil::KernelVariant& var : vars) {
      for (const hhc::ThreadConfig& thr : threads) {
        const tuner::EvaluatedPoint ep = detail::take(
            ctx, {ts, thr, var},
            gpusim::measure_best_of(ctx.dev.gpu(), ctx.def, ctx.problem, ts,
                                    thr, prof, /*runs=*/5, var));
        if (ep.feasible && (!best.feasible || ep.texec < best.texec)) {
          best = ep;
        }
      }
    }
  }
  return best;
}

}  // namespace repro::test
