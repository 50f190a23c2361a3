// Serial scalar reference for tuner::Session's CPU pricing.
//
// The CPU counterpart of scalar_oracle.hpp: Talg comes from
// model_talg_or_inf and texec from the public scalar
// cpusim::measure_best_of, one point at a time, folded the way the
// Session's reductions fold: tiles outermost, then strand counts in
// device_thread_configs order, and the first strictly better feasible
// point wins. No bound, no record and no batch: equality against it
// pins the Session's bounded CPU path, pruning included, to the
// simulator.
#pragma once

#include <span>
#include <vector>

#include "cpusim/timing.hpp"
#include "tuner/session.hpp"

namespace repro::test {

// One point, priced from scratch.
inline tuner::EvaluatedPoint cpu_scalar_point(const tuner::TuningContext& ctx,
                                              const tuner::DataPoint& dp) {
  const cpusim::SimResult r = cpusim::measure_best_of(
      ctx.dev.cpu(), ctx.def, ctx.problem, dp.ts, dp.thr, /*runs=*/5);
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

// The best point over tiles x the device's strand counts.
inline tuner::EvaluatedPoint cpu_scalar_best(
    const tuner::TuningContext& ctx, std::span<const hhc::TileSizes> tiles) {
  const std::vector<hhc::ThreadConfig> threads =
      tuner::device_thread_configs(ctx.dev, ctx.problem.dim);
  tuner::EvaluatedPoint best;
  for (const hhc::TileSizes& ts : tiles) {
    for (const hhc::ThreadConfig& thr : threads) {
      const tuner::EvaluatedPoint ep = cpu_scalar_point(ctx, {ts, thr});
      if (ep.feasible && (!best.feasible || ep.texec < best.texec)) {
        best = ep;
      }
    }
  }
  return best;
}

}  // namespace repro::test
