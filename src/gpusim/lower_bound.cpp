#include "gpusim/lower_bound.hpp"

#include <algorithm>
#include <limits>

#include "common/math_util.hpp"
#include "gpusim/cost_profile.hpp"

namespace repro::gpusim {

namespace {

LowerBound infeasible_bound() {
  LowerBound lb;
  lb.feasible = false;
  lb.seconds = std::numeric_limits<double>::infinity();
  return lb;
}

}  // namespace

LowerBound lower_bound(const DeviceParams& dev,
                       const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts,
                       const hhc::ThreadConfig& thr,
                       const TileCostProfile& profile,
                       const stencil::KernelVariant& var) {
  const int threads = thr.total();
  const ResolvedConfig rc = resolve_config(dev, def, p.dim, ts, threads, var);
  if (!rc.feasible || !profile.valid()) return infeasible_bound();

  LowerBound lb;
  lb.feasible = true;

  // Exact launch total: one kernel per wavefront row, as in
  // simulate_time (empty rows pay launch only).
  lb.overhead_floor =
      static_cast<double>(profile.total_rows()) * dev.kernel_launch_s;
  double total = lb.overhead_floor;

  // geometry_iter_units rounds the thread count up to a full warp
  // before dividing rows among threads; mirror it so the per-class
  // iteration floor divides by the same denominator.
  const std::int64_t threads_r =
      repro::round_up<std::int64_t>(std::max(threads, 1), 32);
  const double io_scale = 4.0 / rc.coalesce_eff / dev.mem_bandwidth_bps;
  const std::int64_t n_sm = dev.n_sm;

  // geometry_iter_units charges ceil(points_b / threads_r) serial
  // rounds times ceil(active_b / n_v) lane waves per bin. Each bin's
  // product is >= points_b / threads_r and also >= points_b / n_v
  // (saturated rows issue ceil(threads_r / n_v) waves per round,
  // short rows pay their own active / n_v), so the aggregate point
  // count over the smaller divisor floors the exact unit total.
  const std::int64_t unit_denom =
      std::min<std::int64_t>(threads_r, std::max(dev.n_v, 1));

  // Only the classes' bound aggregates are read, never the bins, so
  // a bounds-only profile (TileCostProfile::build_bounds) serves.
  for (const RowClass& c : profile.classes()) {
    // Compute floor per block: summing the per-bin ceil quotients is
    // >= the ceil of the aggregate quotient; the barrier charge is
    // the exact one price_block adds.
    const std::int64_t units =
        repro::ceil_div(c.geom.total_points, unit_denom);
    const double compute_s =
        (static_cast<double>(units) * rc.cyc_iter +
         static_cast<double>(c.geom.sync_count()) * dev.sync_cycles) /
        dev.clock_hz;
    // price_wavefront charges ceil(b_round / n_SM) block slots per
    // round; summed over rounds that is >= ceil(blocks / n_SM).
    const double comp =
        static_cast<double>(repro::ceil_div(c.blocks, n_sm)) * compute_s;

    // Memory: equals the simulator's aggregate acc.mem exactly — one
    // startup latency per residency round plus the class's derated
    // traffic over aggregate bandwidth.
    const std::int64_t rounds = repro::ceil_div(c.blocks, n_sm * rc.k);
    const double mem =
        static_cast<double>(rounds) * dev.mem_latency_s +
        static_cast<double>(c.blocks) * c.geom.io_words * io_scale;

    // Dispatch: exactly price_wavefront's acc.sched.
    const double sched =
        static_cast<double>(repro::ceil_div(c.blocks, n_sm)) *
        dev.block_sched_s;

    const double m = static_cast<double>(c.mult);
    lb.compute_floor += m * comp;
    lb.memory_floor += m * mem;
    lb.overhead_floor += m * sched;
    // Per kernel: time >= max(mem, comp) + sched (both overlap
    // branches of price_wavefront), and the jitter factor is >= 1.
    total += m * (std::max(comp, mem) + sched);
  }

  lb.seconds = total;
  return lb;
}

LowerBound lower_bound(const DeviceParams& dev,
                       const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts,
                       const hhc::ThreadConfig& thr,
                       const stencil::KernelVariant& var) {
  // Cheap machine-feasibility first, mirroring simulate_time: an
  // infeasible point never pays the profile build, and a feasible
  // one builds no histograms.
  const ResolvedConfig rc =
      resolve_config(dev, def, p.dim, ts, thr.total(), var);
  if (!rc.feasible) return infeasible_bound();
  const TileCostProfile profile =
      TileCostProfile::build_bounds(p, ts, def.radius);
  return lower_bound(dev, def, p, ts, thr, profile, var);
}

}  // namespace repro::gpusim
