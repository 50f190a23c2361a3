#include "gpusim/lower_bound.hpp"

#include <algorithm>
#include <limits>
#include <optional>

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

// The per-configuration inputs of the class walk below: everything
// it reads from a ResolvedConfig and the thread count.
struct FloorTerms {
  double cyc_iter = 0.0;
  // geometry_iter_units charges ceil(points_b / threads_r) serial
  // rounds times ceil(active_b / n_v) lane waves per bin, with
  // threads_r the thread count rounded up to a full warp. Each bin's
  // product is >= points_b / threads_r and also >= points_b / n_v
  // (saturated rows issue ceil(threads_r / n_v) waves per round,
  // short rows pay their own active / n_v), so the aggregate point
  // count over the smaller divisor floors the exact unit total.
  std::int64_t unit_denom = 1;
  std::int64_t k = 1;
  double coalesce_eff = 1.0;
};

FloorTerms floor_terms(const DeviceParams& dev, const ResolvedConfig& rc,
                       int threads) {
  const std::int64_t threads_r =
      repro::round_up<std::int64_t>(std::max(threads, 1), 32);
  return {rc.cyc_iter,
          std::min<std::int64_t>(threads_r, std::max(dev.n_v, 1)), rc.k,
          rc.coalesce_eff};
}

// The floor of a valid profile at terms `t`, in O(classes). Only the
// classes' bound aggregates are read, never the bins, so a
// bounds-only profile (TileCostProfile::build_bounds) serves. Every
// operation is monotone: the result never grows when cyc_iter
// shrinks or when unit_denom, k or coalesce_eff grow, which is what
// makes tile_floor admissible.
LowerBound class_floors(const DeviceParams& dev,
                        const TileCostProfile& profile, const FloorTerms& t) {
  LowerBound lb;
  lb.feasible = true;

  // Exact launch total: one kernel per wavefront row, as in
  // simulate_time (empty rows pay launch only).
  lb.overhead_floor =
      static_cast<double>(profile.total_rows()) * dev.kernel_launch_s;
  double total = lb.overhead_floor;

  const double io_scale = 4.0 / t.coalesce_eff / dev.mem_bandwidth_bps;
  const std::int64_t n_sm = dev.n_sm;
  for (const RowClass& c : profile.classes()) {
    // Compute floor per block: summing the per-bin ceil quotients is
    // >= the ceil of the aggregate quotient; the barrier charge is
    // the exact one price_block adds.
    const std::int64_t units =
        repro::ceil_div(c.geom.total_points, t.unit_denom);
    const double compute_s =
        (static_cast<double>(units) * t.cyc_iter +
         static_cast<double>(c.geom.sync_count()) * dev.sync_cycles) /
        dev.clock_hz;
    // price_wavefront charges ceil(b_round / n_SM) block slots per
    // round; summed over rounds that is >= ceil(blocks / n_SM).
    const double comp =
        static_cast<double>(repro::ceil_div(c.blocks, n_sm)) * compute_s;

    // Memory: equals the simulator's aggregate acc.mem exactly — one
    // startup latency per residency round plus the class's derated
    // traffic over aggregate bandwidth.
    const std::int64_t rounds = repro::ceil_div(c.blocks, n_sm * t.k);
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

}  // namespace

LowerBound lower_bound(const DeviceParams& dev,
                       const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts,
                       const hhc::ThreadConfig& thr,
                       const TileCostProfile& profile,
                       const stencil::KernelVariant& var) {
  const ResolvedConfig rc =
      resolve_config(dev, def, p.dim, ts, thr.total(), var);
  if (!rc.feasible || !profile.valid()) return infeasible_bound();
  return class_floors(dev, profile, floor_terms(dev, rc, thr.total()));
}

LowerBound tile_floor(const DeviceParams& dev, const stencil::StencilDef& def,
                      const stencil::ProblemSize& p, const hhc::TileSizes& ts,
                      std::span<const hhc::ThreadConfig> thrs,
                      std::span<const stencil::KernelVariant> vars,
                      const TileCostProfile& profile) {
  if (!profile.valid()) return infeasible_bound();
  static constexpr stencil::KernelVariant kDefault{};
  if (vars.empty()) vars = {&kDefault, 1};
  // The cheapest terms any resolvable pair could be priced at.
  std::optional<FloorTerms> best;
  for (const stencil::KernelVariant& var : vars) {
    for (const hhc::ThreadConfig& thr : thrs) {
      const ResolvedConfig rc =
          resolve_config(dev, def, p.dim, ts, thr.total(), var);
      if (!rc.feasible) continue;
      const FloorTerms t = floor_terms(dev, rc, thr.total());
      if (!best) {
        best = t;
        continue;
      }
      best->cyc_iter = std::min(best->cyc_iter, t.cyc_iter);
      best->unit_denom = std::max(best->unit_denom, t.unit_denom);
      best->k = std::max(best->k, t.k);
      best->coalesce_eff = std::max(best->coalesce_eff, t.coalesce_eff);
    }
  }
  if (!best) return infeasible_bound();
  return class_floors(dev, profile, *best);
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
