#include "gpusim/timing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "gpusim/cost_profile.hpp"
#include "gpusim/registers.hpp"
#include "gpusim/scheduling.hpp"
#include "hhc/footprint.hpp"

namespace repro::gpusim {

namespace {

// Deterministic key for jitter: mixes every input that identifies a
// "compiled program + run", one mix64 round per field so no two
// fields can cancel (p.S[1]*3 + p.S[2]-style linear mixes collide).
// The variant enters only when non-default, so every pre-variant
// key — and hence every pre-variant jitter draw — is unchanged.
std::uint64_t config_key(const DeviceParams& dev,
                         const stencil::StencilDef& def,
                         const stencil::ProblemSize& p,
                         const hhc::TileSizes& ts,
                         const hhc::ThreadConfig& thr,
                         const stencil::KernelVariant& var,
                         std::uint64_t run_id) {
  std::uint64_t h = repro::mix64(static_cast<std::uint64_t>(dev.n_sm));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(dev.clock_hz));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(def.kind));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(p.S[0]));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(p.S[1]));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(p.S[2]));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(p.T));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(ts.tT));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(ts.tS1));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(ts.tS2));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(ts.tS3));
  h = repro::mix64(h ^ static_cast<std::uint64_t>(thr.total()));
  if (!var.is_default()) {
    h = repro::mix64(h ^ static_cast<std::uint64_t>(var.unroll));
    h = repro::mix64(h ^ (static_cast<std::uint64_t>(var.staging) + 1));
  }
  h = repro::mix64(h ^ run_id);
  return h;
}

// Stage two folds the point histograms; a bounds-only profile has
// none and would price every block at zero iterations.
void require_histograms(const TileCostProfile& profile) {
  if (!profile.has_histograms()) {
    throw std::logic_error(
        "gpusim: pricing needs a profile with histograms "
        "(TileCostProfile::with_histograms)");
  }
}

// The pricing body of simulate_time: price every class of the
// profile at one resolved configuration (price_block per class, then
// the wavefront fold), and apply run `run_id`'s jitter.
SimResult price_profile(const DeviceParams& dev,
                        const stencil::StencilDef& def,
                        const stencil::ProblemSize& p,
                        const hhc::TileSizes& ts,
                        const hhc::ThreadConfig& thr,
                        const TileCostProfile& profile,
                        const ResolvedConfig& rc,
                        const stencil::KernelVariant& var,
                        std::uint64_t run_id) {
  require_histograms(profile);
  SimResult res;
  res.regs_per_thread = rc.regs_per_thread;
  res.spills = rc.spills;
  res.k = rc.k;

  const int threads = thr.total();
  // Stage two: price the thread-invariant classes at this thread
  // count — O(classes x bins), no schedule walk.
  const double launch = dev.kernel_launch_s;
  double total = static_cast<double>(profile.empty_rows()) * launch;
  res.launch_seconds = total;
  res.kernel_calls = profile.empty_rows();
  for (const RowClass& c : profile.classes()) {
    BlockWork bc = price_block(dev, c.geom, threads, rc.cyc_iter);
    bc.io_bytes /= rc.coalesce_eff;
    const WavefrontCost acc = price_wavefront(dev, bc, c.blocks, rc.k);
    const double m = static_cast<double>(c.mult);
    total += m * (launch + acc.time);
    res.launch_seconds += m * launch;
    res.mem_seconds += m * acc.mem;
    res.compute_seconds += m * acc.comp;
    res.sched_seconds += m * acc.sched;
    res.kernel_calls += c.mult;
  }

  total *= hash_jitter(config_key(dev, def, p, ts, thr, var, run_id),
                       dev.jitter_amplitude);

  res.feasible = true;
  res.seconds = total;
  res.gflops = stencil::total_flops(def, p) / total / 1e9;
  return res;
}

// The paper's best-of-`runs` protocol as a final transform on a
// run-0 simulation: the per-run jitter is a final multiplicative
// factor, so one base simulation plus `runs` jitter draws is exactly
// equivalent to simulating each run — and 5x cheaper for the big
// sweeps.
void apply_best_of(const DeviceParams& dev, const stencil::StencilDef& def,
                   const stencil::ProblemSize& p, const hhc::TileSizes& ts,
                   const hhc::ThreadConfig& thr,
                   const stencil::KernelVariant& var, int runs,
                   SimResult& best) {
  const double base =
      best.seconds / hash_jitter(config_key(dev, def, p, ts, thr, var, 0),
                                 dev.jitter_amplitude);
  double min_jitter = best.seconds / base;
  for (int r = 1; r < runs; ++r) {
    min_jitter = std::min(
        min_jitter, hash_jitter(config_key(dev, def, p, ts, thr, var,
                                           static_cast<std::uint64_t>(r)),
                                dev.jitter_amplitude));
  }
  best.seconds = base * min_jitter;
  best.gflops = stencil::total_flops(def, p) / best.seconds / 1e9;
}

}  // namespace

double iteration_cycles(const DeviceParams& dev,
                        const stencil::StencilDef& def,
                        const hhc::TileSizes& ts) {
  const InstructionCosts& c = dev.cost;
  const stencil::InstructionMix& m = def.mix;
  const double conflict =
      bank_conflict_factor(def.dim, ts, dev.shared_banks);
  return c.issue_base + c.shared_load * m.shared_loads * conflict +
         c.fma * m.fma_ops + c.add * m.add_ops + c.special * m.special_ops +
         c.addr * m.addr_ops;
}

double iteration_cycles(const DeviceParams& dev,
                        const stencil::StencilDef& def,
                        const hhc::TileSizes& ts,
                        const stencil::KernelVariant& var) {
  // The default variant must evaluate the base expression itself —
  // even a divide-by-one inserted into the tree could change how the
  // compiler contracts the multiply-adds.
  if (var.is_default()) return iteration_cycles(dev, def, ts);

  const InstructionCosts& c = dev.cost;
  const stencil::InstructionMix& m = def.mix;
  double conflict = bank_conflict_factor(def.dim, ts, dev.shared_banks);
  int shared_loads = m.shared_loads;
  if (var.staging == stencil::Staging::kRegister) {
    // One operand per point is staged through a register instead of
    // re-read from shared memory, and the remaining loads are issued
    // conflict-free from the shrunken staging buffer.
    shared_loads = std::max(0, shared_loads - 1);
    conflict = 1.0;
  }
  // Loop overhead (issue slot, addressing arithmetic) is paid once
  // per unrolled group of `unroll` points.
  const double u = static_cast<double>(var.unroll);
  return c.issue_base / u + c.shared_load * shared_loads * conflict +
         c.fma * m.fma_ops + c.add * m.add_ops + c.special * m.special_ops +
         c.addr * m.addr_ops / u;
}

ResolvedConfig resolve_config(const DeviceParams& dev,
                              const stencil::StencilDef& def, int dim,
                              const hhc::TileSizes& ts, int threads,
                              const stencil::KernelVariant& var) {
  ResolvedConfig rc;
  try {
    hhc::validate(ts, dim);
  } catch (const std::invalid_argument& e) {
    rc.infeasible_reason = e.what();
    return rc;
  }
  if (ts.tS1 < def.radius) {
    // The hexagonal geometry needs tS1 >= radius (see HexSchedule).
    rc.infeasible_reason = "tS1 smaller than the stencil radius";
    return rc;
  }
  rc.shared_bytes = hhc::shared_bytes_per_tile(dim, ts, def.radius);
  if (var.staging == stencil::Staging::kRegister) {
    // Register staging keeps one of the tile's operand planes in
    // registers, shrinking the shared buffer to 3/4 of its words
    // (integer, so the footprint — and every feasibility/occupancy
    // decision derived from it — is exact and deterministic).
    const std::int64_t words =
        hhc::shared_words_per_tile(dim, ts, def.radius);
    rc.shared_bytes = (3 * words / 4) * hhc::kWordBytes;
  }
  if (rc.shared_bytes > dev.max_shared_bytes_per_block) {
    rc.infeasible_reason = "tile exceeds per-block shared memory";
    return rc;
  }
  if (threads < 1 || threads > dev.max_threads_per_block) {
    rc.infeasible_reason = "invalid thread count";
    return rc;
  }

  // Registers: beyond the physical per-thread budget the compiler
  // spills; spilled values cost extra cycles every iteration.
  rc.regs_per_thread = estimate_regs_per_thread(def, ts, threads, var);
  rc.spilled_regs = std::max(0, rc.regs_per_thread - dev.max_regs_per_thread);
  rc.spills = rc.spilled_regs > 0;
  const int regs_resident =
      std::min(rc.regs_per_thread, dev.max_regs_per_thread);

  // Residency (hyper-threading factor) honoring *all* machine limits,
  // not only the shared-memory bound the model knows about.
  rc.k_shared = dev.shared_bytes_per_sm / rc.shared_bytes;
  rc.k_regs =
      dev.regs_per_sm /
      std::max<std::int64_t>(1, static_cast<std::int64_t>(regs_resident) *
                                    threads);
  rc.k_threads = dev.max_threads_per_sm / threads;
  rc.k = std::max<std::int64_t>(
      1, std::min({static_cast<std::int64_t>(dev.max_tb_per_sm), rc.k_shared,
                   rc.k_regs, rc.k_threads}));

  double cyc_iter = iteration_cycles(dev, def, ts, var);
  cyc_iter += dev.spill_cycles_per_reg *
              static_cast<double>(std::min(rc.spilled_regs, 64));

  // Issue-latency hiding: too few resident warps leave the pipeline
  // stalled between dependent instructions.
  rc.resident_warps =
      std::max(1.0, static_cast<double>(rc.k) * threads / 32.0);
  if (rc.resident_warps < dev.warps_for_full_issue) {
    rc.stall_inflation = dev.latency_stall_factor *
                         (dev.warps_for_full_issue - rc.resident_warps) /
                         dev.warps_for_full_issue;
    cyc_iter *= 1.0 + rc.stall_inflation;
  }
  rc.cyc_iter = cyc_iter;

  // Coalescing: short contiguous runs along the innermost dimension
  // waste DRAM burst bandwidth.
  const std::int64_t run = (dim == 1) ? ts.tS1
                           : (dim == 2) ? ts.tS2
                                        : ts.tS3;
  rc.coalesce_eff =
      std::min(1.0, static_cast<double>(run) / dev.coalesce_words);
  rc.feasible = true;
  return rc;
}

SimResult simulate_time(const DeviceParams& dev,
                        const stencil::StencilDef& def,
                        const stencil::ProblemSize& p,
                        const hhc::TileSizes& ts,
                        const hhc::ThreadConfig& thr,
                        const TileCostProfile& profile,
                        std::uint64_t run_id,
                        const stencil::KernelVariant& var) {
  SimResult res;
  res.feasible = false;

  const ResolvedConfig rc =
      resolve_config(dev, def, p.dim, ts, thr.total(), var);
  if (!rc.feasible) {
    res.infeasible_reason = rc.infeasible_reason;
    return res;
  }
  if (!profile.valid()) {
    // Unreachable when the profile was built for the same (p, ts,
    // radius) — a feasible ResolvedConfig implies valid geometry.
    res.infeasible_reason = profile.error();
    return res;
  }
  return price_profile(dev, def, p, ts, thr, profile, rc, var, run_id);
}

SimResult simulate_time(const DeviceParams& dev,
                        const stencil::StencilDef& def,
                        const stencil::ProblemSize& p,
                        const hhc::TileSizes& ts,
                        const hhc::ThreadConfig& thr, std::uint64_t run_id,
                        const stencil::KernelVariant& var) {
  // Cheap machine-feasibility first, so infeasible points (common in
  // thread sweeps) never pay the profile build.
  const ResolvedConfig rc =
      resolve_config(dev, def, p.dim, ts, thr.total(), var);
  if (!rc.feasible) {
    SimResult res;
    res.infeasible_reason = rc.infeasible_reason;
    return res;
  }
  const TileCostProfile profile =
      TileCostProfile::build(p, ts, def.radius);
  return simulate_time(dev, def, p, ts, thr, profile, run_id, var);
}

SimResult measure_best_of(const DeviceParams& dev,
                          const stencil::StencilDef& def,
                          const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts,
                          const hhc::ThreadConfig& thr,
                          const TileCostProfile& profile, int runs,
                          const stencil::KernelVariant& var) {
  SimResult best = simulate_time(dev, def, p, ts, thr, profile, 0, var);
  if (!best.feasible) return best;
  apply_best_of(dev, def, p, ts, thr, var, runs, best);
  return best;
}

SimResult measure_best_of(const DeviceParams& dev,
                          const stencil::StencilDef& def,
                          const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts,
                          const hhc::ThreadConfig& thr, int runs,
                          const stencil::KernelVariant& var) {
  const ResolvedConfig rc =
      resolve_config(dev, def, p.dim, ts, thr.total(), var);
  if (!rc.feasible) {
    SimResult res;
    res.infeasible_reason = rc.infeasible_reason;
    return res;
  }
  const TileCostProfile profile =
      TileCostProfile::build(p, ts, def.radius);
  return measure_best_of(dev, def, p, ts, thr, profile, runs, var);
}

double simulate_compute_only(const DeviceParams& dev,
                             const stencil::StencilDef& def,
                             const stencil::ProblemSize& /*p*/,
                             const hhc::TileSizes& ts,
                             const hhc::ThreadConfig& thr,
                             const TileCostProfile& profile) {
  if (!profile.valid()) throw std::invalid_argument(profile.error());
  require_histograms(profile);
  const double cyc_iter = iteration_cycles(dev, def, ts);
  const int threads = thr.total();

  double total = 0.0;  // all blocks serialized (per "vector unit")
  for (const RowClass& c : profile.classes()) {
    const BlockWork bc = price_block(dev, c.geom, threads, cyc_iter);
    total += static_cast<double>(c.mult) *
             (bc.compute_s * static_cast<double>(c.blocks));
  }
  return total;
}

double simulate_compute_only(const DeviceParams& dev,
                             const stencil::StencilDef& def,
                             const stencil::ProblemSize& p,
                             const hhc::TileSizes& ts,
                             const hhc::ThreadConfig& thr) {
  hhc::validate(ts, p.dim);
  const TileCostProfile profile =
      TileCostProfile::build(p, ts, def.radius);
  return simulate_compute_only(dev, def, p, ts, thr, profile);
}

}  // namespace repro::gpusim
