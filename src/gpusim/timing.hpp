// The timing engine: the reproduction's stand-in for running
// HHC-generated CUDA on real hardware.
//
// It executes the same wavefront/tile/band structure as the functional
// executor, but aggregates congruent tiles and bands so that even the
// paper's largest problems (8192^2 x 16384 time steps) are priced in
// microseconds of host time. On top of the optimistic quantities the
// model also knows (transfer volume, row-by-row compute, wavefront
// scheduling), it adds everything the model deliberately ignores:
//
//   * memory-transfer latency and bandwidth contention between
//     concurrently resident thread blocks,
//   * per-thread-block dispatch cost and per-kernel launch cost,
//   * occupancy limits from threads and registers (not just shared
//     memory), register spills priced per iteration,
//   * warp-granularity rounding and thread-count underutilization,
//   * shared-memory bank conflicts, and
//   * deterministic run-to-run jitter (the paper measures five runs
//     and keeps the minimum; measure_best_of mirrors that).
//
// These overhead classes are exactly why the model's RMSE is large
// over the whole configuration space yet small near the optimum
// (Section 5.3): good configurations are compute-bound and amortize
// every overhead, bad ones do not.
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/device.hpp"
#include "gpusim/scheduling.hpp"
#include "hhc/tile_sizes.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"
#include "stencil/variant.hpp"

namespace repro::gpusim {

class TileCostProfile;  // gpusim/cost_profile.hpp

struct SimResult {
  bool feasible = false;
  std::string infeasible_reason;

  double seconds = 0.0;
  double gflops = 0.0;

  // Resource outcome.
  std::int64_t k = 0;          // resident thread blocks per SM
  int regs_per_thread = 0;
  bool spills = false;

  // Time breakdown (seconds; mem/compute overlap, so they do not sum
  // to `seconds`).
  double mem_seconds = 0.0;
  double compute_seconds = 0.0;
  double launch_seconds = 0.0;
  double sched_seconds = 0.0;

  std::int64_t kernel_calls = 0;
};

// Price one configuration. `run_id` perturbs the deterministic jitter
// (different run_id = a different "run" of the same binary). `var`
// selects the kernel implementation variant; the default variant
// reproduces the pre-variant result bit for bit.
SimResult simulate_time(const DeviceParams& dev,
                        const stencil::StencilDef& def,
                        const stencil::ProblemSize& p,
                        const hhc::TileSizes& ts,
                        const hhc::ThreadConfig& thr, std::uint64_t run_id = 0,
                        const stencil::KernelVariant& var = {});

// Stage-two entry point: price one thread configuration against a
// prebuilt geometry profile (see gpusim/cost_profile.hpp). `profile`
// must have been built for the same (p, ts, def.radius); sweeping
// thread counts against one profile builds the geometry only once.
SimResult simulate_time(const DeviceParams& dev,
                        const stencil::StencilDef& def,
                        const stencil::ProblemSize& p,
                        const hhc::TileSizes& ts,
                        const hhc::ThreadConfig& thr,
                        const TileCostProfile& profile,
                        std::uint64_t run_id = 0,
                        const stencil::KernelVariant& var = {});

// The paper's measurement protocol (Section 5.1): run five times and
// keep the smallest execution time.
SimResult measure_best_of(const DeviceParams& dev,
                          const stencil::StencilDef& def,
                          const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts,
                          const hhc::ThreadConfig& thr, int runs = 5,
                          const stencil::KernelVariant& var = {});

SimResult measure_best_of(const DeviceParams& dev,
                          const stencil::StencilDef& def,
                          const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts,
                          const hhc::ThreadConfig& thr,
                          const TileCostProfile& profile, int runs = 5,
                          const stencil::KernelVariant& var = {});

// Compute-only variant used by the C_iter micro-benchmark: transfers,
// launches and scheduling costs removed, jitter off.
double simulate_compute_only(const DeviceParams& dev,
                             const stencil::StencilDef& def,
                             const stencil::ProblemSize& p,
                             const hhc::TileSizes& ts,
                             const hhc::ThreadConfig& thr);

double simulate_compute_only(const DeviceParams& dev,
                             const stencil::StencilDef& def,
                             const stencil::ProblemSize& p,
                             const hhc::TileSizes& ts,
                             const hhc::ThreadConfig& thr,
                             const TileCostProfile& profile);

// Iteration issue cost in cycles for one stencil body on one device,
// including bank-conflict serialization for this tile layout.
double iteration_cycles(const DeviceParams& dev,
                        const stencil::StencilDef& def,
                        const hhc::TileSizes& ts);

// Variant-aware issue cost: unrolling amortizes the loop overhead
// (issue base, addressing arithmetic) over `unroll` points; register
// staging removes one shared load per point and its bank-conflict
// serialization. The default variant returns the base expression
// unchanged (the formula above, same expression tree — inserting a
// divide-by-one would still perturb floating-point contraction).
double iteration_cycles(const DeviceParams& dev,
                        const stencil::StencilDef& def,
                        const hhc::TileSizes& ts,
                        const stencil::KernelVariant& var);

// Machine-resource resolution for one configuration: residency k,
// register outcome, the effective per-iteration cycle cost (spills,
// bank conflicts, issue-latency stalls included) and the DRAM
// coalescing efficiency. Shared by the aggregate timing engine, the
// lower bound and the event-level cross-check simulator (a test-only
// oracle under tests/support/).
struct ResolvedConfig {
  bool feasible = false;
  std::string infeasible_reason;
  // Set once the tile shape passes, even when it then overflows the
  // per-block limit.
  std::int64_t shared_bytes = 0;
  std::int64_t k = 0;
  int regs_per_thread = 0;
  int spilled_regs = 0;  // regs beyond the physical per-thread cap
  bool spills = false;
  std::int64_t k_shared = 0;   // residency if shared memory alone bound
  std::int64_t k_regs = 0;     // ... if the register file alone bound
  std::int64_t k_threads = 0;  // ... if the thread capacity alone bound
  double resident_warps = 0.0;
  // Fractional issue-latency stall inflation of cyc_iter: 0 at or
  // above warps_for_full_issue, up to latency_stall_factor at one warp.
  double stall_inflation = 0.0;
  double cyc_iter = 0.0;
  double coalesce_eff = 1.0;
};

ResolvedConfig resolve_config(const DeviceParams& dev,
                              const stencil::StencilDef& def, int dim,
                              const hhc::TileSizes& ts, int threads,
                              const stencil::KernelVariant& var = {});

}  // namespace repro::gpusim
