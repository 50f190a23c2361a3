#include "cpusim/timing.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "hhc/footprint.hpp"

namespace repro::cpusim {

namespace {

using repro::ceil_div;

// Deterministic key for jitter: mixes every input that identifies a
// configuration, so repeated runs differ only through run_id. The
// chain is split at the thread config: tile_key hashes the
// thread-invariant prefix once per tile, config_key finishes it per
// thread config and run.
std::uint64_t tile_key(const CpuParams& dev, const stencil::StencilDef& def,
                       const stencil::ProblemSize& p,
                       const hhc::TileSizes& ts) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const char c : dev.name) {
    h = mix64(h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  h = mix64(h ^ static_cast<std::uint64_t>(def.kind));
  h = mix64(h ^ static_cast<std::uint64_t>(p.dim));
  for (const std::int64_t s : p.S) {
    h = mix64(h ^ static_cast<std::uint64_t>(s));
  }
  h = mix64(h ^ static_cast<std::uint64_t>(p.T));
  h = mix64(h ^ static_cast<std::uint64_t>(ts.tT));
  h = mix64(h ^ static_cast<std::uint64_t>(ts.tS1));
  h = mix64(h ^ static_cast<std::uint64_t>(ts.tS2));
  return mix64(h ^ static_cast<std::uint64_t>(ts.tS3));
}

std::uint64_t config_key(std::uint64_t tile, const hhc::ThreadConfig& thr,
                         std::uint64_t run_id) {
  std::uint64_t h =
      mix64(tile ^
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(thr.n1))
             << 32) ^
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(thr.n2)));
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(thr.n3)));
  return mix64(h ^ run_id);
}

// Cycles one SIMD group (vector_words points) of the unrolled loop
// body costs. Tap loads are priced at L1 speed here — the per-step
// working set of adjacent rows always fits L1 for legal tiles; traffic
// from deeper levels is charged separately per fit level.
double group_cycles(const CpuParams& dev, const stencil::StencilDef& def) {
  const stencil::InstructionMix& mix = def.mix;
  const CpuInstructionCosts& c = dev.cost;
  return c.issue_base + mix.shared_loads * c.load + mix.fma_ops * c.fma +
         mix.add_ops * c.add + mix.special_ops * c.special +
         mix.addr_ops * c.addr;
}

// SIMD groups one core issues for one sub-tile of the family with base
// width `base`: per hexagon time step, the row of x*inner points
// splits into `strands` chunks, each padded to a whole number of
// vector groups (both ceilings are remainder waste the optimistic
// model relaxes away — its Eqn 9/15/27 row sum only keeps the
// ceil(x*inner/n_v) floor each row term here dominates).
std::int64_t family_groups(std::int64_t base, std::int64_t tT,
                           std::int64_t inner, std::int64_t radius,
                           int strands, int n_v) {
  const std::int64_t s = std::max(strands, 1);
  std::int64_t groups = 0;
  for (std::int64_t j = 0; j < tT / 2; ++j) {
    const std::int64_t points = (base + 2 * radius * j) * inner;
    const std::int64_t busy = std::min<std::int64_t>(s, points);
    const std::int64_t chunk = ceil_div(points, busy);
    // Each width occurs on the grow and the shrink half of the hexagon.
    groups += 2 * busy * ceil_div(chunk, static_cast<std::int64_t>(n_v));
  }
  return groups;
}

}  // namespace

bool strands_in_range(const hhc::ThreadConfig& thr) noexcept {
  const int strands = thr.total();
  return strands >= 1 && strands <= 1024;
}

TileGeometry analyze_tile(const CpuParams& dev, const stencil::StencilDef& def,
                          const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts) {
  TileGeometry g;
  const std::int64_t r = std::max<std::int64_t>(def.radius, 1);
  if (dev.cores < 1 || dev.vector_words < 1 || dev.clock_hz <= 0.0) {
    g.infeasible_reason = "device descriptor lacks cores/lanes/clock";
    return g;
  }
  if (ts.tT < 2 || ts.tT % 2 != 0) {
    g.infeasible_reason = "tT must be even and >= 2";
    return g;
  }
  if (ts.tS1 < r) {
    g.infeasible_reason = "tS1 below the dependence slope";
    return g;
  }
  if ((p.dim >= 2 && ts.tS2 < 1) || (p.dim >= 3 && ts.tS3 < 1)) {
    g.infeasible_reason = "non-positive spatial tile extent";
    return g;
  }
  g.radius = r;
  g.w = ceil_div(p.S[0], hhc::tile_pitch(ts, r));
  g.n_sub = 1;
  if (p.dim == 2) {
    g.n_sub = ceil_div(p.S[1] + r * ts.tT, ts.tS2);
  } else if (p.dim == 3) {
    g.n_sub = static_cast<std::int64_t>(std::ceil(
        static_cast<double>(p.S[1] + r * ts.tT) / static_cast<double>(ts.tS2) *
        static_cast<double>(p.S[2] + r * ts.tT) /
        static_cast<double>(ts.tS3)));
  }
  g.tasks_row = g.w * g.n_sub;
  // The model's decomposition (Eqn 17/30 at k = 1): whole hexagons are
  // handed to cores; a core walks its hexagon's n_sub sub-tiles
  // serially, so a row takes ceil(w / cores) hexagon rounds.
  g.rounds = ceil_div(g.w, static_cast<std::int64_t>(dev.cores));
  g.active_cores = static_cast<int>(std::min<std::int64_t>(dev.cores, g.w));
  g.wavefronts = 2 * ceil_div(p.T, ts.tT);

  // Family-averaged tile quantities: the staggered tiling interlocks
  // hexagons of base widths tS1 and tS1 + 2r in equal numbers.
  hhc::TileSizes wide = ts;
  wide.tS1 += 2 * r;
  g.volume = hhc::subtile_volume(p.dim, ts, r);
  g.volume_avg = 0.5 * (static_cast<double>(g.volume) +
                        static_cast<double>(hhc::subtile_volume(p.dim, wide, r)));
  g.footprint_bytes = hhc::shared_bytes_per_tile(p.dim, ts, r);
  g.io_words = hhc::io_words_per_subtile(p.dim, ts, r);
  g.io_words_avg =
      0.5 * (static_cast<double>(g.io_words) +
             static_cast<double>(hhc::io_words_per_subtile(p.dim, wide, r)));

  g.inner = 1;
  if (p.dim >= 2) g.inner *= ts.tS2;
  if (p.dim >= 3) g.inner *= ts.tS3;

  // Smallest level whose per-core share holds the tile's working set.
  // The narrow-family footprint is also what the model's Eqn 31 budget
  // admits, so model-feasible tiles never fall off a level they were
  // promised.
  g.fit_level = -1;
  for (std::size_t i = 0; i < dev.levels.size(); ++i) {
    const CacheLevel& lvl = dev.levels[i];
    const std::int64_t share =
        lvl.shared ? lvl.size_bytes / std::max(g.active_cores, 1)
                   : lvl.size_bytes;
    if (g.footprint_bytes <= share) {
      g.fit_level = static_cast<int>(i);
      break;
    }
  }

  // Line-granularity inflation of the contiguous runs the tile
  // touches along the innermost dimension.
  std::int64_t run_words = ts.tS1 + r * ts.tT;
  if (p.dim == 2) run_words = ts.tS2 + 2 * r;
  if (p.dim == 3) run_words = ts.tS3 + 2 * r;
  const int line = g.fit_level >= 0
                       ? dev.levels[static_cast<std::size_t>(g.fit_level)]
                             .line_bytes
                       : (dev.levels.empty() ? 64 : dev.levels.back().line_bytes);
  const double run_bytes =
      static_cast<double>(run_words) * static_cast<double>(hhc::kWordBytes);
  const double lines = std::ceil(run_bytes / static_cast<double>(line));
  g.line_waste = lines * static_cast<double>(line) / run_bytes;

  g.cyc_group = group_cycles(dev, def);
  g.feasible = true;
  return g;
}

SweepGeometry analyze_strands(const TileGeometry& tile, const CpuParams& dev,
                              const hhc::TileSizes& ts,
                              const hhc::ThreadConfig& thr) {
  SweepGeometry g;
  static_cast<TileGeometry&>(g) = tile;
  if (!g.feasible) return g;
  g.strands = thr.total();
  if (!strands_in_range(thr)) {
    g.feasible = false;
    g.infeasible_reason = "strand count out of range [1, 1024]";
    return g;
  }
  const std::int64_t r = g.radius;
  g.groups_avg =
      0.5 * (static_cast<double>(family_groups(ts.tS1, ts.tT, g.inner, r,
                                               g.strands, dev.vector_words)) +
             static_cast<double>(family_groups(ts.tS1 + 2 * r, ts.tT, g.inner,
                                               r, g.strands,
                                               dev.vector_words)));
  return g;
}

SweepGeometry analyze_sweep(const CpuParams& dev,
                            const stencil::StencilDef& def,
                            const stencil::ProblemSize& p,
                            const hhc::TileSizes& ts,
                            const hhc::ThreadConfig& thr) {
  return analyze_strands(analyze_tile(dev, def, p, ts), dev, ts, thr);
}

namespace {

// The one CPU pricing body, shared by simulate_time, measure_best_of
// and measure_best_of_batch: prices strand config `thr` on an analyzed
// tile and applies the smallest jitter over the run ids
// [first_run, first_run + runs) (at least one draw). The jitter is a
// final multiplicative factor, so one base simulation plus `runs`
// draws is exactly min over `runs` full simulations.
SimResult price(const CpuParams& dev, const TileGeometry& tile,
                const hhc::TileSizes& ts, std::uint64_t key_prefix,
                double flops, const hhc::ThreadConfig& thr,
                std::uint64_t first_run, int runs) {
  SimResult res;
  const SweepGeometry g = analyze_strands(tile, dev, ts, thr);
  if (!g.feasible) {
    res.infeasible_reason = g.infeasible_reason;
    return res;
  }

  // Compute: family-averaged SIMD groups with chunk/remainder
  // ceilings, inflated when the core is under-threaded (issue stalls)
  // or over-subscribed (context-switch overhead).
  const double stall =
      g.strands < dev.smt
          ? 1.0 + dev.stall_factor *
                      static_cast<double>(dev.smt - g.strands) /
                      static_cast<double>(dev.smt)
          : 1.0;
  const double oversub =
      g.strands > dev.smt
          ? 1.0 + dev.oversub_penalty * static_cast<double>(g.strands - dev.smt)
          : 1.0;
  const double compute_sub =
      g.groups_avg * g.cyc_group / dev.clock_hz * stall * oversub;

  // DRAM fill + writeback per sub-tile. The cold read and write
  // streams at aggregate burst bandwidth are the un-hidable HEAD (this
  // is exactly the model's m' transfer, Eqn 8/14/25, before the
  // simulator-only inflations). The REST — write-allocate RFO traffic
  // and the contention excess when all active cores stream
  // concurrently — rides behind the hardware prefetchers and only
  // shows when it outlasts the compute+service phase.
  const double word_bytes = static_cast<double>(hhc::kWordBytes);
  const double in_bytes = g.io_words_avg * word_bytes * g.line_waste;
  const double out_bytes = in_bytes * (dev.write_allocate ? 2.0 : 1.0);
  const double fill_head =
      dev.mem_latency_s + 2.0 * in_bytes / dev.mem_bandwidth_bps;
  const double share_bps =
      dev.mem_bandwidth_bps / static_cast<double>(std::max(g.active_cores, 1));
  const double fill_sub =
      dev.mem_latency_s + (in_bytes + out_bytes) / share_bps;
  const double fill_rest = std::max(0.0, fill_sub - fill_head);

  // Per-step working-set service from the fit level. L1 residency is
  // already priced into the load costs of the loop body; deeper levels
  // charge their own latency and bandwidth; no fit at all re-streams
  // the footprint from DRAM every time step — the working-set cliff.
  double service_sub = 0.0;
  if (g.fit_level > 0) {
    const CacheLevel& lvl = dev.levels[static_cast<std::size_t>(g.fit_level)];
    const double lvl_bps =
        lvl.shared ? lvl.bandwidth_bps /
                         static_cast<double>(std::max(g.active_cores, 1))
                   : lvl.bandwidth_bps;
    const double step_bytes = g.volume_avg * 2.0 * word_bytes * g.line_waste;
    service_sub = static_cast<double>(ts.tT) * lvl.latency_s +
                  step_bytes / lvl_bps;
  } else if (g.fit_level < 0) {
    const double step_bytes =
        static_cast<double>(g.footprint_bytes) * g.line_waste;
    service_sub = static_cast<double>(ts.tT) *
                  (dev.mem_latency_s + step_bytes / share_bps);
  }

  // tT step fences plus the copy-in/copy-out barrier pair — the
  // model's tT*tau (Eqn 9) and 2*tau (Eqn 8) land here exactly.
  const double fence_sub =
      static_cast<double>(ts.tT + 2) * dev.step_fence_s;

  const double t_sub = std::max(fill_rest, compute_sub + service_sub) +
                       fill_head + fence_sub;
  const double t_tile = static_cast<double>(g.n_sub) * t_sub;
  const double rows = static_cast<double>(g.wavefronts);
  const double rounds = static_cast<double>(g.rounds);
  const double subs = rounds * static_cast<double>(g.n_sub);

  res.feasible = true;
  res.fit_level = g.fit_level;
  res.fill_seconds = rows * subs * fill_sub;
  res.service_seconds = rows * subs * service_sub;
  res.compute_seconds = rows * subs * compute_sub;
  res.fence_seconds = rows * subs * fence_sub;
  res.launch_seconds = rows * dev.parallel_launch_s;
  res.wavefronts = g.wavefronts;
  res.tiles_per_row = g.tasks_row;
  res.seconds = rows * (dev.parallel_launch_s + rounds * t_tile);

  double min_jitter =
      hash_jitter(config_key(key_prefix, thr, first_run), dev.jitter_amplitude);
  for (int run = 1; run < runs; ++run) {
    min_jitter = std::min(
        min_jitter,
        hash_jitter(config_key(key_prefix, thr,
                               first_run + static_cast<std::uint64_t>(run)),
                    dev.jitter_amplitude));
  }
  res.seconds *= min_jitter;
  res.gflops = flops / res.seconds / 1e9;
  return res;
}

}  // namespace

SimResult simulate_time(const CpuParams& dev, const stencil::StencilDef& def,
                        const stencil::ProblemSize& p,
                        const hhc::TileSizes& ts,
                        const hhc::ThreadConfig& thr, std::uint64_t run_id) {
  return price(dev, analyze_tile(dev, def, p, ts), ts, tile_key(dev, def, p, ts),
               stencil::total_flops(def, p), thr, run_id, 1);
}

SimResult measure_best_of(const CpuParams& dev, const stencil::StencilDef& def,
                          const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts,
                          const hhc::ThreadConfig& thr, int runs) {
  SimResult res;
  measure_best_of_batch(dev, def, p, ts, {&thr, 1}, {&res, 1}, runs);
  return res;
}

void measure_best_of_batch(const CpuParams& dev,
                           const stencil::StencilDef& def,
                           const stencil::ProblemSize& p,
                           const hhc::TileSizes& ts,
                           std::span<const hhc::ThreadConfig> thrs,
                           std::span<SimResult> out, int runs) {
  const TileGeometry tile = analyze_tile(dev, def, p, ts);
  const std::uint64_t key = tile_key(dev, def, p, ts);
  const double flops = stencil::total_flops(def, p);
  for (std::size_t j = 0; j < thrs.size(); ++j) {
    out[j] = price(dev, tile, ts, key, flops, thrs[j], 0, runs);
  }
}

double simulate_compute_only(const CpuParams& dev,
                             const stencil::StencilDef& def,
                             const stencil::ProblemSize& p,
                             const hhc::TileSizes& ts,
                             const hhc::ThreadConfig& thr) {
  const SweepGeometry g = analyze_sweep(dev, def, p, ts, thr);
  if (!g.feasible) return 0.0;
  // Whole sweep, one core, pure issue throughput: sub-tiles * groups.
  const double subs = static_cast<double>(g.wavefronts) *
                      static_cast<double>(g.tasks_row);
  return subs * g.groups_avg * g.cyc_group / dev.clock_hz;
}

}  // namespace repro::cpusim
