#include "cpusim/timing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "hhc/footprint.hpp"

namespace repro::cpusim {

namespace {

using repro::ceil_div;

constexpr const char* kStrandsOutOfRange =
    "strand count out of range [1, 1024]";

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

std::int64_t family_groups(std::int64_t base, std::int64_t tT,
                           std::int64_t inner, std::int64_t radius,
                           int strands, int n_v) {
  const std::int64_t s = std::max(strands, 1);
  const std::int64_t rows = tT / 2;
  // Row j holds (base + 2rj) * inner points, increasing in j, so the
  // rows with fewer points than strands are a prefix: j < j0, where
  // j0 is the first row with base + 2rj >= ceil(s / inner).
  const std::int64_t width_min = ceil_div(s, inner);
  const std::int64_t j0 =
      width_min <= base
          ? 0
          : std::min(rows, ceil_div(width_min - base, 2 * radius));
  // Short rows: every point is its own strand, one group each.
  const std::int64_t short_groups =
      2 * inner * (j0 * base + radius * j0 * (j0 - 1));
  if (j0 == rows) return short_groups;
  // Saturated rows: s chunks of ceil(points / s) points, each
  // ceil(chunk / n_v) groups, and ceil(ceil(x / s) / n_v) equals
  // ceil(x / (s * n_v)).
  const std::int64_t step = 2 * radius * inner;
  const std::int64_t lo = (base + 2 * radius * j0) * inner;
  const std::int64_t hi = (base + 2 * radius * (rows - 1)) * inner;
  return short_groups +
         2 * s * sum_ceil_div(lo, hi, step, s * static_cast<std::int64_t>(n_v));
}

StrandStep analyze_strands(const TileGeometry& tile, const CpuParams& dev,
                           const hhc::TileSizes& ts,
                           const hhc::ThreadConfig& thr) {
  StrandStep st;
  st.strands = thr.total();
  if (!tile.feasible || !strands_in_range(thr)) return st;
  const std::int64_t r = tile.radius;
  st.feasible = true;
  st.groups_avg =
      0.5 * (static_cast<double>(family_groups(ts.tS1, ts.tT, tile.inner, r,
                                               st.strands, dev.vector_words)) +
             static_cast<double>(family_groups(ts.tS1 + 2 * r, ts.tT,
                                               tile.inner, r, st.strands,
                                               dev.vector_words)));
  return st;
}

SweepGeometry analyze_sweep(const CpuParams& dev,
                            const stencil::StencilDef& def,
                            const stencil::ProblemSize& p,
                            const hhc::TileSizes& ts,
                            const hhc::ThreadConfig& thr) {
  SweepGeometry g;
  static_cast<TileGeometry&>(g) = analyze_tile(dev, def, p, ts);
  const StrandStep st = analyze_strands(g, dev, ts, thr);
  g.strands = st.strands;
  g.groups_avg = st.groups_avg;
  if (g.feasible && !st.feasible) {
    g.feasible = false;
    g.infeasible_reason = kStrandsOutOfRange;
  }
  return g;
}

namespace {

// The one term of a price the strand count reaches: compute seconds
// per sub-tile at `strands` strands issuing `groups_avg` SIMD groups.
double compute_per_sub(const CpuParams& dev, const TileGeometry& g,
                       int strands, double groups_avg) {
  // Compute: family-averaged SIMD groups with chunk/remainder
  // ceilings, inflated when the core is under-threaded (issue stalls)
  // or over-subscribed (context-switch overhead).
  const double stall =
      strands < dev.smt
          ? 1.0 + dev.stall_factor *
                      static_cast<double>(dev.smt - strands) /
                      static_cast<double>(dev.smt)
          : 1.0;
  const double oversub =
      strands > dev.smt ? 1.0 + dev.oversub_penalty *
                                    static_cast<double>(strands - dev.smt)
                        : 1.0;
  return groups_avg * g.cyc_group / dev.clock_hz * stall * oversub;
}

// The jitter-free pricing body around a precomputed compute_sub. The
// result is non-decreasing in compute_sub: it enters only through a
// sum, a max and products with non-negative factors, all monotone
// under IEEE rounding.
SimResult price_sub(const CpuParams& dev, const TileGeometry& g,
                    const hhc::TileSizes& ts, double compute_sub) {
  SimResult res;
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

  return res;
}

}  // namespace

SimResult simulate_jitter_free(const CpuParams& dev, const TileGeometry& g,
                               const hhc::TileSizes& ts,
                               const hhc::ThreadConfig& thr) {
  const StrandStep st = analyze_strands(g, dev, ts, thr);
  if (!st.feasible) {
    SimResult res;
    res.infeasible_reason = g.feasible ? kStrandsOutOfRange
                                       : g.infeasible_reason;
    return res;
  }
  return price_sub(dev, g, ts,
                   compute_per_sub(dev, g, st.strands, st.groups_avg));
}

double min_jitter_free(const CpuParams& dev, const TileGeometry& g,
                       const hhc::TileSizes& ts,
                       std::span<const hhc::ThreadConfig> thrs) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!g.feasible) return kInf;
  // The price is non-decreasing in compute_sub, so the cheapest
  // strand count is the one with the smallest compute term, and one
  // pricing body at that term is the minimum over the axis.
  //
  // Most strand steps are ruled out by a floor of that term instead.
  // family_groups(s) >= family_groups(1) for every strand count s,
  // row by row: a short row costs 2 * points >= 2 * ceil(points / n_v)
  // and a saturated one 2s * ceil(x / (s * n_v)) >= 2 * ceil(x / n_v).
  // compute_per_sub is non-decreasing in groups_avg under IEEE
  // rounding while its other factors are >= 0 (the cycles per group,
  // and stall and oversub, both >= 1 when stall_factor and
  // oversub_penalty are >= 0, as the device audit requires), so
  // compute_per_sub(s) at the one-strand group count is a floor of
  // compute_per_sub(s), bit for bit. The strand count with the
  // smallest floor is evaluated exactly first, and any other only if
  // its floor is below the running minimum: an exact term at or above
  // the minimum cannot lower it. Without that monotonicity every floor
  // is -infinity and every strand count is evaluated.
  const bool monotone = g.cyc_group >= 0.0 && dev.stall_factor >= 0.0 &&
                        dev.oversub_penalty >= 0.0;
  const double groups_one =
      analyze_strands(g, dev, ts, hhc::ThreadConfig{1, 1, 1}).groups_avg;
  const auto floor_of = [&](const hhc::ThreadConfig& thr) {
    return monotone ? compute_per_sub(dev, g, thr.total(), groups_one) : -kInf;
  };
  const auto exact_of = [&](const hhc::ThreadConfig& thr) {
    return compute_per_sub(dev, g, thr.total(),
                           analyze_strands(g, dev, ts, thr).groups_avg);
  };
  std::size_t first = thrs.size();
  double first_floor = kInf;
  for (std::size_t j = 0; j < thrs.size(); ++j) {
    if (!strands_in_range(thrs[j])) continue;
    const double f = floor_of(thrs[j]);
    if (first == thrs.size() || f < first_floor) {
      first = j;
      first_floor = f;
    }
  }
  if (first == thrs.size()) return kInf;
  // std::min drops a NaN term, as a scan of the whole axis does.
  double compute_min = std::min(kInf, exact_of(thrs[first]));
  for (std::size_t j = 0; j < thrs.size(); ++j) {
    if (j != first && strands_in_range(thrs[j]) &&
        floor_of(thrs[j]) < compute_min) {
      compute_min = std::min(compute_min, exact_of(thrs[j]));
    }
  }
  if (compute_min == kInf) return compute_min;
  return price_sub(dev, g, ts, compute_min).seconds;
}

namespace {

// The best-of-runs protocol on a jitter-free base: the jitter is a
// final multiplicative factor, so the base times the smallest draw
// over the run ids [first_run, first_run + runs) (at least one) is
// exactly the min over `runs` full simulations. simulate_time,
// measure_best_of and measure_best_of_batch all end here.
SimResult best_of_runs(const CpuParams& dev, SimResult res,
                       std::uint64_t key_prefix, double flops,
                       const hhc::ThreadConfig& thr, std::uint64_t first_run,
                       int runs) {
  if (!res.feasible) return res;
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
  return best_of_runs(
      dev, simulate_jitter_free(dev, analyze_tile(dev, def, p, ts), ts, thr),
      tile_key(dev, def, p, ts), stencil::total_flops(def, p), thr, run_id, 1);
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
    out[j] = best_of_runs(dev, simulate_jitter_free(dev, tile, ts, thrs[j]),
                          key, flops, thrs[j], 0, runs);
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
