#include "cpusim/microbench.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "cpusim/timing.hpp"
#include "stencil/problem.hpp"

namespace repro::cpusim {

namespace {

// The model's family-averaged SIMD-group count per sub-tile: Eqn
// 9/15/27's row sum, 2 * sum over x of ceil(x * inner / n_v), averaged
// over the two hexagon families (base widths tS1 and tS1 + 2r). This
// is what measure_citer divides the transfer-free time by — i.e. the
// compute equation is inverted on the measurement, exactly how the
// paper extracts C_iter from kernel timings (Section 5.2).
double model_groups_per_subtile(const hhc::TileSizes& ts, std::int64_t inner,
                                std::int64_t radius, int n_v) {
  double pair = 0.0;
  for (std::int64_t base : {ts.tS1, ts.tS1 + 2 * radius}) {
    for (std::int64_t j = 0; j < ts.tT / 2; ++j) {
      const std::int64_t x = base + 2 * radius * j;
      pair += 2.0 * static_cast<double>(
                        ceil_div(x * inner, static_cast<std::int64_t>(n_v)));
    }
  }
  return 0.5 * pair;
}

}  // namespace

CpuMicrobench run_machine_microbench(const CpuParams& dev) {
  CpuMicrobench out;

  // L: stream 1 GB through the socket; aggregate bandwidth dominates,
  // one startup latency amortizes over the stream.
  {
    const double bytes = 1e9;
    const double seconds = dev.mem_latency_s + bytes / dev.mem_bandwidth_bps;
    out.L_s_per_gb = seconds / (bytes / 1e9);
  }

  // tau_sync: a sweep of empty time steps — per-step fence cost is
  // the slope.
  {
    const std::int64_t n = 1 << 20;
    const double seconds = static_cast<double>(n) * dev.step_fence_s;
    out.tau_sync = seconds / static_cast<double>(n);
  }

  // T_sync: a storm of empty parallel regions — per-region entry+exit
  // cost is the slope.
  {
    const std::int64_t n = 1 << 12;
    const double seconds = static_cast<double>(n) * dev.parallel_launch_s;
    out.t_sync = seconds / static_cast<double>(n);
  }
  return out;
}

double measure_citer(const CpuParams& dev, const stencil::StencilDef& def,
                     int samples, std::uint64_t seed) {
  Rng rng(seed ^ repro::mix64(static_cast<std::uint64_t>(def.kind)));
  // SMT-saturating strands on one core: the operating point the model
  // assumes (no issue stalls, no over-subscription).
  const hhc::ThreadConfig thr{.n1 = dev.smt, .n2 = 1, .n3 = 1};

  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < samples; ++i) {
    stencil::ProblemSize p;
    p.dim = def.dim;
    hhc::TileSizes ts;
    ts.tT = 2 * rng.uniform_int(1, 12);
    // Keep rows several vector groups wide so strand-chunking and
    // SIMD-remainder waste stay small — the paper measures C_iter on
    // saturated rows.
    if (def.dim == 1) {
      ts.tS1 = rng.uniform_int(256, 1024);
      p.S = {rng.uniform_int(4096, 1 << 16), 0, 0};
    } else if (def.dim == 2) {
      ts.tS1 = rng.uniform_int(8, 32);
      const std::int64_t s = rng.uniform_int(512, 3072);
      p.S = {s, s, 0};
      ts.tS2 = 64 * rng.uniform_int(2, 8);
    } else {
      ts.tS1 = rng.uniform_int(4, 16);
      const std::int64_t s = rng.uniform_int(96, 320);
      p.S = {s, s, s};
      ts.tS2 = 16 * rng.uniform_int(2, 6);
      ts.tS3 = 16 * rng.uniform_int(2, 4);
    }
    p.T = rng.uniform_int(32, 256);

    const double compute_s = simulate_compute_only(dev, def, p, ts, thr);
    const SweepGeometry g = analyze_sweep(dev, def, p, ts, thr);
    if (compute_s <= 0.0 || !g.feasible) continue;
    const double model_groups = model_groups_per_subtile(
        ts, g.inner, g.radius, dev.vector_words);
    const double subs = static_cast<double>(g.wavefronts) *
                        static_cast<double>(g.tasks_row);
    if (model_groups <= 0.0 || subs <= 0.0) continue;
    // Invert Eqn 9/15/27 on the transfer-free time. The MINIMUM over
    // samples keeps strand-chunking waste (which the simulator owns,
    // and the deliberately optimistic model relaxes) from leaking into
    // the per-iteration cost.
    best = std::min(best, compute_s / (subs * model_groups));
  }
  return std::isfinite(best) ? best : 0.0;
}

model::ModelInputs calibrate_model(const CpuParams& dev,
                                   const stencil::StencilDef& def) {
  const CpuMicrobench mb = run_machine_microbench(dev);
  model::ModelInputs in;
  in.hw = dev.to_model_hardware();
  in.mb.L_s_per_word = model::l_per_word_from_s_per_gb(mb.L_s_per_gb);
  in.mb.tau_sync = mb.tau_sync;
  in.mb.T_sync = mb.t_sync;
  in.c_iter = measure_citer(dev, def);
  in.radius = def.radius;
  return in;
}

}  // namespace repro::cpusim
