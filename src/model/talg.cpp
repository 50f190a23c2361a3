#include "model/talg.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/math_util.hpp"
#include "hhc/footprint.hpp"

namespace repro::model {

namespace {

using repro::ceil_div;

// Row sum of Eqns 9/15/27: sum over x = tS1, tS1+2r, ..., w_tile of
// ceil(x * inner / n_v), doubled by the caller (each width occurs on
// the grow and shrink halves of the hexagon). The step is 2r because
// a radius-r hexagon widens by r on each side per level.
//
// The printed sum adds one integer-valued double per term. Summing the
// integers exactly (sum_ceil_div, a floor-sum) and converting once
// gives the same double bit for bit whenever the total is below 2^53:
// the terms are non-negative, so every partial sum of the term-wise
// loop is then an integer below 2^53 and each of its additions is
// exact. Every tile that reaches Talg through talg_auto_k or a sweep
// satisfies Eqn 31's capacity bound M_tile <= M_block, and each term
// is at most (tS1 + r tT) * inner <= M_tile / 2 with at most M_tile
// terms, so the total stays below M_tile^2 / 2 -- under 2^40 even for
// a 1 MiW (4 MiB) block limit.
double row_sum(std::int64_t t_s1, std::int64_t w_tile, std::int64_t inner,
               int n_v, std::int64_t radius, RowSumMode mode) {
  const std::int64_t step = 2 * radius;
  if (mode == RowSumMode::kClosedForm) {
    // Relax ceilings: sum(x * inner / n_v) over the progression.
    return sum_div_closed_form(t_s1 * inner, w_tile * inner, step * inner,
                               n_v);
  }
  return static_cast<double>(sum_ceil_div(t_s1 * inner, w_tile * inner,
                                          step * inner, n_v));
}

// Sum of the row widths x = lo, lo + 2r, ..., lo + r (tT - 2) of one
// half of a hexagon (the progression of Eqns 9/15/27, tT even >= 2):
// n = tT / 2 terms, so the sum is n (lo + r (n - 1)), an integer.
std::int64_t progression_sum(std::int64_t lo, std::int64_t t_t,
                             std::int64_t r) {
  const std::int64_t n = t_t / 2;
  return n * (lo + r * (n - 1));
}

// The row sum with each progression's ceilings relaxed to one:
// ceil(inner * sum(x) / n_v) over the same x, from the progression's
// sum(x). The printed sum is an integer >= inner * sum(x) / n_v, so
// it is >= this one; both are integers below 2^53 (see row_sum), so
// their doubles keep the order.
double relaxed_row_sum(std::int64_t x_sum, std::int64_t inner, int n_v) {
  return static_cast<double>(
      ceil_div(inner * x_sum, static_cast<std::int64_t>(n_v)));
}

// The pieces of Eqns 6-30 that the exact Talg and TalgFloor share, so
// that the floor evaluates the very expressions the model does.

// Inner-dimension factor of the transfer/compute volumes.
std::int64_t inner_extent(int dim, const hhc::TileSizes& ts) {
  std::int64_t inner = 1;
  if (dim >= 2) inner *= ts.tS2;
  if (dim >= 3) inner *= ts.tS3;
  return inner;
}

// Eqns 7-8 / 13-14 / 24-25: m' = (m_i + m_o) L + 2 tau_sync with
// m_i = m_o = inner * (tS1 + 2 tT). The family-averaged variant uses
// the mean base width (tS1 + 1) of the two hexagon families.
double transfer_time(const ModelInputs& in, const hhc::TileSizes& ts,
                     std::int64_t inner) {
  const bool averaged = in.geometry == TileGeometryMode::kFamilyAveraged;
  const double base_eff = static_cast<double>(ts.tS1) +
                          (averaged ? static_cast<double>(in.radius) : 0.0);
  const double m_io = 2.0 * static_cast<double>(inner) *
                      (base_eff + static_cast<double>(2 * in.radius * ts.tT));
  return m_io * in.mb.L_s_per_word + 2.0 * in.mb.tau_sync;
}

// Eqns 9 / 15 / 27: c = 2 C_iter * sum + tT tau, for the row sum (the
// family-averaged mean, when averaged) `sum`.
double compute_time(const ModelInputs& in, const hhc::TileSizes& ts,
                    double sum) {
  return 2.0 * in.c_iter * sum + static_cast<double>(ts.tT) * in.mb.tau_sync;
}

// Number of sub-prisms / sub-slabs per hexagonal prism/slab.
std::int64_t subtiles(const stencil::ProblemSize& p, const hhc::TileSizes& ts,
                      std::int64_t r) {
  if (p.dim == 2) return ceil_div(p.S[1] + r * ts.tT, ts.tS2);  // 4.2.2
  if (p.dim == 3) {
    // Eqn 23 (ceiling of the product, as printed).
    return static_cast<std::int64_t>(
        std::ceil(static_cast<double>(p.S[1] + r * ts.tT) /
                  static_cast<double>(ts.tS2) *
                  static_cast<double>(p.S[2] + r * ts.tT) /
                  static_cast<double>(ts.tS3)));
  }
  return 1;
}

// Per-tile / per-prism / per-slab time for hyper-threading factor k.
double tile_time(int dim, double m_prime, double c, double n_sub,
                 std::int64_t k) {
  if (dim == 1) {
    // Eqns 10 and 12 (Eqn 12 reduces to Eqn 10 at k = 1).
    return m_prime + c +
           static_cast<double>(k - 1) * std::max(m_prime, c);
  }
  // Eqn 16 / 28-29.
  if (k == 1) return (m_prime + c) * n_sub;
  return m_prime + static_cast<double>(k) * std::max(m_prime, c) * n_sub;
}

// Waves per wavefront row, ceil(ceil(w / k) / n_sm) = ceil(w / (k n_sm))
// (nested ceilings of positive integers collapse).
std::int64_t waves(std::int64_t w, std::int64_t k, int n_sm) {
  return ceil_div(w, k * static_cast<std::int64_t>(n_sm));
}

// waves(1) of a tile, ceil(ceil(S1 / pitch) / n_sm) with w =
// ceil(S1 / pitch) (Eqn 5 / 22), as one division.
std::int64_t first_waves(const stencil::ProblemSize& p,
                         const hhc::TileSizes& ts, std::int64_t r, int n_sm) {
  return ceil_div(p.S[0],
                  hhc::tile_pitch(ts, r) * static_cast<std::int64_t>(n_sm));
}

// Eqn 6 / 17 / 30: Talg = Nw * Tsync + Nw * Ttile * waves.
double total_time(const ModelInputs& in, double nw, double t_tile,
                  std::int64_t n_waves) {
  return nw * in.mb.T_sync + nw * t_tile * static_cast<double>(n_waves);
}

// The k-independent terms of Talg for one (problem, tile): the
// breakdown's nw, w, w_tile, m_prime, c and n_subtiles, plus the
// integer wavefront width the waves are counted from. talg() is
// talg_terms() then finish_talg(); talg_auto_k computes the terms
// once and prices every k from them.
struct TalgTerms {
  TalgBreakdown out;  // k, t_tile and talg left at their defaults
  std::int64_t w = 0;
  int dim = 1;

  double talg_at(const ModelInputs& in, std::int64_t k) const {
    return total_time(in, out.nw,
                      tile_time(dim, out.m_prime, out.c,
                                static_cast<double>(out.n_subtiles), k),
                      waves(w, k, in.hw.n_sm));
  }
};

TalgTerms talg_terms(const ModelInputs& in, const stencil::ProblemSize& p,
                     const hhc::TileSizes& ts) {
  hhc::validate(ts, p.dim);
  TalgTerms terms;
  terms.dim = p.dim;
  TalgBreakdown& out = terms.out;
  const std::int64_t r = in.radius;

  // Eqn 3 / 20: Nw ~ 2 * ceil(T / tT).
  out.nw = 2.0 * static_cast<double>(ceil_div(p.T, ts.tT));
  // Eqn 4 / 21: w_tile = tS1 + tT - 2, generalized to radius r.
  const std::int64_t w_tile = ts.tS1 + r * (ts.tT - 2);
  out.w_tile = static_cast<double>(w_tile);
  // Eqn 5 / 22: w ~ ceil(S1 / (2 tS1 + r tT)).
  terms.w = ceil_div(p.S[0], hhc::tile_pitch(ts, r));
  out.w = static_cast<double>(terms.w);

  const std::int64_t inner = inner_extent(p.dim, ts);
  out.m_prime = transfer_time(in, ts, inner);
  // Eqns 9 / 15 / 27: c = 2 C_iter * sum ceil(x*inner/nv) + tT tau.
  // Family-averaged: mean of the sums for base widths tS1 and tS1+2r.
  double sum = row_sum(ts.tS1, w_tile, inner, in.hw.n_v, r, in.row_sum);
  if (in.geometry == TileGeometryMode::kFamilyAveraged) {
    double wide = 0.0;
    if (in.row_sum == RowSumMode::kExactCeil) {
      // The wider family's progression is the narrower one shifted by
      // one step: its sum is the narrower (integer) sum less the first
      // term plus the term one step past the last. Every value is an
      // integer below 2^53, so this is its floor-sum's double exactly.
      const std::int64_t step = 2 * r;
      const std::int64_t past =
          ts.tS1 + step * ((w_tile - ts.tS1) / step + 1);
      const std::int64_t n_v = in.hw.n_v;
      wide = sum - static_cast<double>(ceil_div(ts.tS1 * inner, n_v)) +
             static_cast<double>(ceil_div(past * inner, n_v));
    } else {
      wide = row_sum(ts.tS1 + 2 * r, w_tile + 2 * r, inner, in.hw.n_v, r,
                     in.row_sum);
    }
    sum = 0.5 * (sum + wide);
  }
  out.c = compute_time(in, ts, sum);
  out.n_subtiles = subtiles(p, ts, r);
  return terms;
}

// The per-k finish: T_tile, the waves per wavefront and the total.
TalgBreakdown finish_talg(const TalgTerms& terms, const ModelInputs& in,
                          std::int64_t k) {
  TalgBreakdown out = terms.out;
  out.k = k;
  out.t_tile = tile_time(terms.dim, out.m_prime, out.c,
                         static_cast<double>(out.n_subtiles), k);
  out.talg = total_time(in, out.nw, out.t_tile, waves(terms.w, k, in.hw.n_sm));
  return out;
}

// Slack for the one floor step that reshapes the model's expression
// tree (TalgFloor's k >= 2 bound); see there.
constexpr double kReshapeGuard = 1.0 - 1e-12;

bool nonneg_finite(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace

std::int64_t k_max(int dim, const hhc::TileSizes& ts,
                   const HardwareParams& hw, std::int64_t radius) {
  const std::int64_t m_tile = hhc::shared_words_per_tile(dim, ts, radius);
  if (m_tile > hw.max_shared_words_per_block) return 0;  // infeasible
  const std::int64_t by_shared = hw.shared_words_per_sm / m_tile;
  return std::min<std::int64_t>(hw.max_tb_per_sm, by_shared);
}

bool tile_fits(int dim, const hhc::TileSizes& ts, const HardwareParams& hw,
               std::int64_t radius) {
  return k_max(dim, ts, hw, radius) >= 1;
}

TalgBreakdown talg(const ModelInputs& in, const stencil::ProblemSize& p,
                   const hhc::TileSizes& ts, std::int64_t k) {
  assert(k >= 1);
  return finish_talg(talg_terms(in, p, ts), in, k);
}

TalgBreakdown talg_auto_k(const ModelInputs& in, const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts) {
  const std::int64_t k_hi = k_max(p.dim, ts, in.hw, in.radius);
  if (k_hi < 1) {
    throw std::invalid_argument(
        "talg_auto_k: tile does not fit in shared memory");
  }
  const TalgTerms terms = talg_terms(in, p, ts);
  // The first strictly best k, then its breakdown (the same
  // expressions, so the same bits).
  std::int64_t best_k = 1;
  double best = terms.talg_at(in, 1);
  for (std::int64_t k = 2; k <= k_hi; ++k) {
    const double cur = terms.talg_at(in, k);
    if (cur < best) {
      best = cur;
      best_k = k;
    }
  }
  return finish_talg(terms, in, best_k);
}

TalgFloor::TalgFloor(const ModelInputs& in, const stencil::ProblemSize& p)
    : in_(&in),
      p_(&p),
      modeled_(in.row_sum == RowSumMode::kExactCeil &&
               nonneg_finite(in.c_iter) && nonneg_finite(in.mb.L_s_per_word) &&
               nonneg_finite(in.mb.tau_sync) && nonneg_finite(in.mb.T_sync)) {}

double TalgFloor::operator()(const hhc::TileSizes& ts, Run& run) const {
  if (!modeled_) return 0.0;
  const ModelInputs& in = *in_;
  const stencil::ProblemSize& p = *p_;
  const std::int64_t r = in.radius;
  const int n_sm = in.hw.n_sm;
  // A tile Eqn 31 rejects (model_talg_or_inf prices it at +inf): not
  // an even tT >= 2, an extent below 1 or tS1 below the slope, or
  // over capacity (k_max < 1).
  if (ts.tT < 2 || ts.tT % 2 != 0 ||
      ts.tS1 < std::max<std::int64_t>(r, 1) || (p.dim >= 2 && ts.tS2 < 1) ||
      (p.dim >= 3 && ts.tS3 < 1)) {
    return std::numeric_limits<double>::infinity();
  }
  const std::int64_t k_hi = k_max(p.dim, ts, in.hw, r);
  if (k_hi < 1) return std::numeric_limits<double>::infinity();

  if (run.tT != ts.tT || run.tS1 != ts.tS1) {
    // The terms of a new (tT, tS1) run.
    run.tT = ts.tT;
    run.tS1 = ts.tS1;
    run.nw = 2.0 * static_cast<double>(ceil_div(p.T, ts.tT));
    run.waves_1 = first_waves(p, ts, r, n_sm);
    run.x_sum = progression_sum(ts.tS1, ts.tT, r);
    run.x_sum_wide = progression_sum(ts.tS1 + 2 * r, ts.tT, r);
  }
  // The tile's terms, c from the relaxed row sums.
  const std::int64_t inner = inner_extent(p.dim, ts);
  const double m_prime = transfer_time(in, ts, inner);
  double sum = relaxed_row_sum(run.x_sum, inner, in.hw.n_v);
  if (in.geometry == TileGeometryMode::kFamilyAveraged) {
    sum = 0.5 * (sum + relaxed_row_sum(run.x_sum_wide, inner, in.hw.n_v));
  }
  const double c = compute_time(in, ts, sum);
  const double n_sub = static_cast<double>(subtiles(p, ts, r));

  // k = 1: the model's own expressions on the smaller c.
  const double one =
      total_time(in, run.nw, tile_time(p.dim, m_prime, c, n_sub, 1),
                 run.waves_1);
  if (k_hi == 1) return one;

  // Every k >= 2 at once. With M = max(m', c), the model's per-k
  // total is, in exact arithmetic and since waves(k) >= 1,
  //   Nw T_sync + Nw (base + k per) waves(k)
  //     >= Nw T_sync + Nw (base + per q),  q = max(2, waves(1)),
  // with base = m', per = M n_sub in 2D/3D (Eqn 16 / 28-29) and, in
  // 1D, m' + c + (k - 1) M = base + k per for base = min(m', c),
  // per = M (Eqn 12); k waves(k) is an integer >= k and >= w / n_sm,
  // so >= q. Every operand is a non-negative double. The model's total
  // rounds seven times (three in tile_time, four in total_time), which
  // leaves it >= (1 - u)^7 times the exact value of its expression;
  // the bound here rounds at most seven times (the guard's included),
  // which leaves it <= (1 + u)^7 times the right-hand side, u = 2^-53.
  // The guard 1 - 1e-12 exceeds that 14 u (~1.6e-15) slack by three
  // orders of magnitude, so the bound stays <= every k >= 2 total bit
  // for bit (for normal, non-subnormal operands).
  const double q =
      static_cast<double>(std::max<std::int64_t>(2, run.waves_1));
  const double widest = std::max(m_prime, c);
  const double base = p.dim == 1 ? std::min(m_prime, c) : m_prime;
  const double per = p.dim == 1 ? widest : widest * n_sub;
  const double rest =
      (run.nw * in.mb.T_sync + run.nw * (base + per * q)) * kReshapeGuard;
  return std::min(one, rest);
}

double TalgFloor::over_run(const hhc::TileSizes& ts) const {
  if (!modeled_) return 0.0;
  const ModelInputs& in = *in_;
  const stencil::ProblemSize& p = *p_;
  const std::int64_t r = in.radius;
  const int n_sm = in.hw.n_sm;
  if (ts.tT < 2 || ts.tT % 2 != 0 || ts.tS1 < std::max<std::int64_t>(r, 1)) {
    return std::numeric_limits<double>::infinity();
  }
  // Per tile of the run, with inner = tS2 (tS2 tS3 in 3D; 1 in 1D) and
  // the span D = S2 + r tT ((S2 + r tT)(S3 + r tT) in 3D; 1 in 1D), the
  // sub-tile count covers the span: n_sub >= max(1, D / inner). The
  // tile's m' = transfer_time(inner) and relaxed c = compute_time(S),
  // S >= inner x / n_v with x the progressions' (mean) sum(x), are
  // affine in inner and S with non-negative coefficients, so, in exact
  // arithmetic,
  //   m' n_sub >= m = transfer_time(D),
  //   c n_sub >= c_run = compute_time(x D / n_v)
  // (for inner <= D by n_sub >= D / inner, else by n_sub >= 1). The
  // tile floor's k = 1 total is then >= Nw T_sync + Nw (m + c_run)
  // waves(1), and its k >= 2 bound >= Nw T_sync + Nw max(m, c_run) q
  // with q = max(2, waves(1)) (its base term is >= 0 and its per
  // term M n_sub, or M in 1D, is >= each of m, c_run). Each side
  // rounds non-negative operands at most sixteen times (the guards
  // included), a slack below 32 u (~3.6e-15); the guard, applied once
  // more than operator() applies it, covers that with three orders of
  // magnitude to spare.
  const double nw = 2.0 * static_cast<double>(ceil_div(p.T, ts.tT));
  double x = static_cast<double>(progression_sum(ts.tS1, ts.tT, r));
  if (in.geometry == TileGeometryMode::kFamilyAveraged) {
    x = 0.5 * (x + static_cast<double>(
                       progression_sum(ts.tS1 + 2 * r, ts.tT, r)));
  }
  std::int64_t span = 1;
  if (p.dim >= 2) span = p.S[1] + r * ts.tT;
  if (p.dim >= 3) span *= p.S[2] + r * ts.tT;
  const double m = transfer_time(in, ts, span);
  const double c = compute_time(
      in, ts, x * static_cast<double>(span) / static_cast<double>(in.hw.n_v));
  const std::int64_t waves_1 = first_waves(p, ts, r, n_sm);
  double bound =
      nw * in.mb.T_sync + nw * (m + c) * static_cast<double>(waves_1);
  if (in.hw.max_tb_per_sm >= 2) {
    // k waves(k) is an integer >= k and >= w / n_sm, so >= waves(1).
    const double q = static_cast<double>(std::max<std::int64_t>(2, waves_1));
    bound = std::min(bound, nw * in.mb.T_sync + nw * (std::max(m, c) * q));
  }
  return bound * kReshapeGuard * kReshapeGuard;
}

std::int64_t TalgFloor::segment_end(const hhc::TileSizes& ts) const {
  constexpr std::int64_t kColumnEnd = std::numeric_limits<std::int64_t>::max();
  const std::int64_t r = in_->radius;
  const std::int64_t slope = std::max<std::int64_t>(r, 1);
  if (!modeled_ || ts.tT < 2 || ts.tT % 2 != 0) return kColumnEnd;
  if (ts.tS1 < slope) return slope;
  // waves(1) = ceil(S1 / (pitch n_SM)) is <= v - 1 exactly when
  // pitch = 2 tS1 + r tT >= ceil(S1 / ((v - 1) n_SM)). ts's own pitch
  // is below that, so the difference below is at least 2 tS1 + 1.
  const std::int64_t v = first_waves(*p_, ts, r, in_->hw.n_sm);
  if (v <= 1) return kColumnEnd;
  const std::int64_t pitch = ceil_div(
      p_->S[0], (v - 1) * static_cast<std::int64_t>(in_->hw.n_sm));
  return ceil_div(pitch - r * ts.tT, std::int64_t{2});
}

}  // namespace repro::model
