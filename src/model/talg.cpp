#include "model/talg.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
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

// The k-independent terms of Talg for one (problem, tile): the
// breakdown's nw, w, w_tile, m_prime, c and n_subtiles, plus the
// integer wavefront width the waves are counted from. talg() is
// talg_terms() then finish_talg(); talg_auto_k computes the terms
// once and finishes them for every k.
struct TalgTerms {
  TalgBreakdown out;  // k, t_tile and talg left at their defaults
  std::int64_t w = 0;
  int dim = 1;
};

TalgTerms talg_terms(const ModelInputs& in, const stencil::ProblemSize& p,
                     const hhc::TileSizes& ts) {
  hhc::validate(ts, p.dim);
  const HardwareParams& hw = in.hw;
  const MeasuredParams& mb = in.mb;

  TalgTerms terms;
  terms.dim = p.dim;
  TalgBreakdown& out = terms.out;

  const std::int64_t T = p.T;
  const std::int64_t S1 = p.S[0];
  const std::int64_t r = in.radius;

  // Eqn 3 / 20: Nw ~ 2 * ceil(T / tT).
  out.nw = 2.0 * static_cast<double>(ceil_div(T, ts.tT));
  // Eqn 4 / 21: w_tile = tS1 + tT - 2, generalized to radius r.
  const std::int64_t w_tile = ts.tS1 + r * (ts.tT - 2);
  out.w_tile = static_cast<double>(w_tile);
  // Eqn 5 / 22: w ~ ceil(S1 / (2 tS1 + r tT)).
  terms.w = ceil_div(S1, hhc::tile_pitch(ts, r));
  out.w = static_cast<double>(terms.w);

  // Inner-dimension factor of the transfer/compute volumes.
  std::int64_t inner = 1;
  if (p.dim >= 2) inner *= ts.tS2;
  if (p.dim >= 3) inner *= ts.tS3;

  // Eqns 7-8 / 13-14 / 24-25: m' = (m_i + m_o) L + 2 tau_sync with
  // m_i = m_o = inner * (tS1 + 2 tT). The family-averaged variant
  // uses the mean base width (tS1 + 1) of the two hexagon families.
  const bool averaged = in.geometry == TileGeometryMode::kFamilyAveraged;
  const double base_eff =
      static_cast<double>(ts.tS1) + (averaged ? static_cast<double>(r) : 0.0);
  const double m_io = 2.0 * static_cast<double>(inner) *
                      (base_eff + static_cast<double>(2 * r * ts.tT));
  out.m_prime = m_io * mb.L_s_per_word + 2.0 * mb.tau_sync;

  // Eqns 9 / 15 / 27: c = 2 C_iter * sum ceil(x*inner/nv) + tT tau.
  // Family-averaged: mean of the sums for base widths tS1 and tS1+2r.
  double sum = row_sum(ts.tS1, w_tile, inner, hw.n_v, r, in.row_sum);
  if (averaged) {
    sum = 0.5 * (sum + row_sum(ts.tS1 + 2 * r, w_tile + 2 * r, inner, hw.n_v,
                               r, in.row_sum));
  }
  out.c = 2.0 * in.c_iter * sum + static_cast<double>(ts.tT) * mb.tau_sync;

  // Number of sub-prisms / sub-slabs per hexagonal prism/slab.
  std::int64_t n_sub = 1;
  if (p.dim == 2) {
    n_sub = ceil_div(p.S[1] + r * ts.tT, ts.tS2);  // Section 4.2.2
  } else if (p.dim == 3) {
    // Eqn 23 (ceiling of the product, as printed).
    n_sub = static_cast<std::int64_t>(std::ceil(
        static_cast<double>(p.S[1] + r * ts.tT) /
        static_cast<double>(ts.tS2) *
        static_cast<double>(p.S[2] + r * ts.tT) /
        static_cast<double>(ts.tS3)));
  }
  out.n_subtiles = n_sub;
  return terms;
}

// The per-k finish: T_tile, the waves per wavefront and the total.
TalgBreakdown finish_talg(const TalgTerms& terms, const ModelInputs& in,
                          std::int64_t k) {
  TalgBreakdown out = terms.out;
  out.k = k;
  const double n_sub = static_cast<double>(out.n_subtiles);

  // Per-tile / per-prism / per-slab time.
  if (terms.dim == 1) {
    // Eqns 10 and 12 (Eqn 12 reduces to Eqn 10 at k = 1).
    out.t_tile = out.m_prime + out.c +
                 static_cast<double>(k - 1) * std::max(out.m_prime, out.c);
  } else {
    // Eqn 16 / 28-29.
    if (k == 1) {
      out.t_tile = (out.m_prime + out.c) * n_sub;
    } else {
      out.t_tile = out.m_prime + static_cast<double>(k) *
                                     std::max(out.m_prime, out.c) * n_sub;
    }
  }

  // Eqn 6 / 17 / 30: Talg = Nw * Tsync
  //                        + Nw * Ttile * ceil(ceil(w/k) / n_sm).
  const std::int64_t waves_per_row = ceil_div(
      ceil_div(terms.w, k), static_cast<std::int64_t>(in.hw.n_sm));
  out.talg = out.nw * in.mb.T_sync +
             out.nw * out.t_tile * static_cast<double>(waves_per_row);
  return out;
}

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
  TalgBreakdown best = finish_talg(terms, in, 1);
  for (std::int64_t k = 2; k <= k_hi; ++k) {
    const TalgBreakdown cur = finish_talg(terms, in, k);
    if (cur.talg < best.talg) best = cur;
  }
  return best;
}

}  // namespace repro::model
