#include "support/talg_oracle.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"
#include "hhc/footprint.hpp"

namespace repro::test {

namespace {

using model::RowSumMode;
using model::TalgBreakdown;
using model::TileGeometryMode;
using repro::ceil_div;

double row_sum(std::int64_t t_s1, std::int64_t w_tile, std::int64_t inner,
               int n_v, std::int64_t radius, RowSumMode mode) {
  const std::int64_t step = 2 * radius;
  if (mode == RowSumMode::kClosedForm) {
    return sum_div_closed_form(t_s1 * inner, w_tile * inner, step * inner,
                               n_v);
  }
  return looped_ceil_sum(t_s1 * inner, w_tile * inner, step * inner, n_v);
}

}  // namespace

double looped_ceil_sum(std::int64_t lo, std::int64_t hi, std::int64_t step,
                       std::int64_t d) {
  double acc = 0.0;
  for (std::int64_t x = lo; x <= hi; x += step) {
    acc += static_cast<double>(ceil_div(x, d));
  }
  return acc;
}

TalgBreakdown reference_talg(const model::ModelInputs& in,
                             const stencil::ProblemSize& p,
                             const hhc::TileSizes& ts, std::int64_t k) {
  assert(k >= 1);
  hhc::validate(ts, p.dim);
  const model::HardwareParams& hw = in.hw;
  const model::MeasuredParams& mb = in.mb;

  TalgBreakdown out;
  out.k = k;

  const std::int64_t T = p.T;
  const std::int64_t S1 = p.S[0];
  const std::int64_t r = in.radius;

  out.nw = 2.0 * static_cast<double>(ceil_div(T, ts.tT));
  const std::int64_t w_tile = ts.tS1 + r * (ts.tT - 2);
  out.w_tile = static_cast<double>(w_tile);
  const std::int64_t w = ceil_div(S1, hhc::tile_pitch(ts, r));
  out.w = static_cast<double>(w);

  std::int64_t inner = 1;
  if (p.dim >= 2) inner *= ts.tS2;
  if (p.dim >= 3) inner *= ts.tS3;

  const bool averaged = in.geometry == TileGeometryMode::kFamilyAveraged;
  const double base_eff =
      static_cast<double>(ts.tS1) + (averaged ? static_cast<double>(r) : 0.0);
  const double m_io = 2.0 * static_cast<double>(inner) *
                      (base_eff + static_cast<double>(2 * r * ts.tT));
  out.m_prime = m_io * mb.L_s_per_word + 2.0 * mb.tau_sync;

  double sum = row_sum(ts.tS1, w_tile, inner, hw.n_v, r, in.row_sum);
  if (averaged) {
    sum = 0.5 * (sum + row_sum(ts.tS1 + 2 * r, w_tile + 2 * r, inner, hw.n_v,
                               r, in.row_sum));
  }
  out.c = 2.0 * in.c_iter * sum + static_cast<double>(ts.tT) * mb.tau_sync;

  std::int64_t n_sub = 1;
  if (p.dim == 2) {
    n_sub = ceil_div(p.S[1] + r * ts.tT, ts.tS2);
  } else if (p.dim == 3) {
    n_sub = static_cast<std::int64_t>(std::ceil(
        static_cast<double>(p.S[1] + r * ts.tT) /
        static_cast<double>(ts.tS2) *
        static_cast<double>(p.S[2] + r * ts.tT) /
        static_cast<double>(ts.tS3)));
  }
  out.n_subtiles = n_sub;

  if (p.dim == 1) {
    out.t_tile = out.m_prime + out.c +
                 static_cast<double>(k - 1) * std::max(out.m_prime, out.c);
  } else if (k == 1) {
    out.t_tile = (out.m_prime + out.c) * static_cast<double>(n_sub);
  } else {
    out.t_tile = out.m_prime + static_cast<double>(k) *
                                   std::max(out.m_prime, out.c) *
                                   static_cast<double>(n_sub);
  }

  const std::int64_t waves_per_row =
      ceil_div(ceil_div(w, k), static_cast<std::int64_t>(hw.n_sm));
  out.talg = out.nw * mb.T_sync +
             out.nw * out.t_tile * static_cast<double>(waves_per_row);
  return out;
}

TalgBreakdown reference_talg_auto_k(const model::ModelInputs& in,
                                    const stencil::ProblemSize& p,
                                    const hhc::TileSizes& ts) {
  const std::int64_t k_hi = model::k_max(p.dim, ts, in.hw, in.radius);
  if (k_hi < 1) {
    throw std::invalid_argument(
        "reference_talg_auto_k: tile does not fit in shared memory");
  }
  TalgBreakdown best = reference_talg(in, p, ts, 1);
  for (std::int64_t k = 2; k <= k_hi; ++k) {
    const TalgBreakdown cur = reference_talg(in, p, ts, k);
    if (cur.talg < best.talg) best = cur;
  }
  return best;
}

}  // namespace repro::test
