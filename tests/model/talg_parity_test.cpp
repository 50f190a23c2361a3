// model::talg and model::talg_auto_k against the per-k, term-by-term
// oracle (tests/support/talg_oracle.*), bit for bit on every
// TalgBreakdown field. The library computes the k-independent terms
// once per tile and sums the rows of Eqns 9/15/27 with a floor-sum;
// neither shortcut may move a single bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "cpusim/microbench.hpp"
#include "device/registry.hpp"
#include "gpusim/microbench.hpp"
#include "hhc/footprint.hpp"
#include "model/talg.hpp"
#include "stencil/stencil.hpp"
#include "support/talg_oracle.hpp"

namespace repro::model {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const TalgBreakdown& got, const TalgBreakdown& want,
                 const std::string& where) {
  EXPECT_EQ(bits(got.nw), bits(want.nw)) << where << " nw";
  EXPECT_EQ(bits(got.w), bits(want.w)) << where << " w";
  EXPECT_EQ(bits(got.w_tile), bits(want.w_tile)) << where << " w_tile";
  EXPECT_EQ(bits(got.m_prime), bits(want.m_prime)) << where << " m_prime";
  EXPECT_EQ(bits(got.c), bits(want.c)) << where << " c";
  EXPECT_EQ(bits(got.t_tile), bits(want.t_tile)) << where << " t_tile";
  EXPECT_EQ(got.n_subtiles, want.n_subtiles) << where << " n_subtiles";
  EXPECT_EQ(got.k, want.k) << where << " k";
  EXPECT_EQ(bits(got.talg), bits(want.talg)) << where << " talg";
}

// One calibration per (registered device, dim): GPU and CPU backends.
struct Calibrated {
  std::string device;
  int dim = 1;
  ModelInputs in;
};

std::vector<Calibrated> calibrations() {
  std::vector<Calibrated> out;
  for (const device::Descriptor& dev : device::registry().devices()) {
    for (int dim = 1; dim <= 3; ++dim) {
      for (const stencil::StencilDef& def : stencil::all_stencils()) {
        if (def.dim != dim) continue;
        out.push_back({dev.name(), dim,
                       dev.is_gpu() ? gpusim::calibrate_model(dev.gpu(), def)
                                    : cpusim::calibrate_model(dev.cpu(), def)});
        break;
      }
    }
  }
  return out;
}

// The largest extent along the innermost axis of `dim` that keeps
// M_tile within the per-block limit, or 0 when even 1 does not fit.
std::int64_t capacity_edge(int dim, hhc::TileSizes ts, std::int64_t radius,
                           const HardwareParams& hw) {
  std::int64_t& axis = dim == 1 ? ts.tS1 : (dim == 2 ? ts.tS2 : ts.tS3);
  axis = 0;
  while (hhc::shared_words_per_tile(dim, ts, radius) <=
         std::min(hw.max_shared_words_per_block, hw.shared_words_per_sm)) {
    ++axis;
  }
  return axis - 1;
}

// Random tiles: free draws (some over capacity), plus the last tile
// that fits along the innermost axis and the first that does not.
std::vector<hhc::TileSizes> tiles_for(Rng& rng, int dim, std::int64_t radius,
                                      const HardwareParams& hw) {
  std::vector<hhc::TileSizes> out;
  for (int i = 0; i < 40; ++i) {
    hhc::TileSizes ts{.tT = 2 * rng.uniform_int(1, 32),
                      .tS1 = rng.uniform_int(1, 96),
                      .tS2 = dim >= 2 ? rng.uniform_int(1, 512) : 1,
                      .tS3 = dim >= 3 ? rng.uniform_int(1, 96) : 1};
    if (i % 3 == 0) {
      const std::int64_t edge = capacity_edge(dim, ts, radius, hw);
      if (edge < 1) continue;
      std::int64_t& axis = dim == 1 ? ts.tS1 : (dim == 2 ? ts.tS2 : ts.tS3);
      axis = edge;
      out.push_back(ts);
      axis = edge + 1;
    }
    out.push_back(ts);
  }
  return out;
}

stencil::ProblemSize random_problem(Rng& rng, int dim) {
  stencil::ProblemSize p;
  p.dim = dim;
  // Small draws put T below tT and S1 below the tile pitch.
  const bool small = rng.next_below(3) == 0;
  p.T = small ? rng.uniform_int(1, 16) : rng.uniform_int(16, 4096);
  for (int d = 0; d < dim; ++d) {
    p.S[static_cast<std::size_t>(d)] =
        small ? rng.uniform_int(1, 64) : rng.uniform_int(64, 16384);
  }
  return p;
}

TEST(TalgParity, EveryFieldMatchesThePerKOracleBitForBit) {
  Rng rng(20261018);
  std::size_t auto_k_checked = 0;
  std::size_t per_k_checked = 0;
  std::size_t over_capacity = 0;
  for (const Calibrated& cal : calibrations()) {
    for (int radius = 1; radius <= 4; ++radius) {
      for (const RowSumMode rs :
           {RowSumMode::kExactCeil, RowSumMode::kClosedForm}) {
        for (const TileGeometryMode geo : {TileGeometryMode::kPaperExact,
                                           TileGeometryMode::kFamilyAveraged}) {
          ModelInputs in = cal.in;
          in.radius = radius;
          in.row_sum = rs;
          in.geometry = geo;
          for (const hhc::TileSizes& ts :
               tiles_for(rng, cal.dim, radius, in.hw)) {
            const stencil::ProblemSize p = random_problem(rng, cal.dim);
            const std::string where =
                cal.device + " dim=" + std::to_string(cal.dim) +
                " r=" + std::to_string(radius) +
                " rowsum=" + std::to_string(static_cast<int>(rs)) +
                " geo=" + std::to_string(static_cast<int>(geo)) + " " +
                ts.to_string() + " T=" + std::to_string(p.T) +
                " S1=" + std::to_string(p.S[0]);
            const std::int64_t k_hi = k_max(cal.dim, ts, in.hw, radius);
            if (k_hi < 1) {
              ++over_capacity;
              EXPECT_THROW((void)talg_auto_k(in, p, ts), std::invalid_argument)
                  << where;
              EXPECT_THROW((void)test::reference_talg_auto_k(in, p, ts),
                           std::invalid_argument)
                  << where;
              expect_same(talg(in, p, ts, 1), test::reference_talg(in, p, ts, 1),
                          where + " k=1");
              continue;
            }
            for (std::int64_t k = 1; k <= k_hi; ++k) {
              expect_same(talg(in, p, ts, k),
                          test::reference_talg(in, p, ts, k),
                          where + " k=" + std::to_string(k));
              ++per_k_checked;
            }
            expect_same(talg_auto_k(in, p, ts),
                        test::reference_talg_auto_k(in, p, ts),
                        where + " auto_k");
            ++auto_k_checked;
            if (HasFailure()) return;
          }
        }
      }
    }
  }
  // The draws must actually reach every branch they are meant to.
  EXPECT_GT(auto_k_checked, 3000u);
  EXPECT_GT(per_k_checked, auto_k_checked);
  EXPECT_GT(over_capacity, 1000u);
}

// With every cost term zero, T_tile is 0 for every k and all k tie:
// the first strictly better k (k = 1) must win, as in the oracle.
TEST(TalgParity, TiedKsKeepTheFirst) {
  ModelInputs in = calibrations().front().in;
  in.c_iter = 0.0;
  in.mb.L_s_per_word = 0.0;
  in.mb.tau_sync = 0.0;
  const stencil::ProblemSize p{.dim = 2, .S = {4096, 4096, 0}, .T = 64};
  const hhc::TileSizes ts{.tT = 4, .tS1 = 8, .tS2 = 32, .tS3 = 1};
  ASSERT_GT(k_max(2, ts, in.hw, in.radius), 1);
  const TalgBreakdown got = talg_auto_k(in, p, ts);
  EXPECT_EQ(got.k, 1);
  expect_same(got, test::reference_talg_auto_k(in, p, ts), "tied");
}

TEST(TalgParity, InvalidTilesThrowLikeTheOracle) {
  ModelInputs in = calibrations().front().in;
  const stencil::ProblemSize p{.dim = 2, .S = {512, 512, 0}, .T = 64};
  const hhc::TileSizes odd{.tT = 3, .tS1 = 8, .tS2 = 32, .tS3 = 1};
  EXPECT_THROW((void)talg(in, p, odd, 1), std::invalid_argument);
  EXPECT_THROW((void)test::reference_talg(in, p, odd, 1),
               std::invalid_argument);
}

// The exact row sum (a floor-sum, converted to double once) against
// the term-by-term double accumulation it replaces, on arguments up to
// the capacity bound: 2 * 4 * 96 columns of up to 512 * 96 words.
TEST(TalgParity, FloorSumRowSumEqualsTheLoopedSum) {
  Rng rng(53);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t inner = rng.uniform_int(1, 512 * 96);
    const std::int64_t step = 2 * rng.uniform_int(1, 4) * inner;
    const std::int64_t lo = rng.uniform_int(0, 96) * inner;
    const std::int64_t terms = rng.uniform_int(0, 40);
    const std::int64_t hi =
        lo + step * (terms - 1) + (terms > 0 ? rng.uniform_int(0, step - 1) : 0);
    const std::int64_t d = rng.uniform_int(1, 256);
    const double want = test::looped_ceil_sum(lo, hi, step, d);
    const double got = static_cast<double>(sum_ceil_div(lo, hi, step, d));
    ASSERT_EQ(bits(got), bits(want))
        << "lo=" << lo << " hi=" << hi << " step=" << step << " d=" << d;
  }
}

}  // namespace
}  // namespace repro::model
