// model::TalgFloor against model::talg_auto_k: the floor must stay <=
// the exact Talg, and the run floor <= the floor, bit for bit (no
// tolerance), on every tile of the default space of every registered
// device and every catalogue stencil, at pipeline and paper problem
// sizes, under both tile geometries, whether or not consecutive tiles
// share a TalgFloor::Run; and the run floor never decreases inside
// one (tT, waves(1)) segment. A mode the floor does not model must
// floor to 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "device/registry.hpp"
#include "model/talg.hpp"
#include "stencil/stencil.hpp"
#include "tuner/calibration_cache.hpp"
#include "tuner/space.hpp"

namespace repro::model {
namespace {

// The tile floor through a fresh TalgFloor::Run.
double fresh(const TalgFloor& floor, const hhc::TileSizes& ts) {
  TalgFloor::Run run;
  return floor(ts, run);
}

// Two seeded problems at pipeline sizes (S 32-1024, T 1-16) and one
// at the paper's sizes.
std::vector<stencil::ProblemSize> problems(Rng& rng, int dim) {
  std::vector<stencil::ProblemSize> out;
  for (int i = 0; i < 2; ++i) {
    stencil::ProblemSize p;
    p.dim = dim;
    p.T = rng.uniform_int(1, 16);
    for (int d = 0; d < dim; ++d) {
      p.S[static_cast<std::size_t>(d)] = rng.uniform_int(32, 1024);
    }
    out.push_back(p);
  }
  switch (dim) {
    case 1: out.push_back({.dim = 1, .S = {1 << 20, 0, 0}, .T = 1 << 14}); break;
    case 2: out.push_back({.dim = 2, .S = {8192, 8192, 0}, .T = 8192}); break;
    default: out.push_back({.dim = 3, .S = {512, 512, 512}, .T = 512}); break;
  }
  return out;
}

class TalgFloorOnDevice : public ::testing::TestWithParam<std::string> {};

TEST_P(TalgFloorOnDevice, StaysBelowTalgOnTheDefaultSpace) {
  const device::Descriptor& dev = *device::registry().find(GetParam());
  Rng rng(20261018);
  std::size_t checked = 0;
  std::size_t exact = 0;  // tiles where the floor is Talg itself
  for (const stencil::StencilDef& def : stencil::all_stencils()) {
    const ModelInputs calibrated = tuner::calibrate_model(dev, def);
    const std::vector<hhc::TileSizes> space = tuner::enumerate_feasible(
        def.dim, calibrated.hw, tuner::EnumOptions{}, def.radius);
    for (const stencil::ProblemSize& p : problems(rng, def.dim)) {
      for (const TileGeometryMode geo : {TileGeometryMode::kPaperExact,
                                         TileGeometryMode::kFamilyAveraged}) {
        ModelInputs in = calibrated;
        in.geometry = geo;
        const TalgFloor floor(in, p);
        ASSERT_TRUE(floor.modeled());
        // One Run across the space, as a sweep's chunk uses it.
        TalgFloor::Run run;
        std::size_t bad = 0;
        for (const hhc::TileSizes& ts : space) {
          const double talg = talg_auto_k(in, p, ts).talg;
          const double bound = floor(ts, run);
          const double run_bound = floor.over_run(ts);
          if (!(bound <= talg) || bound != fresh(floor, ts) ||
              !(run_bound <= bound)) {
            if (++bad <= 3) {
              ADD_FAILURE() << def.name << " geo=" << static_cast<int>(geo)
                            << " " << ts.to_string() << " T=" << p.T
                            << " S1=" << p.S[0] << ": run floor "
                            << run_bound << ", floor " << bound
                            << " (fresh run " << fresh(floor, ts)
                            << "), talg " << talg;
            }
          }
          exact += bound == talg;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100000u);
  // The floor is not vacuous: it meets Talg on some tiles (where no
  // row ceiling rounds up and k = 1 wins).
  EXPECT_GT(exact, 0u);
}

// waves(1) of a tile's run, ceil(ceil(S1 / (2 tS1 + r tT)) / n_SM),
// written out here rather than taken from the model.
std::int64_t run_waves(const ModelInputs& in, const stencil::ProblemSize& p,
                       std::int64_t tT, std::int64_t tS1) {
  const std::int64_t pitch = 2 * tS1 + in.radius * tT;
  const std::int64_t w = (p.S[0] + pitch - 1) / pitch;
  return (w + in.hw.n_sm - 1) / in.hw.n_sm;
}

// The segment walk of Session::sweep_model rests on two facts, checked
// here run by run over the default spaces: segment_end is the first
// tS1 whose waves(1) is below the head's (the slope for a run below
// it), and inside a segment over_run never decreases as tS1 grows,
// bit for bit.
TEST_P(TalgFloorOnDevice, RunFloorsNeverDecreaseInsideAWavesSegment) {
  const device::Descriptor& dev = *device::registry().find(GetParam());
  constexpr std::int64_t kColumnEnd = std::numeric_limits<std::int64_t>::max();
  Rng rng(20261019);
  std::size_t inside = 0;      // consecutive runs of one segment
  std::size_t boundaries = 0;  // segment heads after a column's first
  for (const stencil::StencilDef& def : stencil::all_stencils()) {
    const ModelInputs calibrated = tuner::calibrate_model(dev, def);
    const std::vector<hhc::TileSizes> space = tuner::enumerate_feasible(
        def.dim, calibrated.hw, tuner::EnumOptions{}, def.radius);
    const std::int64_t slope = std::max(def.radius, 1);
    for (const stencil::ProblemSize& p : problems(rng, def.dim)) {
      for (const TileGeometryMode geo : {TileGeometryMode::kPaperExact,
                                         TileGeometryMode::kFamilyAveraged}) {
        ModelInputs in = calibrated;
        in.geometry = geo;
        const TalgFloor floor(in, p);
        std::string where = dev.name();
        where += " " + def.name + " " + p.to_string() + " geo=";
        where += std::to_string(static_cast<int>(geo));
        const hhc::TileSizes* prev = nullptr;
        double prev_floor = 0.0;
        std::int64_t end = 0;  // the segment end of the current head
        std::size_t bad = 0;
        for (const hhc::TileSizes& ts : space) {
          if (prev != nullptr && prev->tT == ts.tT && prev->tS1 == ts.tS1) {
            continue;
          }
          const double f = floor.over_run(ts);
          const bool same_column = prev != nullptr && prev->tT == ts.tT;
          if (same_column && ts.tS1 < end) {
            ++inside;
            if (!(f >= prev_floor) ||
                run_waves(in, p, ts.tT, ts.tS1) !=
                    run_waves(in, p, prev->tT, prev->tS1)) {
              if (++bad <= 3) {
                ADD_FAILURE() << where << " " << ts.to_string()
                              << ": run floor " << f << " after "
                              << prev_floor << " in one segment";
              }
            }
          } else {
            boundaries += same_column;
            end = floor.segment_end(ts);
            const std::int64_t v = run_waves(in, p, ts.tT, ts.tS1);
            const bool exact =
                ts.tS1 < slope
                    ? end == slope
                    : end == kColumnEnd
                          ? v <= 1
                          : end > ts.tS1 &&
                                run_waves(in, p, ts.tT, end) < v &&
                                run_waves(in, p, ts.tT, end - 1) == v;
            if (!exact && ++bad <= 3) {
              ADD_FAILURE() << where << " " << ts.to_string()
                            << ": segment end " << end << " for waves(1) "
                            << v;
            }
          }
          prev = &ts;
          prev_floor = f;
        }
      }
    }
  }
  EXPECT_GT(inside, 50000u);
  EXPECT_GT(boundaries, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Registry, TalgFloorOnDevice,
                         ::testing::ValuesIn(device::registry().names()),
                         [](const auto& info) {
                           std::string n;
                           for (const char c : info.param) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               n += c;
                             }
                           }
                           return n;
                         });

// A tile Eqn 31 rejects prices at +inf in a sweep (talg_auto_k
// throws on most of them); the floor is +infinity there too.
TEST(TalgFloor, ATileEqn31RejectsFloorsToInfinity) {
  const auto& def = stencil::get_stencil(stencil::StencilKind::kHeat2D);
  const ModelInputs in = tuner::calibrate_model(gpusim::gtx980(), def);
  const stencil::ProblemSize p{.dim = 2, .S = {512, 512, 0}, .T = 8};
  const TalgFloor floor(in, p);
  const hhc::TileSizes rejected[] = {
      {.tT = 64, .tS1 = 96, .tS2 = 4096, .tS3 = 1},  // over capacity
      {.tT = 3, .tS1 = 8, .tS2 = 64, .tS3 = 1},      // odd tT
      {.tT = 4, .tS1 = 0, .tS2 = 64, .tS3 = 1},      // below the slope
      {.tT = 4, .tS1 = 8, .tS2 = 0, .tS3 = 1}};      // empty extent
  for (const hhc::TileSizes& ts : rejected) {
    EXPECT_EQ(fresh(floor, ts), std::numeric_limits<double>::infinity())
        << ts.to_string();
  }
  // A run no tile of which Eqn 31 admits (odd tT, tS1 below the slope)
  // has an infinite run floor; a run of valid (tT, tS1) has a finite
  // one whatever the other extents.
  EXPECT_EQ(floor.over_run(rejected[1]),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(floor.over_run(rejected[2]),
            std::numeric_limits<double>::infinity());
  EXPECT_LT(floor.over_run(rejected[0]),
            std::numeric_limits<double>::infinity());
  const hhc::TileSizes same_run{.tT = 4, .tS1 = 8, .tS2 = 64, .tS3 = 1};
  EXPECT_EQ(floor.over_run(rejected[3]), floor.over_run(same_run));
}

// The closed-form row sum, and measured parameters the monotone
// rounding argument does not cover (negative or non-finite), are not
// modeled: every floor is 0, which is <= any non-negative Talg, and a
// sweep prices every tile.
TEST(TalgFloor, UnmodeledInputsFloorToZero) {
  const auto& def = stencil::get_stencil(stencil::StencilKind::kJacobi2D);
  const ModelInputs calibrated =
      tuner::calibrate_model(gpusim::gtx980(), def);
  const stencil::ProblemSize p{.dim = 2, .S = {256, 256, 0}, .T = 8};
  const std::vector<hhc::TileSizes> space =
      tuner::enumerate_feasible(2, calibrated.hw);

  ModelInputs closed = calibrated;
  closed.row_sum = RowSumMode::kClosedForm;
  ModelInputs negative = calibrated;
  negative.c_iter = -calibrated.c_iter;
  ModelInputs nan_sync = calibrated;
  nan_sync.mb.T_sync = std::nan("");
  for (const ModelInputs& in : {closed, negative, nan_sync}) {
    const TalgFloor floor(in, p);
    EXPECT_FALSE(floor.modeled());
    for (const hhc::TileSizes& ts : space) {
      ASSERT_EQ(fresh(floor, ts), 0.0) << ts.to_string();
      ASSERT_EQ(floor.over_run(ts), 0.0) << ts.to_string();
    }
  }
  // The closed-form Talg is still non-negative, so 0 stays admissible.
  const TalgFloor floor(closed, p);
  for (const hhc::TileSizes& ts : space) {
    ASSERT_LE(fresh(floor, ts), talg_auto_k(closed, p, ts).talg);
  }
  EXPECT_TRUE(TalgFloor(calibrated, p).modeled());
}

}  // namespace
}  // namespace repro::model
