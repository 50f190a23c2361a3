// enumerate_feasible stops each loop at the shared-memory capacity
// edge. The full-lattice walk (tests/support/space_oracle.*) visits
// every point; the two must return the same tiles in the same order
// on every lattice, device, dim and radius, including radius 0, whose
// tS1 = 0 points fail on slope rather than capacity. The baseline set
// drawn from a space must equal the per-comparison footprint form
// (tests/support/baseline_oracle.hpp) in the same way.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "device/registry.hpp"
#include "support/baseline_oracle.hpp"
#include "support/space_oracle.hpp"
#include "tuner/space.hpp"

namespace repro::tuner {
namespace {

// An axis maximum `count` lattice points past `start`, pushed off the
// lattice by up to step - 1.
std::int64_t axis_max(Rng& rng, std::int64_t start, std::int64_t step,
                      std::int64_t count) {
  return start + step * (rng.uniform_int(1, count) - 1) +
         rng.uniform_int(0, step - 1);
}

EnumOptions random_options(Rng& rng, int dim, std::int64_t radius) {
  EnumOptions opt;
  opt.tT_step = rng.uniform_int(1, 7);
  opt.tS1_step = rng.uniform_int(1, 7);
  opt.tS2_step = rng.uniform_int(1, 7);
  opt.tS3_step = rng.uniform_int(1, 7);
  // Per-axis point counts keep the full walk small in 3D; even the
  // smallest draws reach the capacity edge through tT and tS1.
  const std::int64_t n = dim == 3 ? 20 : 48;
  opt.tT_max = axis_max(rng, 2, opt.tT_step, 2 * n);
  opt.tS1_max =
      axis_max(rng, std::max<std::int64_t>(radius, 1), opt.tS1_step, 2 * n);
  opt.tS2_max = axis_max(rng, opt.tS2_step, opt.tS2_step, n);
  opt.tS3_max = axis_max(rng, opt.tS3_step, opt.tS3_step, n);
  return opt;
}

std::string describe(const EnumOptions& o) {
  return "tT<=" + std::to_string(o.tT_max) + "/" + std::to_string(o.tT_step) +
         " tS1<=" + std::to_string(o.tS1_max) + "/" +
         std::to_string(o.tS1_step) + " tS2<=" + std::to_string(o.tS2_max) +
         "/" + std::to_string(o.tS2_step) + " tS3<=" +
         std::to_string(o.tS3_max) + "/" + std::to_string(o.tS3_step);
}

void expect_parity(int dim, const device::Descriptor& dev,
                   const EnumOptions& opt, std::int64_t radius) {
  const model::HardwareParams hw = dev.to_model_hardware();
  const std::vector<hhc::TileSizes> got =
      enumerate_feasible(dim, hw, opt, radius);
  const std::vector<hhc::TileSizes> want =
      test::reference_enumerate_feasible(dim, hw, opt, radius);
  const std::string where = dev.name() + " dim=" + std::to_string(dim) +
                            " r=" + std::to_string(radius) + " " +
                            describe(opt);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << where << " index " << i;
  }
}

TEST(SpaceParity, DefaultLatticeMatchesTheFullWalk) {
  for (const device::Descriptor& dev : device::registry().devices()) {
    for (int dim = 1; dim <= 3; ++dim) {
      for (std::int64_t radius = 0; radius <= 4; ++radius) {
        expect_parity(dim, dev, EnumOptions{}, radius);
      }
    }
  }
}

TEST(SpaceParity, SeededLatticesMatchTheFullWalk) {
  Rng rng(4881);
  for (int draw = 0; draw < 12; ++draw) {
    for (const device::Descriptor& dev : device::registry().devices()) {
      for (int dim = 1; dim <= 3; ++dim) {
        for (std::int64_t radius = 0; radius <= 4; ++radius) {
          expect_parity(dim, dev, random_options(rng, dim, radius), radius);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(SpaceParity, RadiusZeroKeepsWalkingPastTheSlopeFailure) {
  // tS1 = 0 fails on slope, not capacity: the points after it must
  // still be reached.
  const model::HardwareParams hw =
      device::registry().devices().front().to_model_hardware();
  const EnumOptions opt = EnumOptions{}.with_tT_max(4).with_tS1_max(3);
  const std::vector<hhc::TileSizes> pts = enumerate_feasible(1, hw, opt, 0);
  ASSERT_FALSE(pts.empty());
  EXPECT_EQ(pts.front(), (hhc::TileSizes{.tT = 2, .tS1 = 1, .tS2 = 1, .tS3 = 1}));
  EXPECT_EQ(pts.size(), 6u);
}

// The baseline set sorts each bucket by a footprint computed once per
// tile; the oracle recomputes it in every comparison. Ties (equal
// footprints) must land where they did, on every device, dim, radius
// and cap, over the default lattice and seeded ones.
TEST(SpaceParity, BaselineSetMatchesThePerComparisonFootprintForm) {
  Rng rng(8521);
  for (const device::Descriptor& dev : device::registry().devices()) {
    const model::HardwareParams hw = dev.to_model_hardware();
    for (int dim = 1; dim <= 3; ++dim) {
      for (std::int64_t radius = 1; radius <= 3; ++radius) {
        for (const EnumOptions& opt :
             {EnumOptions{}, random_options(rng, dim, radius)}) {
          const std::vector<hhc::TileSizes> space =
              enumerate_feasible(dim, hw, opt, radius);
          for (const std::size_t cap :
               {std::size_t{1}, std::size_t{10}, std::size_t{85},
                std::size_t{400}}) {
            EXPECT_EQ(baseline_tile_set(dim, space, hw, cap, radius),
                      test::reference_baseline_tile_set(dim, space, hw, cap,
                                                        radius))
                << dev.name() << " dim=" << dim << " r=" << radius
                << " cap=" << cap << " " << describe(opt);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace repro::tuner
