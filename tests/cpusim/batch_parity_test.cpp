// Batch parity for the two-stage CPU pricing path: measure_best_of_batch
// (one tile analysis, one jitter-key prefix, a per-strand step per
// config) must reproduce measure_best_of bit for bit, element by
// element, over both CPU descriptors, every catalogue stencil, every
// strand count the tuner sweeps, out-of-range strand counts and
// infeasible tiles. The closed-form strand sum is pinned to the row
// walk it replaced (tests/support/strand_oracle.hpp), the point bound
// to the jitter-free simulation and the tile floor to the minimum of
// the point bounds, both checked to stay floors of the measured time.
// A few prices are pinned to their values before the split.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "cpusim/device.hpp"
#include "cpusim/lower_bound.hpp"
#include "cpusim/timing.hpp"
#include "device/descriptor.hpp"
#include "device/registry.hpp"
#include "stencil/stencil.hpp"
#include "support/strand_oracle.hpp"
#include "tuner/space.hpp"

namespace repro::cpusim {
namespace {

using stencil::ProblemSize;
using stencil::StencilDef;

std::vector<const CpuParams*> cpu_devices() {
  return {&xeon_e5_2690v4(), &ryzen_3700x()};
}

ProblemSize problem_for(int dim) {
  if (dim == 1) return {.dim = 1, .S = {65536, 0, 0}, .T = 256};
  if (dim == 2) return {.dim = 2, .S = {1000, 1000, 0}, .T = 100};
  return {.dim = 3, .S = {100, 100, 100}, .T = 30};
}

// Feasible tiles of each dimension (interior, clipped, a cache spill)
// plus two infeasible ones: an odd tT and tS1 below the dependence
// slope.
std::vector<hhc::TileSizes> tiles_for(int dim) {
  std::vector<hhc::TileSizes> out;
  if (dim == 1) {
    out = {{.tT = 8, .tS1 = 512, .tS2 = 1, .tS3 = 1},
           {.tT = 4, .tS1 = 37, .tS2 = 1, .tS3 = 1},
           {.tT = 16, .tS1 = 4096, .tS2 = 1, .tS3 = 1}};
  } else if (dim == 2) {
    out = {{.tT = 8, .tS1 = 16, .tS2 = 128, .tS3 = 1},
           {.tT = 12, .tS1 = 24, .tS2 = 56, .tS3 = 1},
           {.tT = 16, .tS1 = 64, .tS2 = 4096, .tS3 = 1}};
  } else {
    out = {{.tT = 4, .tS1 = 8, .tS2 = 32, .tS3 = 32},
           {.tT = 4, .tS1 = 12, .tS2 = 24, .tS3 = 24},
           {.tT = 2, .tS1 = 5, .tS2 = 100, .tS3 = 100}};
  }
  hhc::TileSizes odd = out.front();
  odd.tT = 7;
  hhc::TileSizes flat = out.front();
  flat.tS1 = 0;  // below every stencil's slope (radius >= 1)
  out.push_back(odd);
  out.push_back(flat);
  return out;
}

// Every strand count Session sweeps on a CPU, plus both sides of the
// simulator's [1, 1024] range.
std::vector<hhc::ThreadConfig> strand_configs(const CpuParams& dev, int dim) {
  std::vector<hhc::ThreadConfig> out =
      tuner::device_thread_configs(device::Descriptor(dev), dim);
  out.push_back({.n1 = 0, .n2 = 1, .n3 = 1});
  out.push_back({.n1 = 1025, .n2 = 1, .n3 = 1});
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise_equal(const SimResult& a, const SimResult& b,
                          const std::string& tag) {
  EXPECT_EQ(a.feasible, b.feasible) << tag;
  EXPECT_EQ(a.infeasible_reason, b.infeasible_reason) << tag;
  EXPECT_EQ(bits(a.seconds), bits(b.seconds)) << tag;
  EXPECT_EQ(bits(a.gflops), bits(b.gflops)) << tag;
  EXPECT_EQ(a.fit_level, b.fit_level) << tag;
  EXPECT_EQ(bits(a.fill_seconds), bits(b.fill_seconds)) << tag;
  EXPECT_EQ(bits(a.service_seconds), bits(b.service_seconds)) << tag;
  EXPECT_EQ(bits(a.compute_seconds), bits(b.compute_seconds)) << tag;
  EXPECT_EQ(bits(a.fence_seconds), bits(b.fence_seconds)) << tag;
  EXPECT_EQ(bits(a.launch_seconds), bits(b.launch_seconds)) << tag;
  EXPECT_EQ(a.wavefronts, b.wavefronts) << tag;
  EXPECT_EQ(a.tiles_per_row, b.tiles_per_row) << tag;
}

// The descriptor without run-to-run jitter: every draw is exactly 1.
CpuParams jitter_free(const CpuParams& dev) {
  CpuParams flat = dev;
  flat.jitter_amplitude = 0.0;
  return flat;
}

TEST(CpuBatchParity, BatchEqualsPerPointMeasureBitwise) {
  int feasible = 0;
  int infeasible = 0;
  for (const CpuParams* dev : cpu_devices()) {
    for (const StencilDef& def : stencil::all_stencils()) {
      const ProblemSize p = problem_for(def.dim);
      const std::vector<hhc::ThreadConfig> thrs =
          strand_configs(*dev, def.dim);
      for (const hhc::TileSizes& ts : tiles_for(def.dim)) {
        std::vector<SimResult> batch(thrs.size());
        measure_best_of_batch(*dev, def, p, ts, thrs, batch);
        for (std::size_t j = 0; j < thrs.size(); ++j) {
          const std::string tag = dev->name + " " + def.name + " tile " +
                                  std::to_string(ts.tT) + "x" +
                                  std::to_string(ts.tS1) + " strands " +
                                  std::to_string(thrs[j].total());
          const SimResult one = measure_best_of(*dev, def, p, ts, thrs[j]);
          expect_bitwise_equal(batch[j], one, tag);
          (one.feasible ? feasible : infeasible) += 1;
        }
      }
    }
  }
  // The grid must exercise both outcomes on every descriptor.
  EXPECT_GT(feasible, 100);
  EXPECT_GT(infeasible, 100);
}

TEST(CpuBatchParity, SingleDrawBatchEqualsSimulateTime) {
  // simulate_time is the same pricing body with one jitter draw, so a
  // one-run batch reproduces run 0 exactly.
  for (const CpuParams* dev : cpu_devices()) {
    for (const StencilDef& def : stencil::all_stencils()) {
      const ProblemSize p = problem_for(def.dim);
      const std::vector<hhc::ThreadConfig> thrs =
          strand_configs(*dev, def.dim);
      const hhc::TileSizes ts = tiles_for(def.dim).front();
      std::vector<SimResult> batch(thrs.size());
      measure_best_of_batch(*dev, def, p, ts, thrs, batch, /*runs=*/1);
      for (std::size_t j = 0; j < thrs.size(); ++j) {
        expect_bitwise_equal(batch[j],
                             simulate_time(*dev, def, p, ts, thrs[j], 0),
                             dev->name + " " + def.name + " strands " +
                                 std::to_string(thrs[j].total()));
      }
    }
  }
}

TEST(CpuBatchParity, TileBoundMatchesPerStrandReferenceAndStaysAFloor) {
  for (const CpuParams* dev : cpu_devices()) {
    const CpuParams flat = jitter_free(*dev);
    for (const StencilDef& def : stencil::all_stencils()) {
      const ProblemSize p = problem_for(def.dim);
      const std::vector<hhc::ThreadConfig> thrs =
          strand_configs(*dev, def.dim);
      for (const hhc::TileSizes& ts : tiles_for(def.dim)) {
        const std::string tile_tag = dev->name + " " + def.name + " tile " +
                                     std::to_string(ts.tT) + "x" +
                                     std::to_string(ts.tS1);
        double min_point = std::numeric_limits<double>::infinity();
        for (const hhc::ThreadConfig& thr : thrs) {
          const std::string tag =
              tile_tag + " strands " + std::to_string(thr.total());
          const LowerBound point = lower_bound(*dev, def, p, ts, thr);
          const SimResult ref = simulate_time(flat, def, p, ts, thr, 0);
          const SimResult sim = measure_best_of(*dev, def, p, ts, thr);
          EXPECT_EQ(point.feasible, ref.feasible) << tag;
          EXPECT_EQ(point.feasible, sim.feasible) << tag;
          if (!point.feasible) {
            EXPECT_TRUE(std::isinf(point.seconds)) << tag;
            continue;
          }
          EXPECT_EQ(bits(point.seconds), bits(ref.seconds)) << tag;
          EXPECT_LE(point.seconds, sim.seconds) << tag;
          min_point = std::min(min_point, point.seconds);
        }
        // The tile floor is the minimum of the point bounds, over the
        // whole axis and over each strand count alone.
        const TileFloors floors(*dev, def, p, ts);
        const LowerBound tile = floors.over(thrs);
        EXPECT_EQ(tile.feasible, std::isfinite(min_point)) << tile_tag;
        EXPECT_EQ(bits(tile.seconds), bits(min_point)) << tile_tag;
        for (const hhc::ThreadConfig& thr : thrs) {
          EXPECT_EQ(bits(floors.over({&thr, 1}).seconds),
                    bits(floors.point(thr).seconds))
              << tile_tag << " strands " << thr.total();
        }
      }
    }
  }
}

// Copies of `dev` loaded through a device registry: smt 1, 4 and 8,
// and one with stall_factor = oversub_penalty = 0, where every strand
// count's one-strand floor is the same and several floors tie.
std::vector<CpuParams> registry_copies(const CpuParams& dev) {
  const json::Value base = *json::parse(device::Descriptor(dev).to_json());
  json::Value list = json::Value::array();
  for (const int smt : {1, 4, 8}) {
    json::Value v = base;
    v.set("name", dev.name + " smt " + std::to_string(smt));
    v.set("smt", smt);
    list.push_back(std::move(v));
  }
  json::Value flat = base;
  flat.set("name", dev.name + " without penalties");
  flat.set("stall_factor", 0.0);
  flat.set("oversub_penalty", 0.0);
  list.push_back(std::move(flat));
  json::Value doc = json::Value::object();
  doc.set("devices", std::move(list));
  device::DeviceRegistry reg;
  EXPECT_TRUE(reg.load_json(doc)) << dev.name;
  std::vector<CpuParams> out;
  for (const device::Descriptor& d : reg.devices()) out.push_back(d.cpu());
  return out;
}

// Strand axes the tuner never generates: empty, single, duplicated,
// unsorted, with the out-of-range strand counts 0 and 1025, and longer
// than 64 entries.
std::vector<std::vector<hhc::ThreadConfig>> strand_axes(Rng& rng) {
  const auto strands = [](int n) { return hhc::ThreadConfig{n, 1, 1}; };
  std::vector<std::vector<hhc::ThreadConfig>> out = {
      {},
      {strands(1)},
      {strands(8)},
      {strands(0)},
      {strands(1025)},
      {strands(0), strands(1025)},
      {strands(4), strands(4), strands(4)},
      {strands(16), strands(2), strands(16), strands(1), strands(2)},
      {strands(1025), strands(64), strands(0), strands(3), strands(1024)},
      {{.n1 = 4, .n2 = 2, .n3 = 1}, {.n1 = 2, .n2 = 2, .n3 = 2}, strands(8)},
  };
  for (int axis = 0; axis < 4; ++axis) {
    std::vector<hhc::ThreadConfig> longer;
    const int n = static_cast<int>(rng.uniform_int(65, 140));
    for (int j = 0; j < n; ++j) {
      longer.push_back(strands(static_cast<int>(
          rng.next_below(8) == 0 ? rng.uniform_int(0, 1100)
                                 : rng.uniform_int(1, 24))));
    }
    out.push_back(std::move(longer));
  }
  return out;
}

// TileFloors::over evaluates few strand steps exactly. It rests on a
// floor of each strand count's compute term taken at the one-strand
// group count: family_groups(s) >= family_groups(1) row by row (a
// short row costs 2 * points >= 2 * ceil(points / n_v), a saturated
// one 2s * ceil(x / (s * n_v)) >= 2 * ceil(x / n_v)), and the compute
// term is non-decreasing in the group count because its other factors
// (cycles per group, the stall and oversubscription factors) are
// >= 0. A strand count whose floor is not below the running minimum
// cannot lower it and is skipped. Whatever the axis and the device,
// the result must be the minimum of the point bounds, bit for bit.
TEST(CpuBatchParity, TileFloorIsTheMinimumOverGeneratedStrandAxes) {
  Rng rng(0xF100D5ULL);
  int axes = 0;
  for (const CpuParams* base : cpu_devices()) {
    std::vector<CpuParams> devs = registry_copies(*base);
    devs.insert(devs.begin(), *base);
    ASSERT_EQ(devs.size(), 5u) << base->name;
    for (const CpuParams& dev : devs) {
      for (const StencilDef& def : stencil::all_stencils()) {
        const ProblemSize p = problem_for(def.dim);
        for (const hhc::TileSizes& ts : tiles_for(def.dim)) {
          const TileFloors floors(dev, def, p, ts);
          for (const std::vector<hhc::ThreadConfig>& axis : strand_axes(rng)) {
            double min_point = std::numeric_limits<double>::infinity();
            for (const hhc::ThreadConfig& thr : axis) {
              min_point = std::min(min_point, floors.point(thr).seconds);
            }
            const LowerBound tile = floors.over(axis);
            const std::string tag = dev.name + " " + def.name + " tile " +
                                    std::to_string(ts.tT) + "x" +
                                    std::to_string(ts.tS1) + " axis of " +
                                    std::to_string(axis.size());
            ASSERT_EQ(bits(tile.seconds), bits(min_point)) << tag;
            ASSERT_EQ(tile.feasible, std::isfinite(min_point)) << tag;
            ++axes;
          }
        }
      }
    }
  }
  EXPECT_GT(axes, 5000);
}

TEST(CpuStrandSum, ClosedFormMatchesTheRowWalk) {
  // Hand-picked corners: strands above, at and below the widest row's
  // point count, and a single row.
  const struct {
    std::int64_t base, tT, inner, radius;
    int strands, n_v;
  } corners[] = {
      {1, 2, 1, 1, 1, 1},      {1, 2, 1, 1, 1024, 16},
      {4, 64, 1, 4, 1024, 8},  {2, 8, 1, 1, 9, 1},
      {2, 8, 1, 1, 8, 8},      {3, 16, 7, 2, 22, 16},
      {96, 64, 9216, 4, 1024, 16},
  };
  for (const auto& c : corners) {
    EXPECT_EQ(family_groups(c.base, c.tT, c.inner, c.radius, c.strands, c.n_v),
              test::family_groups_rows(c.base, c.tT, c.inner, c.radius,
                                       c.strands, c.n_v))
        << c.base << " " << c.tT << " " << c.inner << " " << c.radius << " "
        << c.strands << " " << c.n_v;
  }
  // A seeded grid over what analyze_strands can pass: tT 2..64 even,
  // radius 1..4, base from the radius up, inner 1 (1D), a tS2 (2D) or
  // tS2 * tS3 (3D), strands 1..1024 (often above a row's points), and
  // n_v of 1, 8 and 16.
  Rng rng(2121);
  const int vector_words[] = {1, 8, 16};
  for (int draw = 0; draw < 6000; ++draw) {
    const std::int64_t radius = rng.uniform_int(1, 4);
    const std::int64_t tT = 2 * rng.uniform_int(1, 32);
    const std::int64_t base = radius + rng.uniform_int(0, 96);
    std::int64_t inner = 1;
    const std::int64_t shape = rng.uniform_int(1, 3);
    if (shape >= 2) inner *= rng.uniform_int(1, 512);
    if (shape == 3) inner *= rng.uniform_int(1, 96);
    const int strands = static_cast<int>(
        rng.uniform_int(0, 1) == 0 ? rng.uniform_int(1, 1024)
                                   : rng.uniform_int(1, 48));
    const int n_v = vector_words[rng.uniform_int(0, 2)];
    ASSERT_EQ(family_groups(base, tT, inner, radius, strands, n_v),
              test::family_groups_rows(base, tT, inner, radius, strands, n_v))
        << "draw " << draw << ": base " << base << " tT " << tT << " inner "
        << inner << " radius " << radius << " strands " << strands
        << " n_v " << n_v;
  }
}

TEST(CpuBatchParity, PricesPinnedToTheUnsplitSimulator) {
  // Bit patterns the simulator produced before pricing was split into
  // tile and strand stages: best-of-5 seconds and simulate_time at
  // run 3, and the lower bound (the jitter-free simulation). Any
  // drift in the geometry, the jitter-key chain or the pricing body
  // shows up here.
  struct Pin {
    const CpuParams* dev;
    stencil::StencilKind kind;
    hhc::TileSizes ts;
    int strands;
    std::uint64_t best, run3, bound;
  };
  using stencil::StencilKind;
  const Pin pins[] = {
      {&xeon_e5_2690v4(), StencilKind::kJacobi1D,
       {.tT = 8, .tS1 = 512, .tS2 = 1, .tS3 = 1}, 2,
       0x3f4e96093bfc337bull, 0x3f4ea033e117b42bull, 0x3f4e88f81f7e9672ull},
      {&ryzen_3700x(), StencilKind::kGauss1D,
       {.tT = 4, .tS1 = 37, .tS2 = 1, .tS3 = 1}, 1,
       0x3f7a001dc9fc0e92ull, 0x3f7a001dc9fc0e92ull, 0x3f79f8405fb33593ull},
      {&xeon_e5_2690v4(), StencilKind::kHeat2D,
       {.tT = 12, .tS1 = 24, .tS2 = 56, .tS3 = 1}, 6,
       0x3f7cbf5b6af8c7ebull, 0x3f7cbf5b6af8c7ebull, 0x3f7cb1feecdcd0beull},
      {&ryzen_3700x(), StencilKind::kWideStar2D,
       {.tT = 16, .tS1 = 64, .tS2 = 4096, .tS3 = 1}, 48,
       0x3fc20e15f38cf439ull, 0x3fc20e15f38cf439ull, 0x3fc20c921386ded2ull},
      {&xeon_e5_2690v4(), StencilKind::kHeat3D,
       {.tT = 4, .tS1 = 8, .tS2 = 32, .tS3 = 32}, 16,
       0x3f87375b3fb15f46ull, 0x3f87474bde213c27ull, 0x3f8732b46b862b7bull},
      {&ryzen_3700x(), StencilKind::kJacobi3D,
       {.tT = 4, .tS1 = 12, .tS2 = 24, .tS3 = 24}, 24,
       0x3f877b9185329165ull, 0x3f87932875ff921aull, 0x3f87755d4805897cull},
  };
  for (const Pin& pin : pins) {
    const StencilDef& def = stencil::get_stencil(pin.kind);
    const ProblemSize p = problem_for(def.dim);
    const hhc::ThreadConfig thr{.n1 = pin.strands, .n2 = 1, .n3 = 1};
    const std::string tag = pin.dev->name + " " + def.name;
    EXPECT_EQ(bits(measure_best_of(*pin.dev, def, p, pin.ts, thr).seconds),
              pin.best)
        << tag;
    EXPECT_EQ(bits(simulate_time(*pin.dev, def, p, pin.ts, thr, 3).seconds),
              pin.run3)
        << tag;
    EXPECT_EQ(bits(lower_bound(*pin.dev, def, p, pin.ts, thr).seconds),
              pin.bound)
        << tag;
  }
}

}  // namespace
}  // namespace repro::cpusim
