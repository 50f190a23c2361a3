// tuner::CalibrationCache: one calibration per (device descriptor,
// stencil identity), served bit-identical to a fresh one, with its own
// entry for a DSL stencil and for a descriptor that reuses a registry
// name with other parameters, and bounded by its capacity.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "device/registry.hpp"
#include "stencil/parser.hpp"
#include "tuner/calibration_cache.hpp"
#include "tuner/session.hpp"

namespace repro::tuner {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const model::ModelInputs& a, const model::ModelInputs& b) {
  EXPECT_EQ(bits(a.c_iter), bits(b.c_iter));
  EXPECT_EQ(bits(a.mb.L_s_per_word), bits(b.mb.L_s_per_word));
  EXPECT_EQ(bits(a.mb.tau_sync), bits(b.mb.tau_sync));
  EXPECT_EQ(bits(a.mb.T_sync), bits(b.mb.T_sync));
  EXPECT_EQ(a.hw.name, b.hw.name);
  EXPECT_EQ(a.hw.n_sm, b.hw.n_sm);
  EXPECT_EQ(a.hw.n_v, b.hw.n_v);
  EXPECT_EQ(a.hw.shared_words_per_sm, b.hw.shared_words_per_sm);
  EXPECT_EQ(a.hw.max_shared_words_per_block, b.hw.max_shared_words_per_block);
  EXPECT_EQ(a.hw.max_tb_per_sm, b.hw.max_tb_per_sm);
  EXPECT_EQ(a.radius, b.radius);
}

const stencil::StencilDef& heat2d() {
  return stencil::get_stencil(stencil::StencilKind::kHeat2D);
}

TEST(CalibrationCache, CalibratesEachPairOnceAndServesItBitIdentical) {
  const stencil::ProblemSize p{.dim = 2, .S = {256, 256, 0}, .T = 8};
  for (const device::Descriptor& dev : device::registry().devices()) {
    CalibrationCache cache;
    const std::string id = stencil_identity(heat2d().name, "");
    const model::ModelInputs fresh =
        TuningContext::calibrate(dev, heat2d(), p).inputs;
    expect_same(cache.inputs(device_key(dev), dev, heat2d(), id), fresh);
    expect_same(cache.inputs(device_key(dev), dev, heat2d(), id), fresh);
    expect_same(cache.inputs(device_key(dev), dev, heat2d(), id), fresh);
    const CalibrationCache::Counters c = cache.counters();
    EXPECT_EQ(c.entries, 1u) << dev.name();
    EXPECT_EQ(c.misses, 1u) << dev.name();
    EXPECT_EQ(c.hits, 2u) << dev.name();
    EXPECT_EQ(c.evictions, 0u) << dev.name();
  }
}

TEST(CalibrationCache, DslTextAndReusedDeviceNamesGetTheirOwnEntries) {
  CalibrationCache cache;
  const device::Descriptor& gtx = *device::registry().find("GTX 980");
  const model::ModelInputs by_name =
      cache.inputs(device_key(gtx), gtx, heat2d(),
                   stencil_identity(heat2d().name, ""));

  // A DSL program spelled with the catalogue stencil's name is keyed by
  // its text, not by the name.
  const std::string text =
      "stencil Heat2D {\n dim 2\n tap (0,0) 0.5\n tap (1,0) 0.125\n"
      " tap (-1,0) 0.125\n tap (0,1) 0.125\n tap (0,-1) 0.125\n}\n";
  const stencil::StencilDef dsl = stencil::parse_stencil(text);
  ASSERT_EQ(dsl.name, heat2d().name);
  expect_same(cache.inputs(device_key(gtx), gtx, dsl,
                           stencil_identity(dsl.name, text)),
              calibrate_model(gtx, dsl));
  EXPECT_EQ(cache.counters().entries, 2u);

  // An imported descriptor that reuses the registry name with other
  // parameters does not hit the registry device's entry.
  gpusim::DeviceParams other = gtx.gpu();
  other.n_sm += 4;
  const device::Descriptor renamed(other);
  ASSERT_EQ(renamed.name(), gtx.name());
  const model::ModelInputs imported =
      cache.inputs(device_key(renamed), renamed, heat2d(),
                   stencil_identity(heat2d().name, ""));
  EXPECT_EQ(imported.hw.n_sm, by_name.hw.n_sm + 4);
  expect_same(imported, calibrate_model(renamed, heat2d()));

  const CalibrationCache::Counters c = cache.counters();
  EXPECT_EQ(c.entries, 3u);
  EXPECT_EQ(c.misses, 3u);
  EXPECT_EQ(c.hits, 0u);
}

TEST(CalibrationCache, TheCapEvictsTheLeastRecentlyUsedEntry) {
  CalibrationCache cache(2);
  const device::Descriptor& gtx = *device::registry().find("GTX 980");
  const auto lookup = [&](stencil::StencilKind kind) {
    const stencil::StencilDef& def = stencil::get_stencil(kind);
    return cache.inputs(device_key(gtx), gtx, def,
                        stencil_identity(def.name, ""));
  };
  lookup(stencil::StencilKind::kHeat2D);
  lookup(stencil::StencilKind::kJacobi2D);
  lookup(stencil::StencilKind::kHeat2D);  // hit: Jacobi2D is now oldest
  lookup(stencil::StencilKind::kJacobi1D);  // evicts Jacobi2D
  CalibrationCache::Counters c = cache.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 3u);

  lookup(stencil::StencilKind::kHeat2D);  // still held
  EXPECT_EQ(cache.counters().hits, 2u);
  // The evicted entry is recomputed, bit-identical.
  expect_same(lookup(stencil::StencilKind::kJacobi2D),
              calibrate_model(gtx, stencil::get_stencil(
                                       stencil::StencilKind::kJacobi2D)));
  c = cache.counters();
  EXPECT_EQ(c.misses, 4u);
  EXPECT_EQ(c.evictions, 2u);
  EXPECT_EQ(c.entries, 2u);
}

}  // namespace
}  // namespace repro::tuner
