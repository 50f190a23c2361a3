#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include "device/registry.hpp"

namespace repro::gpusim {
namespace {

TEST(Device, Table2ValuesGtx980) {
  const DeviceParams& d = gtx980();
  EXPECT_EQ(d.n_sm, 16);
  EXPECT_EQ(d.n_v, 128);
  EXPECT_EQ(d.shared_bytes_per_sm, 96 * 1024);
  EXPECT_EQ(d.regs_per_sm, 65536);
  EXPECT_EQ(d.shared_banks, 32);
  EXPECT_EQ(d.max_tb_per_sm, 32);
}

TEST(Device, Table2ValuesTitanX) {
  const DeviceParams& d = titan_x();
  EXPECT_EQ(d.n_sm, 24);
  EXPECT_EQ(d.n_v, 128);
  EXPECT_EQ(d.shared_bytes_per_sm, 96 * 1024);
  EXPECT_EQ(d.regs_per_sm, 65536);
}

TEST(Device, TitanXHasLowerClockAndMoreBandwidth) {
  // The clock difference is what makes Table 4's C_iter larger on
  // Titan X despite more SMs.
  EXPECT_LT(titan_x().clock_hz, gtx980().clock_hz);
  EXPECT_GT(titan_x().mem_bandwidth_bps, gtx980().mem_bandwidth_bps);
}

TEST(Device, ModelHardwareExportMatchesSpecSubset) {
  const model::HardwareParams hw = gtx980().to_model_hardware();
  EXPECT_EQ(hw.n_sm, 16);
  EXPECT_EQ(hw.n_v, 128);
  EXPECT_EQ(hw.shared_words_per_sm, 96 * 1024 / 4);
  EXPECT_EQ(hw.max_shared_words_per_block, 48 * 1024 / 4);
  EXPECT_EQ(hw.max_tb_per_sm, 32);
  EXPECT_EQ(hw.regs_per_sm, 65536);
}

TEST(Device, LookupByName) {
  // Name lookup moved into the process-wide DeviceRegistry; the GPU
  // entries must round-trip back to the exact Table 2 descriptors.
  const device::Descriptor* g = device::registry().find("GTX 980");
  ASSERT_NE(g, nullptr);
  ASSERT_TRUE(g->is_gpu());
  EXPECT_EQ(g->gpu().n_sm, gtx980().n_sm);
  EXPECT_EQ(g->gpu().clock_hz, gtx980().clock_hz);
  const device::Descriptor* t = device::registry().find("Titan X");
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->is_gpu());
  EXPECT_EQ(t->gpu().n_sm, titan_x().n_sm);
  EXPECT_EQ(device::registry().find("Volta"), nullptr);
}

TEST(ParametricVariant, ScalesInstructionCostsAndKillsSpills) {
  const DeviceParams base = gtx980();
  const DeviceParams par = parametric_codegen_variant(base, 0.15);
  EXPECT_NE(par.name, base.name);
  EXPECT_NEAR(par.cost.fma, base.cost.fma * 1.15, 1e-12);
  EXPECT_NEAR(par.cost.addr, base.cost.addr * 1.15 * 1.5, 1e-12);
  EXPECT_EQ(par.spill_cycles_per_reg, 0.0);
  // Hardware resources are unchanged — it is the same chip.
  EXPECT_EQ(par.n_sm, base.n_sm);
  EXPECT_EQ(par.mem_bandwidth_bps, base.mem_bandwidth_bps);
}

}  // namespace
}  // namespace repro::gpusim
