// The event-level simulator validates the aggregate timing engine:
// the two price the same machine from different first principles, so
// they must agree within the aggregation approximations' tolerance.
#include "support/event_sim.hpp"

#include <gtest/gtest.h>

#include "gpusim/timing.hpp"
#include "stencil/stencil.hpp"

namespace repro::gpusim {
namespace {

using stencil::get_stencil;
using stencil::ProblemSize;
using stencil::StencilKind;

struct AgreeCase {
  StencilKind kind;
  ProblemSize p;
  hhc::TileSizes ts;
  hhc::ThreadConfig thr;
};

class EventVsAggregate : public ::testing::TestWithParam<AgreeCase> {};

TEST_P(EventVsAggregate, WithinTolerance) {
  const auto& [kind, p, ts, thr] = GetParam();
  const auto& def = get_stencil(kind);
  const SimResult agg = simulate_time(gtx980(), def, p, ts, thr);
  const EventSimResult ev = simulate_time_event(gtx980(), def, p, ts, thr);
  ASSERT_TRUE(agg.feasible) << agg.infeasible_reason;
  ASSERT_TRUE(ev.feasible) << ev.infeasible_reason;
  // Strip the aggregate engine's jitter before comparing.
  const double agg_base = agg.seconds;
  EXPECT_NEAR(ev.seconds / agg_base, 1.0, 0.35)
      << "event " << ev.seconds << " vs aggregate " << agg_base;
  EXPECT_EQ(ev.kernel_calls, agg.kernel_calls);
}

// Constant-initialised, so the padding bytes gtest prints into each
// test name are zero rather than whatever the stack last held.
constexpr AgreeCase kAgreeCases[] = {
    AgreeCase{StencilKind::kHeat2D, {2, {512, 512, 0}, 64},
              {.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1},
              {.n1 = 32, .n2 = 8, .n3 = 1}},
    AgreeCase{StencilKind::kJacobi2D, {2, {1024, 1024, 0}, 64},
              {.tT = 4, .tS1 = 8, .tS2 = 32, .tS3 = 1},
              {.n1 = 64, .n2 = 4, .n3 = 1}},
    AgreeCase{StencilKind::kGradient2D, {2, {512, 512, 0}, 32},
              {.tT = 2, .tS1 = 4, .tS2 = 128, .tS3 = 1},
              {.n1 = 32, .n2 = 4, .n3 = 1}},
    AgreeCase{StencilKind::kJacobi1D, {1, {1 << 15, 0, 0}, 128},
              {.tT = 16, .tS1 = 128, .tS2 = 1, .tS3 = 1},
              {.n1 = 256, .n2 = 1, .n3 = 1}},
    AgreeCase{StencilKind::kHeat3D, {3, {64, 64, 64}, 16},
              {.tT = 2, .tS1 = 4, .tS2 = 8, .tS3 = 32},
              {.n1 = 32, .n2 = 4, .n3 = 2}}};

INSTANTIATE_TEST_SUITE_P(
    Configs, EventVsAggregate, ::testing::ValuesIn(kAgreeCases),
    [](const ::testing::TestParamInfo<AgreeCase>& info) {
      return std::string(stencil::to_string(info.param.kind)) + "_" +
             std::to_string(info.index);
    });

TEST(EventSim, DeterministicAcrossCalls) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {256, 256, 0}, .T = 32};
  const hhc::TileSizes ts{.tT = 4, .tS1 = 8, .tS2 = 32, .tS3 = 1};
  const hhc::ThreadConfig thr{.n1 = 32, .n2 = 4, .n3 = 1};
  const auto a = simulate_time_event(gtx980(), def, p, ts, thr);
  const auto b = simulate_time_event(gtx980(), def, p, ts, thr);
  EXPECT_EQ(a.seconds, b.seconds);
}

TEST(EventSim, UtilizationFractionsAreSane) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {512, 512, 0}, .T = 64};
  const hhc::TileSizes ts{.tT = 8, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const auto r = simulate_time_event(gtx980(), def, p, ts,
                                     {.n1 = 32, .n2 = 8, .n3 = 1});
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.mem_channel_busy, 0.0);
  EXPECT_LE(r.mem_channel_busy, 1.0);
  EXPECT_GT(r.sm_compute_busy, 0.0);
  EXPECT_LE(r.sm_compute_busy, 1.0);
}

TEST(EventSim, ComputeBoundConfigKeepsSMsBusy) {
  // A deep, wide tile on a compute-heavy stencil should have high SM
  // utilization and a mostly idle memory channel.
  const auto& def = get_stencil(StencilKind::kGradient2D);
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 128};
  const auto r = simulate_time_event(
      gtx980(), def, p, {.tT = 16, .tS1 = 16, .tS2 = 128, .tS3 = 1},
      {.n1 = 32, .n2 = 8, .n3 = 1});
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.sm_compute_busy, 0.5);
  EXPECT_LT(r.mem_channel_busy, r.sm_compute_busy);
}

TEST(EventSim, ShallowTilesAreMemoryBound) {
  const auto& def = get_stencil(StencilKind::kJacobi2D);
  const ProblemSize p{.dim = 2, .S = {1024, 1024, 0}, .T = 32};
  const auto r = simulate_time_event(
      gtx980(), def, p, {.tT = 2, .tS1 = 4, .tS2 = 32, .tS3 = 1},
      {.n1 = 32, .n2 = 8, .n3 = 1});
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.mem_channel_busy, r.sm_compute_busy);
}

TEST(EventSim, InfeasibleCasesPropagate) {
  const auto& def = get_stencil(StencilKind::kHeat2D);
  const ProblemSize p{.dim = 2, .S = {256, 256, 0}, .T = 32};
  // Shared memory overflow.
  const auto a = simulate_time_event(
      gtx980(), def, p, {.tT = 16, .tS1 = 64, .tS2 = 512, .tS3 = 1},
      {.n1 = 32, .n2 = 8, .n3 = 1});
  EXPECT_FALSE(a.feasible);
  // Thread overflow.
  const auto b = simulate_time_event(gtx980(), def, p,
                                     {.tT = 4, .tS1 = 8, .tS2 = 32, .tS3 = 1},
                                     {.n1 = 1024, .n2 = 4, .n3 = 1});
  EXPECT_FALSE(b.feasible);
}

TEST(EventSim, RefusesPaperScaleProblems) {
  const auto& def = get_stencil(StencilKind::kJacobi2D);
  const ProblemSize p{.dim = 2, .S = {8192, 8192, 0}, .T = 16384};
  const auto r = simulate_time_event(gtx980(), def, p,
                                     {.tT = 2, .tS1 = 1, .tS2 = 32, .tS3 = 1},
                                     {.n1 = 32, .n2 = 8, .n3 = 1});
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.infeasible_reason.find("too large"), std::string::npos);
}

}  // namespace
}  // namespace repro::gpusim
