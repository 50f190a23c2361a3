// Session::sweep_model prices Talg only where the Talg floor
// (model::TalgFloor) cannot rule a tile out. These tests pin its
// talg_min, argmin, candidates, candidate_talg and space_size to the
// plain full-space loop (tests/support/sweep_oracle.hpp), bit for
// bit, at one and four jobs, for delta in {0, 0.05, 0.1, 0.5}: on the
// default spaces of every registered device, on a seeded grid of
// V-cycle level problems, on spans shuffled within runs and on columns
// with holes, on empty spans, on spans with Eqn-31-infeasible tiles
// and +inf segment heads, on all-infeasible spans and under inputs the
// floor does not model. A span out of (tT, tS1) order is refused.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "device/registry.hpp"
#include "support/sweep_oracle.hpp"
#include "tuner/session.hpp"
#include "tuner/space.hpp"

namespace repro::tuner {
namespace {

constexpr double kDeltas[] = {0.0, 0.05, 0.10, 0.50};
constexpr int kJobs[] = {1, 4};
// Exact Talg evaluations of VcycleLevelProblemsMatchTheFullLoop.
constexpr std::size_t kVcycleLevelPriced = 2515;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const ModelSweep& got, const ModelSweep& want,
                 const std::string& where) {
  EXPECT_EQ(bits(got.talg_min), bits(want.talg_min)) << where;
  EXPECT_EQ(got.argmin, want.argmin) << where;
  EXPECT_EQ(got.candidates, want.candidates) << where;
  ASSERT_EQ(got.candidate_talg.size(), want.candidate_talg.size()) << where;
  for (std::size_t i = 0; i < got.candidate_talg.size(); ++i) {
    EXPECT_EQ(bits(got.candidate_talg[i]), bits(want.candidate_talg[i]))
        << where << " candidate " << i;
  }
  EXPECT_EQ(got.space_size, want.space_size) << where;
}

// Every delta at every job count against the oracle; returns the
// Talg evaluations the sweeps booked, which must not depend on jobs.
std::size_t check_span(const TuningContext& ctx,
                       std::span<const hhc::TileSizes> span,
                       const std::string& where,
                       std::span<const double> deltas = kDeltas) {
  std::size_t priced = 0;
  for (const double delta : deltas) {
    const ModelSweep want =
        test::reference_sweep(ctx.inputs, ctx.problem, span, delta);
    std::size_t priced_at_one_job = 0;
    for (const int jobs : kJobs) {
      Session s(ctx, SessionOptions{}.with_jobs(jobs));
      expect_same(s.sweep_model(span, delta), want,
                  where + " delta=" + std::to_string(delta) +
                      " jobs=" + std::to_string(jobs));
      const std::size_t n = s.stats().model_points;
      EXPECT_LE(n, span.size()) << where;
      if (jobs == 1) priced_at_one_job = n;
      EXPECT_EQ(n, priced_at_one_job) << where << " jobs=" << jobs;
    }
    priced += priced_at_one_job;
  }
  return priced;
}

// A seeded shuffle of `tiles` (Fisher-Yates).
std::vector<hhc::TileSizes> shuffled(std::vector<hhc::TileSizes> tiles,
                                     Rng& rng) {
  for (std::size_t i = tiles.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(tiles[i - 1], tiles[j]);
  }
  return tiles;
}

// The order sweep_model requires of a span: ascending (tT, tS1).
bool by_run(const hhc::TileSizes& a, const hhc::TileSizes& b) {
  return std::tie(a.tT, a.tS1) < std::tie(b.tT, b.tS1);
}

// `tiles` (in run order) with each (tT, tS1) run shuffled in place,
// the runs left in order.
std::vector<hhc::TileSizes> shuffled_within_runs(
    std::vector<hhc::TileSizes> tiles, Rng& rng) {
  for (auto lo = tiles.begin(); lo != tiles.end();) {
    const auto hi = std::upper_bound(lo, tiles.end(), *lo, by_run);
    const std::vector<hhc::TileSizes> run = shuffled({lo, hi}, rng);
    lo = std::copy(run.begin(), run.end(), lo);
  }
  return tiles;
}

// Infeasible tiles of every Eqn 31 kind: odd tT, a tS1 below the
// slope, and a footprint over the per-block limit.
std::vector<hhc::TileSizes> infeasible_tiles(int dim) {
  const std::int64_t s2 = dim >= 2 ? 64 : 1;
  const std::int64_t s3 = dim >= 3 ? 32 : 1;
  return {{.tT = 3, .tS1 = 8, .tS2 = s2, .tS3 = s3},
          {.tT = 4, .tS1 = 0, .tS2 = s2, .tS3 = s3},
          {.tT = 64, .tS1 = 4096, .tS2 = s2, .tS3 = s3}};
}

TEST(SweepParity, DefaultSpacesOfEveryDeviceMatchTheFullLoop) {
  Rng rng(24);
  const stencil::StencilKind kinds[] = {
      stencil::StencilKind::kJacobi1D, stencil::StencilKind::kJacobi2D,
      stencil::StencilKind::kWideStar2D, stencil::StencilKind::kHeat3D};
  for (const device::Descriptor& dev : device::registry().devices()) {
    for (const stencil::StencilKind kind : kinds) {
      const stencil::StencilDef& def = stencil::get_stencil(kind);
      const model::ModelInputs in = calibrate_model(dev, def);
      const std::vector<hhc::TileSizes> space =
          enumerate_feasible(def.dim, in.hw, EnumOptions{}, def.radius);
      stencil::ProblemSize p;
      p.dim = def.dim;
      p.T = rng.uniform_int(1, 16);
      for (int d = 0; d < def.dim; ++d) {
        p.S[static_cast<std::size_t>(d)] = rng.uniform_int(32, 1024);
      }
      check_span(TuningContext::with_inputs(dev, def, p, in), space,
                 dev.name() + " " + def.name + " " + p.to_string());
    }
  }
}

// The pipeline-sized case the floor was built for: it rules out
// almost the whole space, so a sweep prices a few per cent of it.
TEST(SweepParity, FloorsRuleOutMostOfAPipelineSizedSpace) {
  const auto& def = stencil::get_stencil(stencil::StencilKind::kJacobi2D);
  const model::ModelInputs in = calibrate_model(gpusim::gtx980(), def);
  const stencil::ProblemSize p{.dim = 2, .S = {256, 256, 0}, .T = 8};
  const std::vector<hhc::TileSizes> space = enumerate_feasible(2, in.hw);
  const TuningContext ctx =
      TuningContext::with_inputs(gpusim::gtx980(), def, p, in);
  check_span(ctx, space, "pipeline");
  Session s(ctx, SessionOptions{}.with_jobs(1));
  (void)s.sweep_model(space, 0.10);
  EXPECT_LT(s.stats().model_points * 10, space.size());
}

// A paper-sized problem: over a quarter of the space lies within 10 %
// of the minimum (1,420 of 4,881 tiles), and the tile floors of the
// kept runs still rule out more than half of the space (2,316 tiles
// are priced).
TEST(SweepParity, PaperSizedSpacesMatchTheFullLoop) {
  const auto& def = stencil::get_stencil(stencil::StencilKind::kHeat2D);
  const model::ModelInputs in = calibrate_model(gpusim::gtx980(), def);
  const stencil::ProblemSize p{.dim = 2, .S = {4096, 4096, 0}, .T = 1024};
  const std::vector<hhc::TileSizes> space = enumerate_feasible(2, in.hw);
  const TuningContext ctx =
      TuningContext::with_inputs(gpusim::gtx980(), def, p, in);
  check_span(ctx, space, "paper");
  Session s(ctx, SessionOptions{}.with_jobs(1));
  const ModelSweep sweep = s.sweep_model(space, 0.10);
  const std::size_t priced = s.stats().model_points;
  EXPECT_GE(priced, sweep.candidates.size());
  EXPECT_GT(sweep.candidates.size() * 4, space.size());
  EXPECT_LT(priced * 2, space.size());
}

TEST(SweepParity, EmptyInfeasibleAndMixedSpans) {
  const auto& def = stencil::get_stencil(stencil::StencilKind::kHeat2D);
  const model::ModelInputs in = calibrate_model(gpusim::gtx980(), def);
  const stencil::ProblemSize p{.dim = 2, .S = {512, 384, 0}, .T = 12};
  const TuningContext ctx =
      TuningContext::with_inputs(gpusim::gtx980(), def, p, in);

  check_span(ctx, {}, "empty");

  // No feasible tile: Talg_min stays +inf, so every tile is a
  // candidate (inf <= inf) and every tile is priced.
  const std::vector<hhc::TileSizes> none = infeasible_tiles(2);
  EXPECT_EQ(check_span(ctx, none, "all infeasible"),
            none.size() * std::size(kDeltas));

  // Infeasible tiles first (the floor argmin must skip them) and
  // interleaved with a coarse feasible space.
  std::vector<hhc::TileSizes> mixed = none;
  for (const hhc::TileSizes& ts : enumerate_feasible(
           2, in.hw, EnumOptions{}.with_tS1_step(5).with_tT_step(4))) {
    mixed.push_back(ts);
    if (mixed.size() % 97 == 0) mixed.push_back(none[mixed.size() % 3]);
  }
  // In (tT, tS1) order, as sweep_model requires: the infeasible tiles
  // then sit inside runs.
  std::stable_sort(mixed.begin(), mixed.end(), by_run);
  check_span(ctx, mixed, "mixed");
}

// A tile whose floor is its Talg exactly, twice: at delta = 0 the cut
// is that Talg, the second copy's floor meets it, and the sweep must
// price it (the cut skips a tile only on floor > cut).
TEST(SweepParity, ATileWhoseFloorMeetsTheCutIsPriced) {
  const auto& def = stencil::get_stencil(stencil::StencilKind::kJacobi2D);
  const model::ModelInputs in = calibrate_model(gpusim::gtx980(), def);
  const stencil::ProblemSize p{.dim = 2, .S = {256, 256, 0}, .T = 8};
  const model::TalgFloor floor(in, p);
  std::vector<hhc::TileSizes> twice;
  for (const hhc::TileSizes& ts : enumerate_feasible(2, in.hw)) {
    model::TalgFloor::Run run;
    if (floor(ts, run) == model::talg_auto_k(in, p, ts).talg) {
      twice = {ts, ts};
      break;
    }
  }
  ASSERT_EQ(twice.size(), 2u);
  check_span(TuningContext::with_inputs(gpusim::gtx980(), def, p, in), twice,
             "twice " + twice[0].to_string());
  Session s(TuningContext::with_inputs(gpusim::gtx980(), def, p, in),
            SessionOptions{}.with_jobs(1));
  EXPECT_EQ(s.sweep_model(twice, 0.0).candidates.size(), 2u);
}

// Inputs the floor does not model (the closed-form row sum) price
// every tile and still match the loop.
TEST(SweepParity, UnmodeledInputsPriceEveryTile) {
  const auto& def = stencil::get_stencil(stencil::StencilKind::kJacobi2D);
  model::ModelInputs in = calibrate_model(gpusim::gtx980(), def);
  in.row_sum = model::RowSumMode::kClosedForm;
  const stencil::ProblemSize p{.dim = 2, .S = {256, 256, 0}, .T = 8};
  const std::vector<hhc::TileSizes> space = enumerate_feasible(
      2, in.hw, EnumOptions{}.with_tS1_step(3).with_tT_step(4));
  EXPECT_EQ(check_span(TuningContext::with_inputs(gpusim::gtx980(), def, p, in),
                       space, "closed form"),
            space.size() * std::size(kDeltas));
}

// The level problems of the planner's V-cycles (smoothers, residual
// and transfer stencils at S 64-1024, T 2-32, on both GPUs) over the
// default space: the case the segment walk was built for. The total
// of exact Talg evaluations is pinned; it is the count the full run
// walk priced, so the walk prices the same tiles.
TEST(SweepParity, VcycleLevelProblemsMatchTheFullLoop) {
  constexpr double kLevelDeltas[] = {0.0, 0.10};
  constexpr std::int64_t kTs[] = {2, 4, 8, 16, 32};
  const stencil::StencilKind kinds[] = {
      stencil::StencilKind::kJacobi2D, stencil::StencilKind::kHeat2D,
      stencil::StencilKind::kLaplacian2D, stencil::StencilKind::kGradient2D};
  Rng rng(25);
  std::size_t priced = 0;
  for (const char* name : {"GTX 980", "Titan X"}) {
    const device::Descriptor& dev = *device::registry().find(name);
    for (const stencil::StencilKind kind : kinds) {
      const stencil::StencilDef& def = stencil::get_stencil(kind);
      const model::ModelInputs in = calibrate_model(dev, def);
      const std::vector<hhc::TileSizes> space =
          enumerate_feasible(2, in.hw, EnumOptions{}, def.radius);
      for (int draw = 0; draw < 3; ++draw) {
        const std::int64_t s = 64 * rng.uniform_int(1, 16);
        const stencil::ProblemSize p{
            .dim = 2, .S = {s, s, 0}, .T = kTs[rng.uniform_int(0, 4)]};
        priced += check_span(TuningContext::with_inputs(dev, def, p, in),
                             space,
                             dev.name() + " " + def.name + " " + p.to_string(),
                             kLevelDeltas);
      }
    }
  }
  EXPECT_EQ(priced, kVcycleLevelPriced);
}

// The walk takes the tiles of a run in any order and skips runs that
// are missing from a column; neither may change a result. A span
// whose runs are out of (tT, tS1) order is refused.
TEST(SweepParity, ShuffledSpansAndColumnsWithHolesMatchTheFullLoop) {
  const auto& def = stencil::get_stencil(stencil::StencilKind::kJacobi2D);
  const model::ModelInputs in = calibrate_model(gpusim::gtx980(), def);
  const std::vector<hhc::TileSizes> space = enumerate_feasible(2, in.hw);
  Rng rng(2025);
  for (const stencil::ProblemSize& p :
       {stencil::ProblemSize{.dim = 2, .S = {256, 256, 0}, .T = 8},
        stencil::ProblemSize{.dim = 2, .S = {4096, 4096, 0}, .T = 1024}}) {
    const TuningContext ctx =
        TuningContext::with_inputs(gpusim::gtx980(), def, p, in);
    const std::string where = p.to_string();
    Session s(ctx);
    EXPECT_THROW((void)s.sweep_model(shuffled(space, rng), 0.10),
                 std::invalid_argument)
        << where;
    check_span(ctx, shuffled_within_runs(space, rng),
               where + " shuffled within runs");
    // Holes: whole runs and single tiles dropped at random, segment
    // heads among them, the rest left in order.
    std::vector<hhc::TileSizes> holes;
    bool drop_run = false;
    for (std::size_t i = 0; i < space.size(); ++i) {
      if (i == 0 || space[i].tS1 != space[i - 1].tS1) {
        drop_run = rng.uniform_int(0, 2) == 0;
      }
      if (!drop_run && rng.uniform_int(0, 4) != 0) holes.push_back(space[i]);
    }
    check_span(ctx, holes, where + " holes");
    check_span(ctx, shuffled_within_runs(holes, rng),
               where + " holes shuffled within runs");
  }
}

// A run below the slope (tS1 < max(r, 1)) floors to +inf, so a column
// that starts with one has a +inf segment head. A finite cut skips
// such a segment; an infinite cut (no feasible tile) must walk it and
// price every tile, +inf heads and all.
TEST(SweepParity, InfiniteSegmentHeadsArePricedOnlyUnderAnInfiniteCut) {
  const auto& def = stencil::get_stencil(stencil::StencilKind::kWideStar2D);
  ASSERT_EQ(def.radius, 2);
  const model::ModelInputs in = calibrate_model(gpusim::gtx980(), def);
  const stencil::ProblemSize p{.dim = 2, .S = {384, 384, 0}, .T = 16};
  const TuningContext ctx =
      TuningContext::with_inputs(gpusim::gtx980(), def, p, in);
  // Each column of a coarse space led by tiles at tS1 = 0 and 1.
  std::vector<hhc::TileSizes> headed;
  for (const hhc::TileSizes& ts : enumerate_feasible(
           2, in.hw, EnumOptions{}.with_tS1_step(3).with_tT_step(4),
           def.radius)) {
    if (headed.empty() || headed.back().tT != ts.tT) {
      for (const std::int64_t s1 : {0, 0, 1}) {
        headed.push_back({.tT = ts.tT, .tS1 = s1, .tS2 = 32 * (s1 + 1),
                          .tS3 = 1});
      }
    }
    headed.push_back(ts);
  }
  const std::size_t priced = check_span(ctx, headed, "headed");
  EXPECT_LT(priced, headed.size() * std::size(kDeltas));
  // No feasible tile: columns of slope-rejected and over-capacity runs,
  // one of odd tT. Every tile is a candidate and every tile is priced.
  std::vector<hhc::TileSizes> none;
  for (const std::int64_t tT : {2, 3, 8}) {
    for (const std::int64_t s1 : {0, 1, 1, 4096}) {
      none.push_back({.tT = tT, .tS1 = s1, .tS2 = 64, .tS3 = 1});
    }
  }
  EXPECT_EQ(check_span(ctx, none, "no feasible tile"),
            none.size() * std::size(kDeltas));
}

}  // namespace
}  // namespace repro::tuner
