// Property tests for the tiling geometry: exact cover (every iteration
// point in exactly one tile) and dependence legality (the wavefront
// order never reads an unwritten value). These are the foundations of
// both the functional executor's correctness and the model's counting
// formulas.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "hhc/hex_schedule.hpp"

namespace repro::hhc {
namespace {

struct GeometryParam {
  std::int64_t T;
  std::int64_t S;
  std::int64_t tT;
  std::int64_t tS1;
};

class HexCoverage : public ::testing::TestWithParam<GeometryParam> {};

TEST_P(HexCoverage, EveryPointCoveredExactlyOnce) {
  const auto [T, S, tT, tS1] = GetParam();
  const HexSchedule sched(T, S, tT, tS1);
  std::vector<int> cover(static_cast<std::size_t>(T * S), 0);
  for (std::int64_t r = 0; r < sched.num_rows(); ++r) {
    for (std::int64_t q = sched.q_begin(r); q < sched.q_end(r); ++q) {
      const TileShape sh = sched.shape(r, q);
      for (std::size_t lev = 0; lev < sh.level_cols.size(); ++lev) {
        const std::int64_t t =
            sh.first_level + static_cast<std::int64_t>(lev);
        const Interval& iv = sh.level_cols[lev];
        for (std::int64_t s = iv.lo; s < iv.hi; ++s) {
          ASSERT_GE(t, 0);
          ASSERT_LT(t, T);
          ASSERT_GE(s, 0);
          ASSERT_LT(s, S);
          ++cover[static_cast<std::size_t>(t * S + s)];
        }
      }
    }
  }
  for (std::int64_t t = 0; t < T; ++t) {
    for (std::int64_t s = 0; s < S; ++s) {
      EXPECT_EQ(cover[static_cast<std::size_t>(t * S + s)], 1)
          << "point (t=" << t << ", s=" << s << ")";
    }
  }
}

TEST_P(HexCoverage, WavefrontOrderRespectsDependences) {
  // Execute tiles in (row, q) order, each tile bottom-up; check that
  // every radius-1 read at t-1 targets an already-computed in-domain
  // point. This is the legality proof of one-row-per-kernel.
  const auto [T, S, tT, tS1] = GetParam();
  const HexSchedule sched(T, S, tT, tS1);
  std::vector<std::int64_t> order(static_cast<std::size_t>(T * S), -1);
  std::int64_t clock = 0;
  for (std::int64_t r = 0; r < sched.num_rows(); ++r) {
    for (std::int64_t q = sched.q_begin(r); q < sched.q_end(r); ++q) {
      const TileShape sh = sched.shape(r, q);
      for (std::size_t lev = 0; lev < sh.level_cols.size(); ++lev) {
        const std::int64_t t =
            sh.first_level + static_cast<std::int64_t>(lev);
        const Interval& iv = sh.level_cols[lev];
        for (std::int64_t s = iv.lo; s < iv.hi; ++s) {
          order[static_cast<std::size_t>(t * S + s)] = clock++;
        }
      }
    }
  }
  for (std::int64_t t = 1; t < T; ++t) {
    for (std::int64_t s = 0; s < S; ++s) {
      const std::int64_t me = order[static_cast<std::size_t>(t * S + s)];
      for (std::int64_t ds = -1; ds <= 1; ++ds) {
        const std::int64_t sn = s + ds;
        if (sn < 0 || sn >= S) continue;
        const std::int64_t dep =
            order[static_cast<std::size_t>((t - 1) * S + sn)];
        ASSERT_LT(dep, me) << "(t=" << t << ",s=" << s << ") reads (t-1,"
                           << sn << ") before it is written";
      }
    }
  }
}

TEST_P(HexCoverage, TilesWithinRowAreIndependent) {
  // No tile reads a value produced by another tile of the same row:
  // all cross-tile reads resolve to strictly earlier rows.
  const auto [T, S, tT, tS1] = GetParam();
  const HexSchedule sched(T, S, tT, tS1);
  // Map each point to its (row, q).
  std::map<std::pair<std::int64_t, std::int64_t>,
           std::pair<std::int64_t, std::int64_t>>
      owner;
  for (std::int64_t r = 0; r < sched.num_rows(); ++r) {
    for (std::int64_t q = sched.q_begin(r); q < sched.q_end(r); ++q) {
      const TileShape sh = sched.shape(r, q);
      for (std::size_t lev = 0; lev < sh.level_cols.size(); ++lev) {
        const std::int64_t t =
            sh.first_level + static_cast<std::int64_t>(lev);
        for (std::int64_t s = sh.level_cols[lev].lo;
             s < sh.level_cols[lev].hi; ++s) {
          owner[{t, s}] = {r, q};
        }
      }
    }
  }
  for (const auto& [pt, rq] : owner) {
    const auto [t, s] = pt;
    if (t == 0) continue;
    for (std::int64_t ds = -1; ds <= 1; ++ds) {
      const std::int64_t sn = s + ds;
      if (sn < 0 || sn >= S) continue;
      const auto dep = owner.at({t - 1, sn});
      if (dep.first == rq.first) {
        EXPECT_EQ(dep.second, rq.second)
            << "cross-tile dependence within one wavefront row at (t=" << t
            << ",s=" << s << ")";
      } else {
        EXPECT_LT(dep.first, rq.first);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, HexCoverage,
    ::testing::Values(GeometryParam{8, 32, 4, 4}, GeometryParam{16, 64, 8, 3},
                      GeometryParam{7, 40, 4, 1}, GeometryParam{4, 10, 2, 2},
                      GeometryParam{20, 33, 6, 5}, GeometryParam{5, 64, 8, 4},
                      GeometryParam{12, 20, 2, 1},
                      GeometryParam{9, 128, 10, 7},
                      GeometryParam{32, 16, 4, 8},
                      GeometryParam{3, 7, 6, 3}),
    [](const ::testing::TestParamInfo<GeometryParam>& info) {
      const auto& p = info.param;
      std::string name = "T";
      name += std::to_string(p.T);
      name += "_S";
      name += std::to_string(p.S);
      name += "_tT";
      name += std::to_string(p.tT);
      name += "_tS";
      name += std::to_string(p.tS1);
      return name;
    });

}  // namespace
}  // namespace repro::hhc
