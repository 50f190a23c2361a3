#include "hhc/hex_schedule.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/math_util.hpp"

namespace repro::hhc {
namespace {

TEST(HexSchedule, RejectsBadParameters) {
  EXPECT_THROW(HexSchedule(10, 10, 3, 4), std::invalid_argument);  // odd tT
  EXPECT_THROW(HexSchedule(10, 10, 0, 4), std::invalid_argument);
  EXPECT_THROW(HexSchedule(10, 10, 4, 0), std::invalid_argument);
  EXPECT_THROW(HexSchedule(0, 10, 4, 4), std::invalid_argument);
}

TEST(HexSchedule, RowCountMatchesPaperEqn3) {
  // Nw = 2*ceil(T/tT) + eps with eps in {0, 1} (Eqn 3).
  for (std::int64_t T : {1, 2, 5, 8, 16, 17, 31, 100}) {
    for (std::int64_t tT : {2, 4, 8}) {
      const HexSchedule s(T, 64, tT, 4);
      const std::int64_t approx = 2 * repro::ceil_div(T, tT);
      EXPECT_GE(s.num_rows(), approx) << "T=" << T << " tT=" << tT;
      EXPECT_LE(s.num_rows(), approx + 1) << "T=" << T << " tT=" << tT;
    }
  }
}

TEST(HexSchedule, RowsAlternateFamiliesSortedByBase) {
  const HexSchedule s(32, 64, 4, 4);
  std::int64_t prev = s.row_base(0);
  for (std::int64_t r = 1; r < s.num_rows(); ++r) {
    EXPECT_GT(s.row_base(r), prev);
    EXPECT_NE(static_cast<int>(s.row_family(r)),
              static_cast<int>(s.row_family(r - 1)));
    prev = s.row_base(r);
  }
}

TEST(HexSchedule, RowLevelsClippedToDomain) {
  const HexSchedule s(10, 64, 4, 4);
  for (std::int64_t r = 0; r < s.num_rows(); ++r) {
    const Interval lv = s.row_levels(r);
    EXPECT_GE(lv.lo, 0);
    EXPECT_LE(lv.hi, 10);
    EXPECT_FALSE(lv.empty()) << "row " << r << " must cover some levels";
  }
}

TEST(HexSchedule, TilesPerRowNearModelEqn5) {
  // w(i) ~ ceil(S / (2 tS1 + tT)); exact count within +-1 of that.
  for (std::int64_t S : {64, 100, 1024}) {
    for (std::int64_t tS1 : {2, 4, 16}) {
      for (std::int64_t tT : {2, 4, 8}) {
        const HexSchedule s(4 * tT, S, tT, tS1);
        const std::int64_t model = repro::ceil_div(S, 2 * tS1 + tT);
        for (std::int64_t r = 0; r < s.num_rows(); ++r) {
          EXPECT_NEAR(static_cast<double>(s.tiles_in_row(r)),
                      static_cast<double>(model), 1.0)
              << "S=" << S << " tS1=" << tS1 << " tT=" << tT << " row " << r;
        }
      }
    }
  }
}

TEST(HexSchedule, InteriorTileWidthsMatchPaperEqn4) {
  const std::int64_t tT = 8;
  const std::int64_t tS1 = 5;
  const HexSchedule s(64, 256, tT, tS1);
  // Find an interior tile and check base width tS1, max width
  // w_tile = tS1 + tT - 2 (Eqn 4), symmetric profile.
  bool found_a = false;
  bool found_b = false;
  for (std::int64_t r = 0; r < s.num_rows() && !(found_a && found_b); ++r) {
    for (std::int64_t q = s.q_begin(r); q < s.q_end(r); ++q) {
      if (!s.is_interior(r, q)) continue;
      // Family B hexagons are two columns wider at the base — the
      // interlocking complement of the A hexagons.
      const std::int64_t base =
          (s.row_family(r) == Family::kA) ? tS1 : tS1 + 2;
      const TileShape sh = s.shape(r, q);
      ASSERT_EQ(sh.level_cols.size(), static_cast<std::size_t>(tT));
      EXPECT_EQ(sh.level_cols.front().size(), base);
      EXPECT_EQ(sh.level_cols.back().size(), base);
      std::int64_t widest = 0;
      for (const auto& iv : sh.level_cols) {
        widest = std::max(widest, iv.size());
      }
      // Eqn 4 (w_tile = tS1 + tT - 2) holds exactly for family A.
      EXPECT_EQ(widest, base + tT - 2);
      // Symmetry.
      for (std::size_t y = 0; y < sh.level_cols.size(); ++y) {
        EXPECT_EQ(sh.level_cols[y].size(),
                  sh.level_cols[sh.level_cols.size() - 1 - y].size());
      }
      (s.row_family(r) == Family::kA ? found_a : found_b) = true;
      break;
    }
  }
  EXPECT_TRUE(found_a);
  EXPECT_TRUE(found_b);
}

TEST(HexSchedule, InteriorFootprintsMatchModelWithinConstant) {
  // Model: m_i = m_o = tS1 + 2*tT (Eqn 7); the exact interlocking
  // geometry gives tS1 + 2*tT - 2.
  for (std::int64_t tT : {2, 4, 8, 16}) {
    for (std::int64_t tS1 : {1, 3, 8, 20}) {
      const HexSchedule s(8 * tT, 512, tT, tS1);
      for (std::int64_t r = 0; r < s.num_rows(); ++r) {
        for (std::int64_t q = s.q_begin(r); q < s.q_end(r); ++q) {
          if (!s.is_interior(r, q)) continue;
          const TileShape sh = s.shape(r, q);
          // A tiles: tS1 + 2 tT - 2; B tiles: tS1 + 2 tT (= Eqn 7).
          EXPECT_LE(std::llabs(sh.input_footprint() - (tS1 + 2 * tT)), 2)
              << "tT=" << tT << " tS1=" << tS1;
          // Interior, non-final tiles: m_o ~ m_i (paper Section 4.1.1
          // treats them as equal; exactly, m_o = m_i - 2).
          if (sh.first_level +
                  static_cast<std::int64_t>(sh.level_cols.size()) <
              s.T()) {
            // Degenerate widths (tS1 = 1) push the gap to 3.
            EXPECT_LE(std::llabs(sh.output_footprint(s.T()) -
                                 sh.input_footprint()),
                      3);
          }
          r = s.num_rows();  // one interior tile is enough per config
          break;
        }
      }
    }
  }
}

TEST(HexSchedule, TotalPointsEqualsIterationSpace) {
  for (std::int64_t T : {1, 3, 8, 13}) {
    for (std::int64_t S : {5, 32, 57}) {
      for (std::int64_t tT : {2, 4, 6}) {
        for (std::int64_t tS1 : {1, 3, 7}) {
          const HexSchedule s(T, S, tT, tS1);
          EXPECT_EQ(s.total_points(), T * S)
              << "T=" << T << " S=" << S << " tT=" << tT << " tS1=" << tS1;
        }
      }
    }
  }
}

TEST(HexSchedule, InteriorRowsAreExactlyTheUnclippedRows) {
  // interior_rows() is closed-form; pin it to a row-by-row scan of
  // row_levels: row r is unclipped iff [base, base + tT) lies in
  // [0, T). Within the range, every row of one family shares its
  // congruence key (levels relative to the base, tile count).
  for (std::int64_t radius : {1, 2, 3, 4}) {
    for (std::int64_t tT : {2, 4, 6, 8, 10, 16, 32}) {
      for (std::int64_t T : {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64,
                             65, 100, 257, 1000}) {
        const HexSchedule s(T, 97, tT, radius + 2, radius);
        const Interval interior = s.interior_rows();
        const std::string what = "T=" + std::to_string(T) +
                                 " tT=" + std::to_string(tT) +
                                 " r=" + std::to_string(radius);
        std::int64_t lo = -1;
        std::int64_t hi = -1;
        for (std::int64_t r = 0; r < s.num_rows(); ++r) {
          const std::int64_t base = s.row_base(r);
          const bool unclipped = base >= 0 && base + tT <= T;
          EXPECT_EQ(s.row_levels(r) == (Interval{base, base + tT}), unclipped)
              << what << " row " << r;
          if (!unclipped) continue;
          if (lo < 0) lo = r;
          EXPECT_TRUE(hi < 0 || hi == r) << what << " rows not contiguous";
          hi = r + 1;
        }
        if (lo < 0) {
          EXPECT_TRUE(interior.empty()) << what;
          EXPECT_GE(interior.lo, 1) << what;
          EXPECT_LE(interior.hi, s.num_rows()) << what;
        } else {
          EXPECT_EQ(interior, (Interval{lo, hi})) << what;
        }
        if (T < tT) {
          EXPECT_TRUE(interior.empty()) << what;
        }
        for (std::int64_t r = interior.lo + 2; r < interior.hi; ++r) {
          EXPECT_EQ(s.row_family(r), s.row_family(r - 2)) << what;
          EXPECT_EQ(s.tiles_in_row(r), s.tiles_in_row(r - 2)) << what;
        }
      }
    }
  }
}

TEST(HexSchedule, ShapeOutsideDomainIsEmpty) {
  const HexSchedule s(8, 16, 4, 4);
  // Far-away column index: no points.
  EXPECT_TRUE(s.shape(0, 1000).empty());
}

}  // namespace
}  // namespace repro::hhc
