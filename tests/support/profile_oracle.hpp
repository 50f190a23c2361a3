// Row-walk reference for gpusim::TileCostProfile::build.
//
// build() classifies the wavefront rows in O(classes): it visits the
// clipped head and tail rows and counts each family's interior rows
// in closed form, and block_geometry collapses congruent skewed bands.
// This oracle trusts neither shortcut. It visits every row of the
// HexSchedule, re-derives every row's representative geometry with
// every skewed band enumerated one by one, and checks it against the
// first row of the same congruence key. A row that disagrees opens a
// class of its own and is counted in `mismatches`, so a broken
// congruence assumption shows up both as a count and as a class list
// that differs from build()'s.
//
// It is a test-only oracle (library repro_test_support); it is slow
// by design, O(rows x bands) per profile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/cost_profile.hpp"
#include "hhc/tile_sizes.hpp"
#include "stencil/problem.hpp"

namespace repro::test {

struct ReferenceProfile {
  // The same validation build() applies; `error` is the exception
  // text when it fails.
  bool valid = false;
  std::string error;
  // Rows whose re-derived geometry differed from the first row with
  // the same congruence key (0 unless the assumption is broken).
  std::int64_t mismatches = 0;
  // The classes as a priceable profile (default-constructed, hence
  // invalid, when `valid` is false).
  gpusim::TileCostProfile profile;
};

// Thread-invariant geometry of one tile shape with every skewed band
// enumerated individually (block_geometry collapses congruent bands).
gpusim::BlockGeometry reference_block_geometry(const stencil::ProblemSize& p,
                                               const hhc::TileSizes& ts,
                                               const hhc::TileShape& shape);

// The row walk. With `enumerate_bands` false the per-row geometry
// comes from block_geometry instead of reference_block_geometry: the
// rows are still all visited and audited, but a sweep over thousands
// of cases stays cheap.
ReferenceProfile build_reference(const stencil::ProblemSize& p,
                                 const hhc::TileSizes& ts,
                                 std::int64_t radius,
                                 bool enumerate_bands = true);

}  // namespace repro::test
