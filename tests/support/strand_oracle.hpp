// Row-walk reference for cpusim::family_groups.
//
// The SIMD-group count of one sub-tile as the CPU simulator first
// computed it: one loop iteration per hexagon time step, with the
// strand split and the vector padding taken row by row. The closed
// form in cpusim/timing.cpp must return the same integer for every
// input the simulator can reach (radius, inner, strands, n_v >= 1).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/math_util.hpp"

namespace repro::test {

inline std::int64_t family_groups_rows(std::int64_t base, std::int64_t tT,
                                       std::int64_t inner,
                                       std::int64_t radius, int strands,
                                       int n_v) {
  const std::int64_t s = std::max(strands, 1);
  std::int64_t groups = 0;
  for (std::int64_t j = 0; j < tT / 2; ++j) {
    const std::int64_t points = (base + 2 * radius * j) * inner;
    const std::int64_t busy = std::min<std::int64_t>(s, points);
    const std::int64_t chunk = ceil_div(points, busy);
    // Each width occurs on the grow and the shrink half of the hexagon.
    groups += 2 * busy * ceil_div(chunk, static_cast<std::int64_t>(n_v));
  }
  return groups;
}

}  // namespace repro::test
