// Reference for tuner::enumerate_feasible.
//
// The enumerator stops each loop at the first point that fails the
// shared-memory capacity check, relying on M_tile being monotone in
// every extent. This oracle relies on nothing: it visits every point
// of the lattice in the same loop order and keeps the ones
// analysis::eqn31_feasible accepts (tests/tuner/space_parity_test.cpp
// pins the two point for point).
//
// It is a test-only oracle (library repro_test_support); it is slow
// by design, O(lattice points).
#pragma once

#include <cstdint>
#include <vector>

#include "hhc/tile_sizes.hpp"
#include "model/params.hpp"
#include "tuner/space.hpp"

namespace repro::test {

std::vector<hhc::TileSizes> reference_enumerate_feasible(
    int dim, const model::HardwareParams& hw, const tuner::EnumOptions& opt,
    std::int64_t radius);

}  // namespace repro::test
