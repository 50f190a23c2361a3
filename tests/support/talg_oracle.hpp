// Reference for model::talg and model::talg_auto_k.
//
// The library splits Talg into k-independent terms computed once per
// tile and a per-k finish, and sums the rows of Eqns 9/15/27 with an
// O(log) floor-sum. This oracle does neither: it evaluates every
// equation from scratch for each k, as printed, and adds the row sum
// one ceiling at a time. The two must agree bit for bit on every
// TalgBreakdown field (tests/model/talg_parity_test.cpp).
//
// It is a test-only oracle (library repro_test_support); it is slow
// by design, O(k_max x rows) per tile.
#pragma once

#include <cstdint>

#include "hhc/tile_sizes.hpp"
#include "model/talg.hpp"
#include "stencil/problem.hpp"

namespace repro::test {

// Sum of ceil(x / d) for x = lo, lo+step, ..., hi, one term at a time,
// in double as the model's printed row sum is accumulated.
double looped_ceil_sum(std::int64_t lo, std::int64_t hi, std::int64_t step,
                       std::int64_t d);

// model::talg for one k, every term recomputed.
model::TalgBreakdown reference_talg(const model::ModelInputs& in,
                                    const stencil::ProblemSize& p,
                                    const hhc::TileSizes& ts, std::int64_t k);

// model::talg_auto_k as a loop of full reference_talg calls, keeping
// the first strictly better k.
model::TalgBreakdown reference_talg_auto_k(const model::ModelInputs& in,
                                           const stencil::ProblemSize& p,
                                           const hhc::TileSizes& ts);

}  // namespace repro::test
