// Reference for tuner::Session::sweep_model.
//
// The Session prices a tile's Talg only where its Talg floors
// (model::TalgFloor) cannot rule it out. This oracle prices every
// tile of the span, then selects the argmin and the within-delta
// candidates in index order: the plain full-space loop of Section 6.
// tests/tuner/sweep_parity_test.cpp pins the two bit for bit.
//
// Header-only and test-only; O(space) Talg evaluations by design.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "tuner/optimizer.hpp"

namespace repro::test {

inline tuner::ModelSweep reference_sweep(const model::ModelInputs& in,
                                         const stencil::ProblemSize& p,
                                         std::span<const hhc::TileSizes> space,
                                         double delta) {
  tuner::ModelSweep s;
  s.space_size = space.size();
  s.talg_min = std::numeric_limits<double>::infinity();
  std::vector<double> talg;
  talg.reserve(space.size());
  for (const hhc::TileSizes& ts : space) {
    talg.push_back(tuner::model_talg_or_inf(in, p, ts));
    if (talg.back() < s.talg_min) {
      s.talg_min = talg.back();
      s.argmin = ts;
    }
  }
  const double cutoff = s.talg_min * (1.0 + delta);
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (talg[i] <= cutoff) {
      s.candidates.push_back(space[i]);
      s.candidate_talg.push_back(talg[i]);
    }
  }
  return s;
}

}  // namespace repro::test
