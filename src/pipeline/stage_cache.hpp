// Finished stage tunings shared across pipeline plans.
//
// A stage's answer (the Eqn 31 space size, the Section 6 within-delta
// candidate count and the measured best point) depends only on the
// machine, the stencil, the problem size, the kernel variant the stage
// pins, delta and the enumeration options. The tuned service keeps one
// StageCache per ServiceCore and hands it to every pipeline::Planner it
// builds, so a stage that any earlier request tuned is served from
// memory; a planner built without one tunes every distinct stage of
// each plan.
//
// The key (stage_key) carries every one of those inputs: the device's
// canonical descriptor JSON, the stencil identity (catalogue name or
// DSL text), the problem, the effective variant, delta bit for bit and
// every EnumOptions field, its variant list included. Session options
// stay out: they cannot change a result (the planner's determinism
// invariants). The planner keys its in-plan
// copies of a repeated stage by the same string. An entry is a few
// hundred bytes, never a Session. The cache is bounded by entry count
// and by bytes (DSL text makes keys long) and evicts the least recently
// used entries past either bound; an evicted stage is retuned to the
// same bytes.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/lru_cache.hpp"
#include "stencil/problem.hpp"
#include "stencil/variant.hpp"
#include "tuner/optimizer.hpp"
#include "tuner/space.hpp"

namespace repro::pipeline {

// What a tuned stage reports; StageResult copies it field for field.
struct StageOutcome {
  std::size_t space_size = 0;
  std::size_t candidates_tried = 0;
  tuner::EvaluatedPoint best;  // feasible == false: no feasible tile
};

class StageCache : public LruCache<StageOutcome> {
 public:
  // The seed-1 `vcycle_plan` stream tunes 218 distinct stages.
  static constexpr std::size_t kDefaultCapacity = 1024;
  static constexpr std::size_t kDefaultBytes = std::size_t{4} << 20;

  explicit StageCache(std::size_t capacity = kDefaultCapacity,
                      std::size_t max_bytes = kDefaultBytes)
      : LruCache(capacity, max_bytes) {}
};

// "S:<S1>[:<S2>[:<S3>]]|T:<T>".
std::string problem_key(const stencil::ProblemSize& p);

// The cache key of one stage. `dev_key` is tuner::device_key of the
// device and `stencil` the stage's tuner::stencil_identity; it goes
// last, so DSL text cannot run into another field.
std::string stage_key(std::string_view dev_key, std::string_view stencil,
                      const stencil::ProblemSize& problem,
                      const stencil::KernelVariant& variant, double delta,
                      const tuner::EnumOptions& enumeration);

}  // namespace repro::pipeline
