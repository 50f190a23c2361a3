// The pipeline planner: tunes every distinct (stencil, problem,
// variant) task of a pipeline through one shared tuner::Session pool
// and aggregates per-stage best times into an end-to-end pipeline
// Talg with a per-stage breakdown.
//
// Three reuse mechanisms stack, each strictly work-saving (none can
// change a result — the dedup copies a finished answer, the shared
// memo replays cached measurements, and warm seeds only reorder and
// prune Session::best_tile's sweep):
//   1. Stage dedup: stages agreeing on (stencil identity, problem,
//      effective variant) are tuned once; later copies reuse the
//      earlier StageResult (reused == true, zero additional work).
//   2. Shared sessions: one Session per (stencil identity, problem)
//      carries its measurement memo across stages, and the
//      calibration (device + stencil only) is computed once per
//      stencil and shared across every problem size via
//      TuningContext::with_inputs.
//   3. Cross-level warm seeding: each stage's sweep is seeded with
//      the winners already found for the *same stencil* at other
//      problem sizes (the multigrid descent: level l's smoother seeds
//      level l+1's), ranked same-variant-first then by log-space
//      problem distance — the WarmSeed path re-prices every seed, so
//      seeded results stay byte-identical to cold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "device/descriptor.hpp"
#include "pipeline/pipeline.hpp"
#include "tuner/session.hpp"
#include "tuner/space.hpp"

namespace repro::pipeline {

struct PlanOptions {
  double delta = 0.10;  // within-delta candidate fraction (Section 6)
  tuner::EnumOptions enumeration;
  tuner::SessionOptions session;
  // A/B switches for the reuse tests. Both default on; flipping
  // either must not change a single result byte.
  bool dedup = true;      // reuse finished results of repeated stages
  bool warm_seed = true;  // seed sweeps from same-stencil winners

  PlanOptions& with_delta(double d) noexcept { delta = d; return *this; }
  PlanOptions& with_enumeration(const tuner::EnumOptions& e) {
    enumeration = e;
    return *this;
  }
  PlanOptions& with_session(const tuner::SessionOptions& s) noexcept {
    session = s;
    return *this;
  }
  PlanOptions& with_dedup(bool b) noexcept { dedup = b; return *this; }
  PlanOptions& with_warm_seed(bool b) noexcept { warm_seed = b; return *this; }
};

// One stage's tuning outcome. `talg_total`/`texec_total` fold the
// stage's repeat count in (repeat × per-application best).
struct StageResult {
  std::string id;
  std::string stencil_name;
  std::string stencil_text;
  stencil::ProblemSize problem;
  std::int64_t repeat = 1;
  bool reused = false;  // copied from an identical earlier stage
  std::size_t space_size = 0;
  std::size_t candidates_tried = 0;
  tuner::EvaluatedPoint best;  // feasible == false: no feasible tile
  double talg_total = 0.0;
  double texec_total = 0.0;
};

struct PipelinePlan {
  std::string name;
  std::vector<StageResult> stages;  // declaration order
  std::size_t total_stages = 0;
  std::int64_t stage_executions = 0;  // Σ repeat
  std::size_t distinct_tasks = 0;     // tasks actually tuned
  bool feasible = false;              // every stage found a feasible best
  double talg = 0.0;   // end-to-end: Σ repeat × best.talg
  double texec = 0.0;  // end-to-end: Σ repeat × best.texec

  // Aggregated Session counters across the pool (fresh pricings =
  // machine_points - cache_hits). Jobs- and wall-time-dependent, so
  // the service payload never includes them.
  tuner::SweepStats stats;
};

class Planner {
 public:
  explicit Planner(const device::Descriptor& dev, PlanOptions opt = {});

  // Tunes every stage (in topological order — seeds flow along the
  // level descent) and aggregates. The pipeline must have passed
  // parse_pipeline; a cyclic DAG throws std::invalid_argument.
  PipelinePlan plan(const Pipeline& p);

 private:
  device::Descriptor dev_;
  PlanOptions opt_;
};

// A feasible winner found earlier in the walk, available as a warm
// seed for later stages of the same stencil.
struct Winner {
  stencil::ProblemSize problem;
  tuner::EvaluatedPoint best;
};

// The order the level descent offers `pool` (winners in discovery
// order) to a stage tuning `problem` with variant `want`: the
// tuner::rank_warm_seeds rule (same-variant winners first, then
// nearest by stencil::log_distance), discovery order breaking ties.
// Returns indices into `pool`.
std::vector<std::size_t> seed_order(std::span<const Winner> pool,
                                    const stencil::ProblemSize& problem,
                                    const stencil::KernelVariant& want);

// The deterministic JSON rendering of a plan: per-stage breakdown in
// declaration order plus the end-to-end aggregates. Contains only
// jobs-invariant fields (never the SweepStats counters), so the
// service can embed it in a byte-deterministic payload.
json::Value plan_to_json(const PipelinePlan& plan);

}  // namespace repro::pipeline
