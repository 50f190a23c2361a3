// The pipeline planner: tunes every distinct stage of a pipeline, each
// on its own tuner::Session, and aggregates per-stage best times into
// an end-to-end pipeline Talg with a per-stage breakdown.
//
// A stage's identity is its stage_key (stage_cache.hpp): within a plan
// the device, delta and enumeration options are fixed, so stages
// agreeing on (stencil identity, problem, effective variant) share
// one key. Each key is tuned from scratch, as the paper's Section 6
// optimizer tunes one problem: a model sweep, then Session::best_tile
// over the within-delta candidates. A stage's result and its work are
// therefore a function of its key alone. Three reuse mechanisms stack,
// each strictly work-saving (none can change a result — a copy is a
// finished answer, a shared tile space is the one each stage would
// have enumerated, and a calibration or stage cache entry is what an
// earlier lookup computed for the same inputs):
//   1. One tuning per stage key: the first stage of a key is tuned (or
//      served from a StageCache, below); later stages of the key copy
//      its StageResult (reused == true, zero additional work). The
//      calibration (device + stencil only) comes from a
//      tuner::CalibrationCache, shared across every problem size via
//      TuningContext::with_inputs. The tuned service hands every
//      planner its own service-wide cache, so a stencil calibrated by
//      any earlier request is not calibrated again; a planner built
//      without one keeps a cache for the plan.
//   2. One tile space per (dim, radius): the device and the
//      enumeration options are fixed within a plan, so every stage
//      of one dim and radius sweeps the same enumerate_feasible
//      result, computed once.
//   3. Stage results across plans: a planner given a StageCache (the
//      tuned service hands over its own) looks the same stage key up
//      there and serves a stage that any earlier plan tuned from the
//      cache. The copy is plan-local in everything else: `reused`
//      marks only a repeat inside this plan and distinct_tasks counts
//      the stage, so the plan reads as a fresh one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "device/descriptor.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stage_cache.hpp"
#include "tuner/session.hpp"
#include "tuner/space.hpp"

namespace repro::pipeline {

struct PlanOptions {
  double delta = 0.10;  // within-delta candidate fraction (Section 6)
  tuner::EnumOptions enumeration;
  tuner::SessionOptions session;

  PlanOptions& with_delta(double d) noexcept { delta = d; return *this; }
  PlanOptions& with_enumeration(const tuner::EnumOptions& e) {
    enumeration = e;
    return *this;
  }
  PlanOptions& with_session(const tuner::SessionOptions& s) noexcept {
    session = s;
    return *this;
  }
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
  std::size_t distinct_tasks = 0;     // stage keys tuned, or served
                                      // from a StageCache
  std::size_t spaces_enumerated = 0;  // tile spaces built, one per
                                      // (dim, radius) the plan tunes
  bool feasible = false;              // every stage found a feasible best
  double talg = 0.0;   // end-to-end: Σ repeat × best.talg
  double texec = 0.0;  // end-to-end: Σ repeat × best.texec

  // The counters of every Session the plan tuned a stage on (fresh
  // pricings = machine_points - cache_hits). Jobs- and
  // wall-time-dependent, so the service payload never includes them.
  tuner::SweepStats stats;
};

class Planner {
 public:
  // `calibrations` and `stages`, when given, must outlive the planner.
  // `dev_key` is tuner::device_key(dev), computed here when empty.
  explicit Planner(const device::Descriptor& dev, PlanOptions opt = {},
                   tuner::CalibrationCache* calibrations = nullptr,
                   StageCache* stages = nullptr, std::string dev_key = {});

  // Tunes every distinct stage (in topological order) and aggregates.
  // The pipeline must have passed parse_pipeline; a cyclic DAG throws
  // std::invalid_argument.
  PipelinePlan plan(const Pipeline& p);

 private:
  device::Descriptor dev_;
  std::string dev_key_;  // tuner::device_key(dev_)
  PlanOptions opt_;
  tuner::CalibrationCache* calibrations_;
  StageCache* stages_;
};

// The deterministic JSON rendering of a plan: per-stage breakdown in
// declaration order plus the end-to-end aggregates. Contains only
// jobs-invariant fields (never the SweepStats counters), so the
// service can embed it in a byte-deterministic payload.
std::string render_plan(const PipelinePlan& plan);

// render_plan's text parsed back into a tree (its dump() gives the
// same bytes), for the benchmark's replay (perfbench/src/traced.cpp)
// only. It goes when ROADMAP item 1's benchmark change deletes that
// replay.
json::Value plan_to_json(const PipelinePlan& plan);

}  // namespace repro::pipeline
