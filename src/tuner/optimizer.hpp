// Model-guided tile-size selection (Section 6).
//
// The pipeline is the paper's: evaluate Talg over the whole feasible
// space; keep every point within delta (10 %) of the predicted
// minimum; run only those few points (plus the thread-count
// exploration) on the machine; report the best. Also provided:
// strategy comparison for Fig. 6 and the simulated-annealing solver
// that stands in for the paper's disappointing Bonmin attempt.
//
// This header holds the value types and the pure model primitives.
// Sweeps and machine evaluation are tuner::Session methods
// (tuner/session.hpp): the session owns the calibrated context, runs
// the sweeps on a thread pool (--jobs / REPRO_JOBS) with
// bitwise-deterministic reductions, and memoizes repeated machine
// measurements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/microbench.hpp"
#include "hhc/tile_sizes.hpp"
#include "model/talg.hpp"
#include "stencil/problem.hpp"
#include "stencil/variant.hpp"
#include "tuner/space.hpp"

namespace repro::tuner {

// One "generated program": tile sizes plus thread configuration plus
// the kernel implementation variant (stencil/variant.hpp). The
// default-constructed variant is the pre-variant program; existing
// two-member aggregate initializers keep compiling and keep their
// meaning.
struct DataPoint {
  hhc::TileSizes ts;
  hhc::ThreadConfig thr;
  stencil::KernelVariant var{};

  friend bool operator==(const DataPoint&, const DataPoint&) = default;
};

// A data point with both the model's prediction and the machine
// (simulator) measurement.
struct EvaluatedPoint {
  DataPoint dp;
  double talg = 0.0;    // model, seconds
  double texec = 0.0;   // measured (best of 5), seconds
  double gflops = 0.0;  // from texec
  bool feasible = false;

  friend bool operator==(const EvaluatedPoint&,
                         const EvaluatedPoint&) = default;
};

// Eqn 31-checked model price: Talg for a feasible tile, +inf for an
// infeasible one. The shared primitive of the model sweep, the
// annealer and the Session; same feasibility definition as the
// enumerator and stencil-lint.
double model_talg_or_inf(const model::ModelInputs& in,
                         const stencil::ProblemSize& p,
                         const hhc::TileSizes& ts);

// --- Model sweep ----------------------------------------------------

// The within-delta candidate selection silently returned an empty set
// for a negative or non-finite delta; every sweep entry point now
// funnels the complaint through the diagnostics engine as SL313
// (same pattern as EnumOptions/CompareOptions::validate). The
// throwing form raises std::invalid_argument with "[SL313] ...".
void validate_sweep_delta(double delta, analysis::DiagnosticEngine& eng);
void validate_sweep_delta(double delta);

// An incumbent seed is used as the prune cutoff of a CAS-min
// incumbent. NaN never compares smaller, so it silently disables both
// the seed and every later offer's sanity; a negative seed (-inf
// included) prunes every point, the true argmin with them. Both are
// SL315 errors; +infinity (no seed) and any non-negative finite texec
// are valid. Same engine/throwing split as validate_sweep_delta.
void validate_incumbent_seed(double seed, analysis::DiagnosticEngine& eng);
void validate_incumbent_seed(double seed);

struct ModelSweep {
  double talg_min = 0.0;
  hhc::TileSizes argmin;
  // Every feasible tile size with talg within `delta` of talg_min.
  std::vector<hhc::TileSizes> candidates;
  std::size_t space_size = 0;
  // Talg of each candidate, in candidates order. The Session visits
  // candidates in Talg order and records each tile's Talg with its
  // measurements; these values spare it a second model evaluation.
  // The sweep prices only the tiles its Talg floors cannot rule out
  // (model::TalgFloor, Session::sweep_model), so it holds no Talg for
  // the rest of the space.
  std::vector<double> candidate_talg;
};

// --- Strategy comparison (Figs 5 and 6) ------------------------------

struct StrategyComparison {
  std::string device;
  std::string stencil;
  stencil::ProblemSize problem;

  EvaluatedPoint hhc_default;    // untuned compiler defaults
  EvaluatedPoint talg_min;       // the single model-optimal point
  EvaluatedPoint baseline_best;  // best of the Section 5.1 baseline set
  EvaluatedPoint within10_best;  // best of the within-10 % candidates
  EvaluatedPoint exhaustive;     // best over the entire feasible space

  std::size_t candidates_tried = 0;  // size of the within-10 % set
  std::size_t space_size = 0;

  friend bool operator==(const StrategyComparison&,
                         const StrategyComparison&) = default;
};

struct CompareOptions {
  EnumOptions enumeration;
  double delta = 0.10;
  // The exhaustive-search pass is expensive; cap the number of points
  // it measures (0 = no cap). Points are subsampled deterministically.
  std::size_t exhaustive_cap = 400;
  std::size_t baseline_count = 85;

  // Builder-style setters.
  CompareOptions& with_enumeration(const EnumOptions& e) {
    enumeration = e;
    return *this;
  }
  CompareOptions& with_delta(double d) noexcept { delta = d; return *this; }
  CompareOptions& with_exhaustive_cap(std::size_t c) noexcept {
    exhaustive_cap = c;
    return *this;
  }
  CompareOptions& with_baseline_count(std::size_t c) noexcept {
    baseline_count = c;
    return *this;
  }

  // Funnel every complaint through the SL-code diagnostics engine:
  // SL312 for a delta that is not a finite non-negative fraction or a
  // baseline_count of zero, plus everything EnumOptions::validate
  // reports (SL310/SL312). The throwing form raises
  // std::invalid_argument with the first error's "[SLxxx] ..." text.
  void validate(analysis::DiagnosticEngine& eng) const;
  void validate() const;
};

// --- Heuristic solver (the Bonmin stand-in, Section 6.1) -------------

struct SolverResult {
  hhc::TileSizes ts;
  double talg = 0.0;
  int evaluations = 0;
};

// Simulated annealing over the (continuousized) feasible space; like
// the paper's off-the-shelf solvers it finds a decent but generally
// sub-optimal point.
SolverResult anneal_talg(const model::ModelInputs& in,
                         const stencil::ProblemSize& p,
                         const EnumOptions& bounds, std::uint64_t seed = 1,
                         int iterations = 400);

}  // namespace repro::tuner
