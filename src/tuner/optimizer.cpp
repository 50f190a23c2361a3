#include "tuner/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "analysis/legality.hpp"
#include "common/rng.hpp"
#include "hhc/footprint.hpp"

namespace repro::tuner {

double model_talg_or_inf(const model::ModelInputs& in,
                         const stencil::ProblemSize& p,
                         const hhc::TileSizes& ts) {
  // Same Eqn 31 feasibility the enumerator and stencil-lint use —
  // infeasible points price as +inf instead of being modeled.
  if (!analysis::eqn31_feasible(p.dim, ts, in.hw, in.radius)) {
    return std::numeric_limits<double>::infinity();
  }
  return model::talg_auto_k(in, p, ts).talg;
}

void validate_sweep_delta(double delta, analysis::DiagnosticEngine& eng) {
  if (!std::isfinite(delta) || delta < 0.0) {
    eng.error(analysis::Code::kSweepDelta,
              "model-sweep delta must be a finite fraction >= 0, got " +
                  std::to_string(delta) +
                  " (a negative or non-finite delta silently selects an "
                  "empty candidate set)");
  }
}

void validate_sweep_delta(double delta) {
  analysis::DiagnosticEngine eng;
  validate_sweep_delta(delta, eng);
  for (const analysis::Diagnostic& d : eng.diagnostics()) {
    if (d.severity == analysis::Severity::kError) {
      throw std::invalid_argument(
          std::string("[") + std::string(analysis::code_name(d.code)) + "] " +
          d.message);
    }
  }
}

void validate_incumbent_seed(double seed, analysis::DiagnosticEngine& eng) {
  if (std::isnan(seed) || seed < 0.0) {
    eng.error(analysis::Code::kIncumbentSeed,
              "incumbent seed must be a non-negative number, got " +
                  std::to_string(seed) +
                  " (NaN disables the cutoff silently; a negative seed "
                  "prunes every point, the true argmin included)");
  }
}

void validate_incumbent_seed(double seed) {
  analysis::DiagnosticEngine eng;
  validate_incumbent_seed(seed, eng);
  for (const analysis::Diagnostic& d : eng.diagnostics()) {
    if (d.severity == analysis::Severity::kError) {
      throw std::invalid_argument(
          std::string("[") + std::string(analysis::code_name(d.code)) + "] " +
          d.message);
    }
  }
}

void CompareOptions::validate(analysis::DiagnosticEngine& eng) const {
  validate_sweep_delta(delta, eng);
  if (baseline_count == 0) {
    eng.error(analysis::Code::kOptionRange,
              "CompareOptions.baseline_count must be >= 1 (the baseline "
              "strategy needs at least one tile size)");
  }
  enumeration.validate(eng);
}

void CompareOptions::validate() const {
  analysis::DiagnosticEngine eng;
  validate(eng);
  for (const analysis::Diagnostic& d : eng.diagnostics()) {
    if (d.severity == analysis::Severity::kError) {
      throw std::invalid_argument(
          std::string("[") + std::string(analysis::code_name(d.code)) + "] " +
          d.message);
    }
  }
}

SolverResult anneal_talg(const model::ModelInputs& in,
                         const stencil::ProblemSize& p,
                         const EnumOptions& bounds, std::uint64_t seed,
                         int iterations) {
  bounds.validate();  // the neighbor moves divide by steps
  Rng rng(seed);
  const int dim = p.dim;

  auto clamp_even = [](std::int64_t v, std::int64_t lo, std::int64_t hi) {
    v = std::clamp(v, lo, hi);
    if (v % 2 != 0) ++v;
    return std::clamp(v, lo, hi);
  };
  auto random_point = [&] {
    hhc::TileSizes ts;
    ts.tT = clamp_even(2 * rng.uniform_int(1, bounds.tT_max / 2), 2,
                       bounds.tT_max);
    ts.tS1 = rng.uniform_int(1, bounds.tS1_max);
    if (dim >= 2) {
      ts.tS2 = bounds.tS2_step *
               rng.uniform_int(1, bounds.tS2_max / bounds.tS2_step);
    }
    if (dim >= 3) {
      ts.tS3 = bounds.tS3_step *
               rng.uniform_int(1, bounds.tS3_max / bounds.tS3_step);
    }
    return ts;
  };

  SolverResult best;
  best.ts = random_point();
  best.talg = model_talg_or_inf(in, p, best.ts);
  hhc::TileSizes cur = best.ts;
  double cur_v = best.talg;

  for (int it = 0; it < iterations; ++it) {
    ++best.evaluations;
    // Neighbor move: perturb one coordinate.
    hhc::TileSizes nxt = cur;
    switch (rng.next_below(static_cast<std::uint64_t>(dim) + 1)) {
      case 0:
        nxt.tT = clamp_even(cur.tT + 2 * rng.uniform_int(-2, 2), 2,
                            bounds.tT_max);
        break;
      case 1:
        nxt.tS1 = std::clamp<std::int64_t>(cur.tS1 + rng.uniform_int(-4, 4),
                                           1, bounds.tS1_max);
        break;
      case 2:
        nxt.tS2 = std::clamp<std::int64_t>(
            cur.tS2 + bounds.tS2_step * rng.uniform_int(-1, 1),
            bounds.tS2_step, bounds.tS2_max);
        break;
      default:
        nxt.tS3 = std::clamp<std::int64_t>(
            cur.tS3 + bounds.tS3_step * rng.uniform_int(-1, 1),
            bounds.tS3_step, bounds.tS3_max);
        break;
    }
    const double v = model_talg_or_inf(in, p, nxt);
    const double temp =
        1.0 - static_cast<double>(it) / static_cast<double>(iterations);
    const bool accept =
        v < cur_v ||
        (std::isfinite(v) &&
         rng.next_double() < std::exp(-(v - cur_v) / (cur_v * 0.05 * temp +
                                                      1e-30)));
    if (accept) {
      cur = nxt;
      cur_v = v;
      if (v < best.talg) {
        best.talg = v;
        best.ts = nxt;
      }
    }
    // Occasional restart keeps the solver honest about local minima.
    if (it % 97 == 96) {
      cur = random_point();
      cur_v = model_talg_or_inf(in, p, cur);
    }
  }
  return best;
}

}  // namespace repro::tuner
