// Reproduces the Section 6.1 observation: off-the-shelf non-linear
// solvers (the paper used AMPL + Bonmin) produce "relatively good but
// sub-optimal" tile sizes, while the small 3-variable space makes
// exhaustive enumeration both practical and exact. Our stand-in for
// Bonmin is a simulated-annealing solver over the same objective.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "gpusim/microbench.hpp"
#include "tuner/session.hpp"

using namespace repro;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bench::Scale scale = bench::Scale::from_args(args);
  const int iters = static_cast<int>(
      args.get_int_or("iters", scale.full ? 2000 : 400));

  tuner::EnumOptions opt;
  opt.tT_max = 32;
  opt.tS1_max = 64;
  opt.tS2_max = 384;

  std::cout << "=== Section 6.1: heuristic solver vs exhaustive enumeration "
               "(objective = Talg) ===\n";
  AsciiTable t({"Device", "Benchmark", "enum Talg_min [s]", "solver Talg [s]",
                "solver gap", "enum points", "solver evals"});

  for (const auto* dev : bench::devices(scale)) {
    for (const auto kind : stencil::paper_2d_benchmarks()) {
      const auto& def = stencil::get_stencil(kind);
      const stencil::ProblemSize p{.dim = 2, .S = {8192, 8192, 0}, .T = 4096};
      const model::ModelInputs in = gpusim::calibrate_model(*dev, def);
      tuner::Session session(
          tuner::TuningContext::with_inputs(*dev, def, p, in),
          tuner::SessionOptions{}.with_jobs(scale.jobs));
      const auto space = tuner::enumerate_feasible(2, in.hw, opt);
      const tuner::ModelSweep sweep = session.sweep_model(space, 0.10);
      const tuner::SolverResult sol = session.anneal_talg(opt, 17, iters);
      const double gap = sol.talg / sweep.talg_min - 1.0;
      t.add_row({dev->name, def.name, AsciiTable::fmt_sci(sweep.talg_min, 3),
                 AsciiTable::fmt_sci(sol.talg, 3), AsciiTable::fmt_pct(gap),
                 std::to_string(space.size()),
                 std::to_string(sol.evaluations)});
    }
  }
  std::cout << t.render();
  std::cout << "\nExhaustive enumeration never loses; the heuristic solver's "
               "gap mirrors the paper's 'somewhat disappointing' Bonmin "
               "experience.\n";
  return 0;
}
