// Reproduces the Section 8 discussion: "a large part of the time and
// effort of conducting our experiments was the code generation
// effort... We are therefore also exploring the use of parametric
// tiled code generation... The trade-off this brings between code
// efficiency and compilation time is the subject of our ongoing
// research."
//
// This bench quantifies that trade-off on the simulated testbed:
//
//   * fixed-size codegen — one compile per (tile, thread) data point
//     (the paper's setup; "for some of the points this ran into
//     several tens of seconds"), best runtime performance;
//   * parametric codegen — a single compile, ~15% slower kernels
//     (no unrolling/specialization), zero register spills.
//
// Output: tuning cost (compiles + measurement runs) and production
// runtime for both, plus the break-even number of production runs.
//
// Flags: --compile-seconds=30 --device=... --stencil=Heat2D --full
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "gpusim/microbench.hpp"
#include "tuner/session.hpp"

using namespace repro;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bench::Scale scale = bench::Scale::from_args(args);
  const double compile_s = args.get_double_or("compile-seconds", 30.0);
  const auto& dev = bench::gpu_device_or_die(args.get_or("device", "GTX 980"));
  const gpusim::DeviceParams param_dev =
      gpusim::parametric_codegen_variant(dev);

  std::cout << "=== Section 8: fixed-size vs parametric tile code "
               "generation ===\n"
            << "assumed compile time per fixed-size data point: " << compile_s
            << " s\n\n";

  AsciiTable t({"Benchmark", "candidates", "fixed compiles", "fixed tuning",
                "param tuning", "fixed best [s]", "param best [s]",
                "runtime loss", "break-even runs"});

  for (const auto kind : stencil::paper_2d_benchmarks()) {
    const auto& def = stencil::get_stencil(kind);
    const stencil::ProblemSize p{
        .dim = 2,
        .S = {args.get_int_or("S", 8192), args.get_int_or("S", 8192), 0},
        .T = args.get_int_or("T", 4096)};

    const model::ModelInputs in = gpusim::calibrate_model(dev, def);
    tuner::EnumOptions opt;
    opt.tT_max = scale.full ? 48 : 24;
    opt.tS1_max = scale.full ? 64 : 32;
    opt.tS1_step = scale.full ? 2 : 4;
    const auto space = tuner::enumerate_feasible(2, in.hw, opt);
    tuner::Session fixed(tuner::TuningContext::with_inputs(dev, def, p, in),
                         tuner::SessionOptions{}.with_jobs(scale.jobs));
    tuner::Session param(
        tuner::TuningContext::with_inputs(param_dev, def, p, in),
        tuner::SessionOptions{}.with_jobs(scale.jobs));
    const tuner::ModelSweep sweep = fixed.sweep_model(space, 0.10);

    const std::size_t thread_cfgs = tuner::default_thread_configs(2).size();

    // Evaluate the candidate set on both machines.
    const tuner::EvaluatedPoint best_fixed = fixed.best_tile(sweep.candidates);
    const tuner::EvaluatedPoint param_best = param.best_tile(sweep.candidates);
    if (!best_fixed.feasible || !param_best.feasible) continue;
    const double best_param = param_best.texec;

    // Tuning cost: fixed-size compiles one program per (tile, thread)
    // data point and runs each 5 times; parametric compiles once.
    const std::size_t points = sweep.candidates.size() * thread_cfgs;
    const double fixed_tuning =
        static_cast<double>(points) * compile_s +
        static_cast<double>(points) * 5.0 * best_fixed.texec;
    const double param_tuning =
        compile_s + static_cast<double>(points) * 5.0 * best_param;

    // Break-even: after how many production runs does paying the
    // fixed-size tuning cost win overall?
    const double per_run_loss = best_param - best_fixed.texec;
    const double tuning_delta = fixed_tuning - param_tuning;
    const double break_even =
        per_run_loss > 0.0 ? tuning_delta / per_run_loss : 0.0;

    t.add_row({def.name, std::to_string(sweep.candidates.size()),
               std::to_string(points),
               AsciiTable::fmt(fixed_tuning / 3600.0, 2) + " h",
               AsciiTable::fmt(param_tuning / 3600.0, 2) + " h",
               AsciiTable::fmt(best_fixed.texec, 2),
               AsciiTable::fmt(best_param, 2),
               AsciiTable::fmt_pct(best_param / best_fixed.texec - 1.0),
               AsciiTable::fmt(break_even, 0)});
  }
  std::cout << t.render();
  std::cout << "\nParametric code tunes orders of magnitude cheaper but "
               "every production run pays the efficiency loss; the last "
               "column is the run count where fixed-size codegen pays off.\n";
  return 0;
}
