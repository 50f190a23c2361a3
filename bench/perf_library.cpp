// google-benchmark micro-benchmarks of the library's own hot paths:
// model evaluation, feasible-space sweeps, schedule construction,
// simulator pricing and tiled functional execution. These guard the
// performance envelope that makes the full-scale Fig. 3/6 sweeps
// tractable on one core.
#include <benchmark/benchmark.h>

#include "gpusim/microbench.hpp"
#include "gpusim/timing.hpp"
#include "hhc/hex_schedule.hpp"
#include "hhc/tiled_executor.hpp"
#include "model/talg.hpp"
#include "stencil/reference.hpp"
#include "tuner/session.hpp"

using namespace repro;

namespace {

const stencil::StencilDef& heat2d() {
  return stencil::get_stencil(stencil::StencilKind::kHeat2D);
}

model::ModelInputs cached_inputs() {
  static const model::ModelInputs in =
      gpusim::calibrate_model(gpusim::gtx980(), heat2d());
  return in;
}

void BM_ModelTalg2D(benchmark::State& state) {
  const model::ModelInputs in = cached_inputs();
  const stencil::ProblemSize p{.dim = 2, .S = {8192, 8192, 0}, .T = 8192};
  const hhc::TileSizes ts{.tT = 16, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::talg_auto_k(in, p, ts).talg);
  }
}
BENCHMARK(BM_ModelTalg2D);

void BM_ModelSweepSpace(benchmark::State& state) {
  const model::ModelInputs in = cached_inputs();
  const stencil::ProblemSize p{.dim = 2, .S = {8192, 8192, 0}, .T = 8192};
  tuner::EnumOptions opt;
  opt.tS1_step = 4;
  const auto space = tuner::enumerate_feasible(2, in.hw, opt);
  tuner::Session session(
      tuner::TuningContext::with_inputs(gpusim::gtx980(), heat2d(), p, in),
      tuner::SessionOptions{}.with_jobs(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.sweep_model(space, 0.10).talg_min);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_ModelSweepSpace);

void BM_HexScheduleConstruction(benchmark::State& state) {
  for (auto _ : state) {
    const hhc::HexSchedule sched(8192, 8192, 16, 16);
    benchmark::DoNotOptimize(sched.num_rows());
  }
}
BENCHMARK(BM_HexScheduleConstruction);

void BM_HexTileShape(benchmark::State& state) {
  const hhc::HexSchedule sched(8192, 8192, 16, 16);
  std::int64_t r = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.shape(r, 5).input_footprint());
    r = (r % 100) + 1;
  }
}
BENCHMARK(BM_HexTileShape);

void BM_SimulatePaperScale(benchmark::State& state) {
  // One full timing simulation of an 8192^2 x 8192 problem — the cost
  // that every data point of the Fig. 3 sweep pays.
  const stencil::ProblemSize p{.dim = 2, .S = {8192, 8192, 0}, .T = 8192};
  const hhc::TileSizes ts{.tT = static_cast<std::int64_t>(state.range(0)),
                          .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const hhc::ThreadConfig thr{.n1 = 32, .n2 = 8, .n3 = 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gpusim::simulate_time(gpusim::gtx980(), heat2d(), p, ts, thr).seconds);
  }
}
BENCHMARK(BM_SimulatePaperScale)->Arg(2)->Arg(8)->Arg(32);

void BM_TiledFunctionalExecution(benchmark::State& state) {
  // Numeric execution throughput of the tiled executor (points/s).
  const stencil::ProblemSize p{.dim = 2, .S = {128, 128, 0}, .T = 32};
  const hhc::TileSizes ts{.tT = 8, .tS1 = 8, .tS2 = 16, .tS3 = 1};
  const auto init = stencil::make_initial_grid(p, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hhc::run_tiled(heat2d(), p, ts, init));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          p.total_points());
}
BENCHMARK(BM_TiledFunctionalExecution);

void BM_ReferenceExecution(benchmark::State& state) {
  const stencil::ProblemSize p{.dim = 2, .S = {128, 128, 0}, .T = 32};
  const auto init = stencil::make_initial_grid(p, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stencil::run_reference(heat2d(), p, init));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          p.total_points());
}
BENCHMARK(BM_ReferenceExecution);

void BM_MeasureCiter(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gpusim::measure_citer(gpusim::gtx980(), heat2d(), 10));
  }
}
BENCHMARK(BM_MeasureCiter);

}  // namespace

BENCHMARK_MAIN();
