// Micro-benchmarks of the library's own hot paths: model evaluation,
// feasible-space enumeration and sweeps, one whole pipeline plan and
// its two output layers (payload and canonical key),
// schedule construction, simulator pricing
// (whole, and per layer: profile build, bounds-only build, histograms,
// step, lower bound, the pricing fold, cold session sweep of one
// tile, the floor pass of a cold request), whole cold best_tile and
// compare requests, and
// tiled functional execution. These guard the
// performance envelope that makes the full-scale Fig. 3/6 sweeps
// tractable on one core.
//
// The arms run round-robin through bench::time_arms for at least 5
// passes and 1 s; each sample times a fixed number of calls, sized to
// take a few milliseconds, and the table reports the min, median and
// MAD of the per-call time over the samples.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "device/registry.hpp"
#include "gpusim/cost_profile.hpp"
#include "gpusim/lower_bound.hpp"
#include "gpusim/microbench.hpp"
#include "gpusim/timing.hpp"
#include "hhc/hex_schedule.hpp"
#include "hhc/tiled_executor.hpp"
#include "model/talg.hpp"
#include "pipeline/planner.hpp"
#include "service/protocol.hpp"
#include "stencil/reference.hpp"
#include "tuner/session.hpp"
#include "tuner/space.hpp"

using namespace repro;

namespace {

const stencil::StencilDef& heat2d() {
  return stencil::get_stencil(stencil::StencilKind::kHeat2D);
}

// The shipped 3-level V-cycle (examples/pipelines/vcycle3.json).
std::string vcycle3_text() {
  std::ifstream in(std::filesystem::path(REPRO_SOURCE_DIR) / "examples" /
                   "pipelines" / "vcycle3.json");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

pipeline::Pipeline vcycle3() {
  analysis::DiagnosticEngine diags;
  std::optional<pipeline::Pipeline> p =
      pipeline::parse_pipeline_text(vcycle3_text(), diags);
  if (!p) {
    throw std::runtime_error("cannot read examples/pipelines/vcycle3.json: " +
                             analysis::render_human(diags.diagnostics()));
  }
  return *p;
}

// The service's pipeline request for vcycle3 on the GTX 980.
service::Request vcycle3_request() {
  std::string line = R"({"v":1,"kind":"pipeline","device":"GTX 980",)";
  line += "\"pipeline\":";
  line += vcycle3_text();
  line += "}";
  analysis::DiagnosticEngine diags;
  std::optional<service::Request> req = service::parse_request(line, diags);
  if (!req) {
    throw std::runtime_error("vcycle3 request rejected: " +
                             analysis::render_human(diags.diagnostics()));
  }
  return *req;
}

// Per-call time in a readable unit.
std::string fmt_time(double seconds) {
  if (seconds < 1e-6) return AsciiTable::fmt(seconds * 1e9, 1) + " ns";
  if (seconds < 1e-3) return AsciiTable::fmt(seconds * 1e6, 2) + " us";
  return AsciiTable::fmt(seconds * 1e3, 3) + " ms";
}

}  // namespace

int main() {
  const model::ModelInputs in =
      gpusim::calibrate_model(gpusim::gtx980(), heat2d());
  const stencil::ProblemSize big{.dim = 2, .S = {8192, 8192, 0}, .T = 8192};
  const stencil::ProblemSize small{.dim = 2, .S = {128, 128, 0}, .T = 32};

  const hhc::TileSizes talg_ts{.tT = 16, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  const auto space = tuner::enumerate_feasible(
      2, in.hw, tuner::EnumOptions{}.with_tS1_step(4));
  tuner::Session session(
      tuner::TuningContext::with_inputs(gpusim::gtx980(), heat2d(), big, in),
      tuner::SessionOptions{}.with_jobs(1));
  const hhc::HexSchedule sched(8192, 8192, 16, 16);
  std::int64_t r = 3;
  const hhc::ThreadConfig thr{.n1 = 32, .n2 = 8, .n3 = 1};
  const hhc::TileSizes exec_ts{.tT = 8, .tS1 = 8, .tS2 = 16, .tS3 = 1};
  // A pipeline-sized sweep: GTX 980 Jacobi2D 256^2 x 8 over the
  // default space, where the Talg floors rule out most tiles.
  const stencil::StencilDef& jacobi2d =
      stencil::get_stencil(stencil::StencilKind::kJacobi2D);
  const stencil::ProblemSize level{.dim = 2, .S = {256, 256, 0}, .T = 8};
  const model::ModelInputs jacobi_in =
      gpusim::calibrate_model(gpusim::gtx980(), jacobi2d);
  const auto default_space = tuner::enumerate_feasible(2, jacobi_in.hw);
  tuner::Session level_session(
      tuner::TuningContext::with_inputs(gpusim::gtx980(), jacobi2d, level,
                                        jacobi_in),
      tuner::SessionOptions{}.with_jobs(1));
  const pipeline::Pipeline vcycle = vcycle3();
  pipeline::PlanOptions plan_opt;
  plan_opt.session = tuner::SessionOptions{}.with_jobs(1);
  const pipeline::PipelinePlan vcycle_plan =
      pipeline::Planner(*device::registry().find("GTX 980"), plan_opt)
          .plan(vcycle);
  const service::Request vcycle_request = vcycle3_request();
  const auto init = stencil::make_initial_grid(small, 1);

  std::vector<bench::Arm> arms = {
      {"model_talg_2d",
       [&] { bench::keep(model::talg_auto_k(in, big, talg_ts).talg); },
       10000},
      {"model_sweep_space",
       [&] { bench::keep(session.sweep_model(space, 0.10).talg_min); }, 10},
      {"sweep_model_pipeline",
       [&] {
         bench::keep(level_session.sweep_model(default_space, 0.10).talg_min);
       },
       20},
      // The default 2D lattice: ~4.9k feasible tiles.
      {"enumerate_feasible_2d",
       [&] { bench::keep(tuner::enumerate_feasible(2, in.hw).size()); }, 50},
      // One whole plan (calibration, enumeration, model sweeps and
      // machine pricing of every distinct task), as the service's
      // pipeline kind runs it.
      {"plan_vcycle3",
       [&] {
         bench::keep(pipeline::Planner(*device::registry().find("GTX 980"),
                                       plan_opt)
                         .plan(vcycle)
                         .talg);
       },
       2},
      // The output layers of that request in the service: rendering
      // the plan's payload (11 stages, ~5 KB) and writing the request's
      // canonical key (~1.5 KB).
      {"render_plan_vcycle3",
       [&] { bench::keep(pipeline::render_plan(vcycle_plan).size()); }, 2000},
      {"canonical_key_vcycle3",
       [&] { bench::keep(vcycle_request.canonical_key().size()); }, 2000},
      {"hex_schedule_construction",
       [] {
         const hhc::HexSchedule s(8192, 8192, 16, 16);
         bench::keep(s.num_rows());
       },
       200000},
      {"hex_tile_shape",
       [&] {
         bench::keep(sched.shape(r, 5).input_footprint());
         r = (r % 100) + 1;
       },
       20000},
  };
  // One full timing simulation of an 8192^2 x 8192 problem: the cost
  // every data point of the Fig. 3 sweep pays.
  for (const auto& [tT, calls] :
       std::vector<std::pair<std::int64_t, int>>{{2, 10}, {8, 40}, {32, 100}}) {
    const hhc::TileSizes ts{.tT = tT, .tS1 = 16, .tS2 = 64, .tS3 = 1};
    arms.push_back(
        {"simulate_paper_scale/" + std::to_string(tT),
         [&, ts] {
           bench::keep(
               gpusim::simulate_time(gpusim::gtx980(), heat2d(), big, ts, thr)
                   .seconds);
         },
         calls});
  }
  // GPU pricing layer by layer on Heat2D 4096^2: the stage-one profile
  // build at three T (O(classes), so flat in T) — whole, bounds-only,
  // and the histograms added to a bounds-only profile — its
  // incremental (bounds-only) rebuild along tS2, the admissible lower
  // bound, one stage-two pricing of the default thread sweep,
  // and one cold bounded thread sweep through a Session.
  const stencil::ProblemSize heat{.dim = 2, .S = {4096, 4096, 0}, .T = 1024};
  const hhc::TileSizes prof_ts{.tT = 16, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  for (const std::int64_t T : {1024, 8192, 16384}) {
    stencil::ProblemSize pt = heat;
    pt.T = T;
    arms.push_back({"profile_build/T=" + std::to_string(T),
                    [pt, prof_ts] {
                      bench::keep(
                          gpusim::TileCostProfile::build(pt, prof_ts, 1)
                              .total_rows());
                    },
                    2000});
    arms.push_back({"profile_bounds/T=" + std::to_string(T),
                    [pt, prof_ts] {
                      bench::keep(
                          gpusim::TileCostProfile::build_bounds(pt, prof_ts, 1)
                              .total_rows());
                    },
                    2000});
    arms.push_back(
        {"profile_add_histograms/T=" + std::to_string(T),
         [bounds = gpusim::TileCostProfile::build_bounds(pt, prof_ts, 1)] {
           bench::keep(bounds.with_histograms().classes().size());
         },
         2000});
  }
  const gpusim::TileCostProfile prof =
      gpusim::TileCostProfile::build(heat, prof_ts, 1);
  hhc::TileSizes step_ts = prof_ts;
  step_ts.tS2 = 96;
  arms.push_back(
      {"profile_build_step",
       [&] { bench::keep(prof.build_step(step_ts).total_rows()); }, 2000});
  arms.push_back({"lower_bound",
                  [&] {
                    bench::keep(gpusim::lower_bound(gpusim::gtx980(), heat2d(),
                                                    heat, prof_ts, thr, prof)
                                    .seconds);
                  },
                  20000});
  // The GPU pricing fold on one prebuilt profile over the ten default
  // thread configs: one measure_best_of per point, as the Session
  // prices.
  const std::vector<hhc::ThreadConfig> sweep = tuner::default_thread_configs(2);
  std::vector<gpusim::SimResult> swept(sweep.size());
  arms.push_back({"fold/10thr",
                  [&] {
                    for (std::size_t j = 0; j < sweep.size(); ++j) {
                      swept[j] = gpusim::measure_best_of(
                          gpusim::gtx980(), heat2d(), heat, prof_ts, sweep[j],
                          prof);
                    }
                    bench::keep(swept.front().seconds);
                  },
                  500});
  // A cold bounded sweep of one tile: the incumbent seed makes every
  // thread config go through the bound gate, and clear_cache() drops
  // the tile's record so each call builds its profile again.
  tuner::Session cold(
      tuner::TuningContext::with_inputs(gpusim::gtx980(), heat2d(), heat, in),
      tuner::SessionOptions{}.with_jobs(1));
  const double seed_texec = cold.best_over_threads(prof_ts).texec;
  const hhc::TileSizes cold_ts{.tT = 12, .tS1 = 16, .tS2 = 64, .tS3 = 1};
  arms.push_back({"sweep_tile_cold",
                  [&] {
                    cold.clear_cache();
                    bench::keep(
                        cold.best_tile({&cold_ts, 1}, {}, {}, seed_texec)
                            .feasible);
                  },
                  2000});
  // Whole cold requests on Heat2D 4096^2 x 1024 at one job, as the
  // service runs them: best_tile over a model sweep's candidates on
  // the GPU and on the Xeon descriptor, and a GPU and a CPU strategy
  // comparison (enumeration and model sweep included). clear_cache()
  // drops every tile record, so each call bounds and prices from
  // scratch.
  const device::Descriptor& xeon = *device::registry().find("Xeon E5-2690 v4");
  tuner::Session gpu_req(
      tuner::TuningContext::with_inputs(gpusim::gtx980(), heat2d(), heat, in),
      tuner::SessionOptions{}.with_jobs(1));
  tuner::Session cpu_req(tuner::TuningContext::calibrate(xeon, heat2d(), heat),
                         tuner::SessionOptions{}.with_jobs(1));
  const tuner::ModelSweep gpu_sweep =
      gpu_req.sweep_model(tuner::enumerate_feasible(2, in.hw), 0.10);
  const auto cpu_space = tuner::enumerate_feasible(2, cpu_req.inputs().hw);
  const tuner::ModelSweep cpu_sweep = cpu_req.sweep_model(cpu_space, 0.10);
  // The CPU model sweep of those requests over the default space,
  // which keeps thousands of tiles within the cut.
  arms.push_back({"sweep_model_cpu",
                  [&] {
                    bench::keep(cpu_req.sweep_model(cpu_space, 0.10).talg_min);
                  },
                  2});
  arms.push_back({"best_tile_gpu_2d",
                  [&] {
                    gpu_req.clear_cache();
                    bench::keep(gpu_req.best_tile(gpu_sweep).texec);
                  },
                  5});
  arms.push_back({"best_tile_cpu_2d",
                  [&] {
                    cpu_req.clear_cache();
                    bench::keep(cpu_req.best_tile(cpu_sweep).texec);
                  },
                  5});
  // The floor pass of those two requests alone: Session::tile_floors
  // over each sweep's candidate list (no record is read or kept).
  arms.push_back({"tile_floors_gpu_2d",
                  [&] {
                    bench::keep(
                        gpu_req.tile_floors(gpu_sweep.candidates).size());
                  },
                  10});
  arms.push_back({"tile_floors_cpu_2d",
                  [&] {
                    bench::keep(
                        cpu_req.tile_floors(cpu_sweep.candidates).size());
                  },
                  10});
  arms.push_back({"compare_gpu_2d",
                  [&] {
                    gpu_req.clear_cache();
                    bench::keep(gpu_req.compare_strategies().exhaustive.texec);
                  },
                  2});
  arms.push_back({"compare_cpu_2d",
                  [&] {
                    cpu_req.clear_cache();
                    bench::keep(cpu_req.compare_strategies().exhaustive.texec);
                  },
                  2});
  // Numeric execution throughput of the tiled and reference executors.
  arms.push_back({"tiled_functional_execution", [&] {
                    bench::keep(hhc::run_tiled(heat2d(), small, exec_ts, init));
                  }});
  arms.push_back({"reference_execution", [&] {
                    bench::keep(stencil::run_reference(heat2d(), small, init));
                  }});
  arms.push_back({"measure_citer",
                  [] {
                    bench::keep(
                        gpusim::measure_citer(gpusim::gtx980(), heat2d(), 10));
                  },
                  40});

  // Items per second for the arms whose work is a point count.
  const auto items = [&](const std::string& name) -> double {
    if (name == "model_sweep_space") return static_cast<double>(space.size());
    if (name == "sweep_model_pipeline") {
      return static_cast<double>(default_space.size());
    }
    if (name == "sweep_model_cpu") return static_cast<double>(cpu_space.size());
    if (name.starts_with("fold/")) return static_cast<double>(sweep.size());
    if (name == "tiled_functional_execution" || name == "reference_execution") {
      return static_cast<double>(small.total_points());
    }
    return 0.0;
  };

  AsciiTable t({"arm", "samples", "min", "median", "MAD", "items/s"});
  for (const bench::ArmTiming& a :
       bench::time_arms(arms, /*min_reps=*/5, /*min_seconds=*/1.0)) {
    const double n = items(a.name);
    t.add_row({a.name, std::to_string(a.samples.size()), fmt_time(a.min),
               fmt_time(a.median), fmt_time(a.mad),
               n > 0.0 ? AsciiTable::fmt(n / a.median, 0) : "-"});
  }
  std::cout << "=== library hot paths: per-call time ===\n" << t.render();
  return 0;
}
