// Pricing-throughput benchmark for the two-stage tile-cost pipeline:
// the Section 7 empirical thread-count step (best_over_threads) over a
// sample of tiles, timed in points per second on two arms:
//
//   * scalar  — the reference: the public scalar API, one
//               TileCostProfile::build per tile and one
//               measure_best_of per thread config, folded like
//               Session::sweep_tile;
//   * session — a fresh tuner::Session, which bounds and prunes the
//               thread sweep, steps profiles incrementally along tS2
//               and prices each surviving point against its tile's
//               profile.
//
// The Session arm must reproduce the reference bit for bit
// (`batch.results_identical`); CI gates on that and compares the
// Session arm's points/sec (`batch.points_per_sec`) against
// bench/baseline/BENCH_gpusim.json. `batch.speedup`, the Session arm
// over the reference, is reported, not gated.
//
// Emits BENCH_gpusim.json into --csv-dir (default bench/out/).
// Default scale is a smoke run sized for CI; --full runs paper-scale
// problems. Both arms run at jobs=1 so the comparison isolates the
// pricing path from thread-pool parallelism; --jobs is only recorded.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "gpusim/cost_profile.hpp"
#include "gpusim/microbench.hpp"
#include "gpusim/timing.hpp"
#include "tuner/session.hpp"

using namespace repro;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bench::Scale scale = bench::Scale::from_args(args);
  const auto& dev = bench::gpu_device_or_die(args.get_or("device", "GTX 980"));
  const auto& def =
      stencil::get_stencil_by_name(args.get_or("stencil", "Heat2D"));
  // The time dimension drives the schedule-walk cost (rows ~ T/tT)
  // while closed-form pricing is O(classes) and nearly T-independent,
  // so longer time horizons are exactly where the two-stage split
  // pays; T = 8192 matches the paper's Fig. 5 horizon and keeps the
  // smoke run in single-digit milliseconds per arm.
  const stencil::ProblemSize p =
      scale.full ? stencil::ProblemSize{.dim = 2, .S = {8192, 8192, 0},
                                        .T = 16384}
                 : stencil::ProblemSize{.dim = 2, .S = {4096, 4096, 0},
                                        .T = 8192};

  const model::ModelInputs in = gpusim::calibrate_model(dev, def);
  const tuner::EnumOptions opt = tuner::EnumOptions{}
                                     .with_tT_max(scale.full ? 64 : 32)
                                     .with_tS1_max(scale.full ? 96 : 48)
                                     .with_tS2_max(scale.full ? 512 : 256);
  const std::vector<hhc::TileSizes> space =
      tuner::enumerate_feasible(2, in.hw, opt, def.radius);

  // Deterministic tile sample, fig5-shaped: a few (tT, tS1) columns
  // swept along tS2 — the slice real tuning sweeps (fig4, fig5,
  // best_tile) walk, and the shape the Session's incremental
  // profile rebuild (build_step) is designed for. The columns are
  // spread across the feasible space by stride.
  const std::size_t n_cols = scale.full ? 8 : 4;
  const std::size_t per_col = scale.full ? 8 : 4;
  const std::size_t n_tiles = n_cols * per_col;
  std::vector<hhc::TileSizes> tiles;
  {
    std::vector<std::pair<std::int64_t, std::int64_t>> cols;
    const std::size_t stride =
        space.size() > n_tiles ? space.size() / n_tiles : 1;
    for (std::size_t i = 0; i < space.size() && tiles.size() < n_tiles;
         ++i) {
      const std::pair<std::int64_t, std::int64_t> col{space[i].tT,
                                                      space[i].tS1};
      const auto it = std::find(cols.begin(), cols.end(), col);
      if (it == cols.end()) {
        // Start a new column on stride boundaries only, so the
        // sample spans the space instead of its first corner.
        if (cols.size() >= n_cols || i % stride != 0) continue;
        cols.push_back(col);
      }
      std::size_t taken = 0;
      for (const auto& ts : tiles) {
        if (ts.tT == col.first && ts.tS1 == col.second) ++taken;
      }
      if (taken < per_col) tiles.push_back(space[i]);
    }
  }
  const auto threads = tuner::default_thread_configs(2);
  const std::size_t points = tiles.size() * threads.size();

  std::cout << "=== pricing throughput: " << def.name << " " << p.to_string()
            << " on " << dev.name << " ===\n"
            << "feasible space: " << space.size() << " tile sizes; "
            << tiles.size() << " sampled, " << threads.size()
            << " thread configs each\n";

  // One pass is ~1 ms, so each arm is timed as the median of 7
  // alternating passes rather than by a single scheduler-noisy pass.
  std::vector<tuner::EvaluatedPoint> scalar_best;
  std::vector<tuner::EvaluatedPoint> session_best;
  std::optional<tuner::Session> b;
  const std::vector<bench::Arm> arms = {
      {"best_over_threads_scalar",
       [&] {
         // Talg + measure_best_of against the tile's profile, folded
         // like Session::sweep_tile: thread configs in order, first
         // strictly better point wins.
         for (const auto& ts : tiles) {
           const gpusim::TileCostProfile prof =
               gpusim::TileCostProfile::build(p, ts, def.radius);
           tuner::EvaluatedPoint best;
           for (const auto& thr : threads) {
             const gpusim::SimResult r =
                 gpusim::measure_best_of(dev, def, p, ts, thr, prof);
             if (r.feasible && (!best.feasible || r.seconds < best.texec)) {
               best = {tuner::DataPoint{ts, thr},
                       tuner::model_talg_or_inf(in, p, ts), r.seconds,
                       r.gflops, true};
             }
           }
           scalar_best.push_back(best);
         }
       },
       1, [&] { scalar_best.clear(); }},
      {"best_over_threads_session",
       [&] {
         for (const auto& ts : tiles) {
           session_best.push_back(b->best_over_threads(ts));
         }
       },
       1,
       // A fresh session per pass, so nothing is cached.
       [&] {
         b.emplace(tuner::TuningContext::with_inputs(dev, def, p, in),
                   tuner::SessionOptions{}.with_jobs(1));
         session_best.clear();
       }},
  };
  const std::vector<bench::ArmTiming> timed =
      bench::time_arms(arms, /*min_reps=*/7, /*min_seconds=*/0.0);
  bench::print_sweep_stats(std::cout, b->stats(), 1);

  const bench::ArmTiming& scalar = timed[0];
  const bench::ArmTiming& session = timed[1];
  const double pts = static_cast<double>(points);
  const double speedup = scalar.median / session.median;
  const double points_per_sec = pts / session.median;
  const bool results_identical = scalar_best == session_best;

  AsciiTable t({"arm", "points", "median ms", "MAD ms", "points/s"});
  json::Value arm_list = json::Value::array();
  for (const bench::ArmTiming& a : timed) {
    t.add_row({a.name, std::to_string(points),
               AsciiTable::fmt(a.median * 1e3, 3),
               AsciiTable::fmt(a.mad * 1e3, 3),
               AsciiTable::fmt(pts / a.median, 1)});
    json::Value o = json::Value::object();
    o.set("name", a.name);
    o.set("points", points);
    o.set("seconds", a.median);
    o.set("min_seconds", a.min);
    o.set("mad_seconds", a.mad);
    o.set("points_per_sec", pts / a.median);
    arm_list.push_back(std::move(o));
  }
  std::cout << t.render();
  std::cout << "Session pricing: " << AsciiTable::fmt(speedup, 2)
            << "x over the scalar reference, results "
            << (results_identical ? "identical" : "DIVERGED") << "\n";

  json::Value batch = json::Value::object();
  batch.set("speedup", speedup);
  batch.set("points_per_sec", points_per_sec);
  batch.set("results_identical", results_identical);
  json::Value doc = json::Value::object();
  doc.set("bench", "bench_sim_throughput");
  doc.set("mode", scale.full ? "full" : "smoke");
  doc.set("jobs", scale.resolved_jobs());
  doc.set("arms", std::move(arm_list));
  doc.set("batch", std::move(batch));
  const std::string path = scale.csv_dir + "/BENCH_gpusim.json";
  std::ofstream(path) << doc.dump() << "\n";
  std::cout << "wrote " << path << "\n";
  return 0;
}
