// Simulator-throughput benchmark for the two-stage tile-cost
// pipeline. Three sweep shapes are timed in points per second:
//
//   * model sweep      — Talg over the feasible space (pure model),
//   * machine sweep    — every (tile, thread) point through a Session,
//   * best_over_threads — the Section 7 empirical thread-count step.
//
// best_over_threads runs twice, serially: a "scalar" reference arm
// (the public scalar API — one TileCostProfile::build per tile, one
// measure_best_of per thread config, folded like Session::sweep_tile)
// and the "batched" arm (a tuner::Session, whose SoA pricing path
// prices a whole thread sweep per tile in one measure_best_of_batch
// fold and steps profiles incrementally along tS2). The batched arm's
// speedup over the reference, with bitwise-identical results, is the
// acceptance metric of the batch pipeline. A fig6-shaped strategy
// comparison over the variant-extended space (all six kernel
// variants) rounds out the headline arms.
//
// Emits BENCH_gpusim.json into --csv-dir (default bench/out/).
// Default scale is a smoke run sized for CI; --full runs paper-scale
// problems. --jobs=N sets the worker count of the model/machine sweep
// and search arms; the best_over_threads arms run at jobs=1 so the
// comparison stays apples-to-apples.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "gpusim/cost_profile.hpp"
#include "gpusim/microbench.hpp"
#include "gpusim/timing.hpp"
#include "tuner/session.hpp"

using namespace repro;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ArmResult {
  std::string name;
  std::size_t points = 0;
  double seconds = 0.0;

  double pts_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
  }
};

// The bound-and-prune A/B: one fig6-shaped strategy comparison run
// with pruning off, then on. Results must match exactly; the point
// counts are the acceptance metric (>= 2x fewer simulator pricings).
struct PruningReport {
  std::size_t machine_points_unpruned = 0;
  std::size_t machine_points_pruned = 0;
  std::size_t points_pruned = 0;
  double bound_seconds = 0.0;
  bool results_identical = false;

  double reduction() const {
    return machine_points_pruned > 0
               ? static_cast<double>(machine_points_unpruned) /
                     static_cast<double>(machine_points_pruned)
               : 0.0;
  }
};

// The batched-pricing A/B: the best_over_threads sweep run through
// the public scalar API, then through the Session's SoA batch path.
// Results must match exactly; the speedup is the acceptance metric.
struct BatchReport {
  double speedup = 0.0;
  double points_per_sec = 0.0;
  bool results_identical = false;
};

// The warm-start A/B: the same best_tile sweep run cold (no seed) and
// warm (seeded with the best point a donor session found on an
// adjacent problem size — exactly what the service's similarity index
// supplies). Results must match exactly; the pruned-fraction increase
// is the acceptance metric.
struct WarmstartReport {
  std::size_t machine_points_cold = 0;
  std::size_t points_pruned_cold = 0;
  std::size_t machine_points_warm = 0;
  std::size_t points_pruned_warm = 0;
  std::size_t seeds_admitted = 0;
  bool results_identical = false;

  static double fraction(std::size_t machine, std::size_t pruned) {
    const std::size_t total = machine + pruned;
    return total > 0 ? static_cast<double>(pruned) /
                           static_cast<double>(total)
                     : 0.0;
  }
  double fraction_cold() const {
    return fraction(machine_points_cold, points_pruned_cold);
  }
  double fraction_warm() const {
    return fraction(machine_points_warm, points_pruned_warm);
  }
};

void emit_json(const std::string& path, const std::vector<ArmResult>& arms,
               const std::vector<std::pair<std::string, double>>& speedups,
               const PruningReport& pr, const BatchReport& br,
               const WarmstartReport& wr, int jobs, bool full) {
  std::ofstream os(path);
  os << "{\n  \"bench\": \"bench_sim_throughput\",\n"
     << "  \"mode\": \"" << (full ? "full" : "smoke") << "\",\n"
     << "  \"jobs\": " << jobs << ",\n  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    os << "    {\"name\": \"" << arms[i].name
       << "\", \"points\": " << arms[i].points
       << ", \"seconds\": " << arms[i].seconds
       << ", \"points_per_sec\": " << arms[i].pts_per_sec() << "}"
       << (i + 1 < arms.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"speedups\": {\n";
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    os << "    \"" << speedups[i].first << "\": " << speedups[i].second
       << (i + 1 < speedups.size() ? "," : "") << "\n";
  }
  os << "  },\n  \"batch\": {\n"
     << "    \"speedup\": " << br.speedup
     << ",\n    \"points_per_sec\": " << br.points_per_sec
     << ",\n    \"results_identical\": "
     << (br.results_identical ? "true" : "false") << "\n  },\n"
     << "  \"pruning\": {\n"
     << "    \"machine_points_unpruned\": " << pr.machine_points_unpruned
     << ",\n    \"machine_points_pruned\": " << pr.machine_points_pruned
     << ",\n    \"points_pruned\": " << pr.points_pruned
     << ",\n    \"bound_seconds\": " << pr.bound_seconds
     << ",\n    \"machine_point_reduction\": " << pr.reduction()
     << ",\n    \"results_identical\": "
     << (pr.results_identical ? "true" : "false") << "\n  },\n"
     << "  \"warmstart\": {\n"
     << "    \"machine_points_cold\": " << wr.machine_points_cold
     << ",\n    \"points_pruned_cold\": " << wr.points_pruned_cold
     << ",\n    \"pruned_fraction_cold\": " << wr.fraction_cold()
     << ",\n    \"machine_points_warm\": " << wr.machine_points_warm
     << ",\n    \"points_pruned_warm\": " << wr.points_pruned_warm
     << ",\n    \"pruned_fraction_warm\": " << wr.fraction_warm()
     << ",\n    \"seeds_admitted\": " << wr.seeds_admitted
     << ",\n    \"results_identical\": "
     << (wr.results_identical ? "true" : "false") << "\n  }\n}\n";
}

}  // namespace

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

  // Deterministic machine-arm sample, fig5-shaped: a few (tT, tS1)
  // columns swept along tS2 — the slice real tuning sweeps (fig4,
  // fig5, best_tile) walk, and the shape the batched pipeline's
  // incremental profile rebuild (build_step) is designed for. The
  // columns are spread across the feasible space by stride.
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

  std::cout << "=== simulator throughput: " << def.name << " "
            << p.to_string() << " on " << dev.name << " ===\n"
            << "feasible space: " << space.size() << " tile sizes; "
            << tiles.size() << " sampled for machine arms, "
            << threads.size() << " thread configs each\n";

  std::vector<ArmResult> arms;

  // --- Model sweep (one arm: the model has no two-stage split) ------
  {
    tuner::Session s(tuner::TuningContext::with_inputs(dev, def, p, in),
                     tuner::SessionOptions{}.with_jobs(scale.jobs));
    const auto t0 = Clock::now();
    (void)s.sweep_model(space, 0.10);
    arms.push_back({"model_sweep", space.size(), seconds_since(t0)});
  }

  // --- Machine sweep: every (tile, thread) point once ---------------
  {
    // Every point is distinct, so a fresh session prices each one; the
    // profile cache still collapses the geometry walks per tile.
    tuner::Session s(tuner::TuningContext::with_inputs(dev, def, p, in),
                     tuner::SessionOptions{}.with_jobs(scale.jobs));
    std::vector<tuner::DataPoint> dps;
    for (const auto& ts : tiles) {
      for (const auto& thr : threads) dps.push_back({ts, thr});
    }
    const auto t0 = Clock::now();
    (void)s.evaluate_points(dps);
    arms.push_back({"machine_sweep", dps.size(), seconds_since(t0)});
  }

  // --- best_over_threads: the acceptance metric ---------------------
  // Serial vs serial (jobs=1): the speedup isolates the batched
  // pricing path from thread-pool parallelism. One pass is ~1 ms, so
  // each arm is timed as the median of kReps passes, the two arms
  // alternating, rather than by a single scheduler-noisy pass.
  constexpr int kReps = 7;
  BatchReport batch;
  {
    std::vector<tuner::EvaluatedPoint> scalar_best;
    std::vector<tuner::EvaluatedPoint> batch_best;
    std::vector<double> scalar_s;
    std::vector<double> batch_s;
    for (int rep = 0; rep < kReps; ++rep) {
      // Reference arm: the public scalar API, one point at a time
      // (Talg + measure_best_of against the tile's profile), folded
      // like Session::sweep_tile (thread configs in order, first
      // strictly better point wins).
      scalar_best.clear();
      const auto t0 = Clock::now();
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
      scalar_s.push_back(seconds_since(t0));

      // Batched SoA pricing, on a fresh session so nothing is cached:
      // one measure_best_of_batch fold per tile, Talg hoisted per
      // tile, profiles stepped along tS2.
      tuner::Session b(tuner::TuningContext::with_inputs(dev, def, p, in),
                       tuner::SessionOptions{}.with_jobs(1));
      batch_best.clear();
      const auto t1 = Clock::now();
      for (const auto& ts : tiles) batch_best.push_back(b.best_over_threads(ts));
      batch_s.push_back(seconds_since(t1));
      if (rep + 1 == kReps) bench::print_sweep_stats(std::cout, b.stats(), 1);
    }
    arms.push_back({"best_over_threads_scalar", tiles.size() * threads.size(),
                    percentile(scalar_s, 0.5)});
    arms.push_back({"best_over_threads_batched",
                    tiles.size() * threads.size(), percentile(batch_s, 0.5)});
    batch.results_identical = scalar_best == batch_best;
  }

  // --- Bound-and-prune search: fig6-shaped strategy comparison ------
  // The same compare_strategies run twice — exact, then with the
  // admissible-lower-bound pruning the Session defaults to. The two
  // StrategyComparisons must be equal; the machine-point cut is the
  // pruning acceptance metric recorded in BENCH_gpusim.json.
  PruningReport pruning;
  WarmstartReport warmstart;
  {
    tuner::CompareOptions copt;
    copt.enumeration.tT_max = scale.full ? 48 : 24;
    copt.enumeration.tS1_max = scale.full ? 64 : 32;
    copt.enumeration.tS1_step = scale.full ? 2 : 4;
    copt.enumeration.tS2_max = scale.full ? 512 : 256;
    copt.exhaustive_cap = scale.full ? 1000 : 150;
    copt.baseline_count = scale.full ? 85 : 40;
    const stencil::ProblemSize cp{.dim = 2, .S = {4096, 4096, 0}, .T = 1024};
    const tuner::TuningContext ctx =
        tuner::TuningContext::with_inputs(dev, def, cp, in);

    tuner::Session exact(
        ctx, tuner::SessionOptions{}.with_jobs(scale.jobs).with_prune(false));
    const auto t_exact = Clock::now();
    const tuner::StrategyComparison ref = exact.compare_strategies(copt);
    arms.push_back({"pruned_search_off", exact.stats().machine_points,
                    seconds_since(t_exact)});

    tuner::Session bounded(ctx,
                           tuner::SessionOptions{}.with_jobs(scale.jobs));
    const auto t_bounded = Clock::now();
    const tuner::StrategyComparison got = bounded.compare_strategies(copt);
    const tuner::SweepStats st = bounded.stats();
    arms.push_back(
        {"pruned_search_on", st.machine_points, seconds_since(t_bounded)});

    pruning.machine_points_unpruned = exact.stats().machine_points;
    pruning.machine_points_pruned = st.machine_points;
    pruning.points_pruned = st.points_pruned;
    pruning.bound_seconds = st.bound_seconds;
    pruning.results_identical = got == ref;

    // --- Variant-extended strategy comparison (headline arm) --------
    // The same fig6 shape with the enumeration crossed against all
    // six kernel variants (unroll x staging): the realistic search
    // space of Ernst et al., served by the batched pricing path with
    // pruning on.
    tuner::CompareOptions vopt = copt;
    const auto vspan = stencil::all_kernel_variants();
    vopt.enumeration.variants.assign(vspan.begin(), vspan.end());
    tuner::Session vs(ctx, tuner::SessionOptions{}.with_jobs(scale.jobs));
    const auto t_var = Clock::now();
    const tuner::StrategyComparison vcmp = vs.compare_strategies(vopt);
    arms.push_back({"compare_variants", vs.stats().machine_points,
                    seconds_since(t_var)});
    std::cout << "variant-extended exhaustive best: "
              << vcmp.exhaustive.dp.ts.to_string() << " "
              << vcmp.exhaustive.dp.var.to_string() << " ("
              << AsciiTable::fmt(vcmp.exhaustive.gflops, 1) << " GFlop/s vs "
              << AsciiTable::fmt(ref.exhaustive.gflops, 1)
              << " default-variant)\n";
    bench::print_sweep_stats(std::cout, vs.stats(), vs.jobs());

    // --- Warm-start transfer: near-miss seeded best_tile ------------
    // A donor session tunes an adjacent problem (one lattice step
    // down in S), then the fig6 problem is swept cold and warm — the
    // warm sweep seeded with the donor's best point, the way the
    // service seeds from its similarity index. The seed starts the
    // incumbent near the optimum, so the bound prunes from the very
    // first visit; results must be byte-identical by construction.
    const std::vector<hhc::TileSizes> wtiles =
        tuner::enumerate_feasible(2, in.hw, copt.enumeration, def.radius);
    const stencil::ProblemSize donor_p{
        .dim = 2, .S = {3584, 3584, 0}, .T = 1024};
    tuner::Session donor(
        tuner::TuningContext::with_inputs(dev, def, donor_p, in),
        tuner::SessionOptions{}.with_jobs(1));
    const tuner::EvaluatedPoint donor_best = donor.best_tile(wtiles);

    tuner::Session cold(ctx, tuner::SessionOptions{}.with_jobs(1));
    const auto t_cold = Clock::now();
    const tuner::EvaluatedPoint cold_best = cold.best_tile(wtiles);
    arms.push_back({"warmstart_cold", cold.stats().machine_points,
                    seconds_since(t_cold)});

    const tuner::WarmSeed seed{donor_best.dp.ts, donor_best.dp.thr,
                               donor_best.dp.var};
    tuner::Session warm(ctx, tuner::SessionOptions{}.with_jobs(1));
    const auto t_warm = Clock::now();
    const tuner::EvaluatedPoint warm_best =
        warm.best_tile(wtiles, {}, {&seed, 1});
    arms.push_back({"warmstart_warm", warm.stats().machine_points,
                    seconds_since(t_warm)});

    warmstart.machine_points_cold = cold.stats().machine_points;
    warmstart.points_pruned_cold = cold.stats().points_pruned;
    warmstart.machine_points_warm = warm.stats().machine_points;
    warmstart.points_pruned_warm = warm.stats().points_pruned;
    warmstart.seeds_admitted = warm.stats().seeds_admitted;
    warmstart.results_identical = cold_best == warm_best;
  }

  const auto arm = [&](const std::string& name) -> const ArmResult& {
    for (const auto& a : arms) {
      if (a.name == name) return a;
    }
    static const ArmResult none;
    return none;
  };
  const auto ratio = [&](const std::string& arm_name,
                         const std::string& reference) {
    const double r = arm(reference).pts_per_sec();
    return r > 0.0 ? arm(arm_name).pts_per_sec() / r : 0.0;
  };
  batch.speedup =
      ratio("best_over_threads_batched", "best_over_threads_scalar");
  batch.points_per_sec = arm("best_over_threads_batched").pts_per_sec();
  const std::vector<std::pair<std::string, double>> speedups = {
      {"best_over_threads_batch", batch.speedup},
  };

  AsciiTable t({"arm", "points", "seconds", "points/s"});
  for (const auto& a : arms) {
    t.add_row({a.name, std::to_string(a.points), AsciiTable::fmt(a.seconds, 4),
               AsciiTable::fmt(a.pts_per_sec(), 1)});
  }
  std::cout << t.render();
  std::cout << "batched pricing: " << AsciiTable::fmt(batch.speedup, 2)
            << "x over the scalar reference, results "
            << (batch.results_identical ? "identical" : "DIVERGED") << "\n";
  std::cout << "pruned search: " << pruning.machine_points_unpruned
            << " -> " << pruning.machine_points_pruned
            << " machine points (" << pruning.points_pruned << " pruned, "
            << AsciiTable::fmt(pruning.reduction(), 2) << "x fewer), results "
            << (pruning.results_identical ? "identical" : "DIVERGED") << "\n";
  std::cout << "warm-start seeding: pruned fraction "
            << AsciiTable::fmt(warmstart.fraction_cold(), 3) << " cold -> "
            << AsciiTable::fmt(warmstart.fraction_warm(), 3) << " warm ("
            << warmstart.seeds_admitted << " seed admitted), results "
            << (warmstart.results_identical ? "identical" : "DIVERGED")
            << "\n";

  emit_json(scale.csv_dir + "/BENCH_gpusim.json", arms, speedups, pruning,
            batch, warmstart, scale.resolved_jobs(), scale.full);
  std::cout << "wrote " << scale.csv_dir << "/BENCH_gpusim.json\n";
  return 0;
}
