// Reproduces Fig. 6: average GFLOP/s achieved by the different tile
// size selection strategies for the 2D stencils:
//
//   HHC        — untuned compiler defaults (tiles and threads),
//   Talg min   — the single model-minimal tile size,
//   Baseline   — best of the Section 5.1 max-footprint set,
//   Within 10% — best measured point among the tiles within 10% of
//                the predicted minimum (the paper's method),
//   Exhaustive — best found over the (sub-sampled) feasible space.
//
// The paper's headline: Within-10% beats Baseline by ~9% on average
// and HHC by ~60%; Talg_min alone performs poorly.
//
// Flags: --full, --device=..., --csv-dir=..., --jobs=N (results and
// CSV are byte-identical for any job count), --no-prune (disable
// bound-and-prune; the CSV is byte-identical either way, only the
// engine stats line moves).
#include <iostream>
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "gpusim/microbench.hpp"
#include "tuner/session.hpp"

using namespace repro;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bench::Scale scale = bench::Scale::from_args(args);

  std::vector<const gpusim::DeviceParams*> devs;
  if (const auto name = args.get("device")) {
    devs.push_back(&bench::gpu_device_or_die(*name));
  } else {
    devs.push_back(&gpusim::gtx980());
    if (scale.full) devs.push_back(&gpusim::titan_x());
  }

  tuner::CompareOptions copt;
  copt.enumeration.tT_max = scale.full ? 48 : 24;
  copt.enumeration.tS1_max = scale.full ? 64 : 32;
  copt.enumeration.tS1_step = scale.full ? 2 : 4;
  copt.enumeration.tS2_max = scale.full ? 512 : 256;
  copt.exhaustive_cap = scale.full ? 1000 : 150;
  copt.baseline_count = scale.full ? 85 : 40;

  const auto sizes = bench::sizes_2d(scale);

  CsvWriter csv(scale.csv_dir + "/fig6_strategies.csv",
                {"device", "stencil", "problem", "strategy", "tiles",
                 "threads", "texec_s", "gflops"});

  std::cout << "=== Fig. 6: average GFLOP/s by tile-size selection strategy "
               "(2D stencils) ===\n";
  AsciiTable t({"Device", "Benchmark", "HHC", "Talg min", "Baseline",
                "Within 10%", "Exhaustive", "W10/Base", "W10/HHC"});

  double sum_gain_base = 0.0;
  double sum_gain_hhc = 0.0;
  int combos = 0;
  tuner::SweepStats totals;
  for (const auto* dev : devs) {
    for (const auto kind : stencil::paper_2d_benchmarks()) {
      const auto& def = stencil::get_stencil(kind);
      // Calibration depends only on (device, stencil); share it across
      // the per-problem sessions.
      const model::ModelInputs in = gpusim::calibrate_model(*dev, def);
      std::map<std::string, std::vector<double>> gf;
      for (const auto& p : sizes) {
        tuner::Session session(
            tuner::TuningContext::with_inputs(*dev, def, p, in),
            tuner::SessionOptions{}.with_jobs(scale.jobs).with_prune(
                !args.has_flag("no-prune")));
        const tuner::StrategyComparison cmp =
            session.compare_strategies(copt);
        totals += session.stats();
        const std::vector<std::pair<std::string, const tuner::EvaluatedPoint*>>
            rows = {{"HHC", &cmp.hhc_default},
                    {"Talg min", &cmp.talg_min},
                    {"Baseline", &cmp.baseline_best},
                    {"Within 10%", &cmp.within10_best},
                    {"Exhaustive", &cmp.exhaustive}};
        for (const auto& [name, ep] : rows) {
          if (!ep->feasible) continue;
          gf[name].push_back(ep->gflops);
          csv.row({dev->name, def.name, p.to_string(), name,
                   ep->dp.ts.to_string(), std::to_string(ep->dp.thr.total()),
                   CsvWriter::cell(ep->texec), CsvWriter::cell(ep->gflops)});
        }
      }
      auto avg = [&](const std::string& k) {
        return gf.count(k) ? mean(gf[k]) : 0.0;
      };
      const double w10 = avg("Within 10%");
      const double base = avg("Baseline");
      const double hhc = avg("HHC");
      t.add_row({dev->name, def.name, AsciiTable::fmt(hhc, 1),
                 AsciiTable::fmt(avg("Talg min"), 1),
                 AsciiTable::fmt(base, 1), AsciiTable::fmt(w10, 1),
                 AsciiTable::fmt(avg("Exhaustive"), 1),
                 AsciiTable::fmt(w10 / base, 3),
                 AsciiTable::fmt(w10 / hhc, 3)});
      sum_gain_base += w10 / base;
      sum_gain_hhc += w10 / hhc;
      ++combos;
    }
  }
  std::cout << t.render();
  std::cout << "\nMean Within-10% gain: " << AsciiTable::fmt_pct(
                   sum_gain_base / combos - 1.0)
            << " over Baseline (paper: ~9%), "
            << AsciiTable::fmt_pct(sum_gain_hhc / combos - 1.0)
            << " over untuned HHC (paper: ~60%).\n"
            << "Raw rows in fig6_strategies.csv.\n";
  bench::print_sweep_stats(std::cout, totals, scale.resolved_jobs());
  const std::size_t requested = totals.machine_points + totals.points_pruned;
  std::cout << "[prune] " << totals.points_pruned << " of " << requested
            << " machine requests pruned by the lower bound ("
            << AsciiTable::fmt_pct(
                   requested == 0 ? 0.0
                                  : static_cast<double>(totals.points_pruned) /
                                        static_cast<double>(requested))
            << "); results are identical with --no-prune.\n";
  if (const auto stats_path = args.get("stats-json")) {
    bench::write_stats_json(*stats_path, totals, scale.resolved_jobs());
  }
  return 0;
}
