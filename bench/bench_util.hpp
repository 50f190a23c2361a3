// Shared helpers for the per-table/per-figure report binaries.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "device/registry.hpp"
#include "gpusim/device.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"
#include "tuner/session.hpp"

namespace repro::bench {

// Scale knobs common to all reports: default runs are reduced but
// shape-preserving; --full runs the paper-scale grids. --jobs=N picks
// the worker count for the parallel sweeps (0 = REPRO_JOBS env var,
// else all hardware threads); results are identical for any value.
struct Scale {
  bool full = false;
  int jobs = 0;         // 0 = auto (REPRO_JOBS / hardware)
  // Where to drop raw CSVs / JSON reports. Defaults to bench/out/
  // (gitignored); the committed reference copies live in
  // tests/golden/ and CI diffs regenerated output against them.
  std::string csv_dir;

  static Scale from_args(const CliArgs& args) {
    Scale s;
    s.full = args.has_flag("full");
    s.jobs = static_cast<int>(args.get_int_or("jobs", 0));
    s.csv_dir = args.get_or("csv-dir", "bench/out");
    std::error_code ec;  // best-effort; the writer reports failures
    std::filesystem::create_directories(s.csv_dir, ec);
    return s;
  }

  // The resolved worker count, for report headers.
  int resolved_jobs() const { return jobs > 0 ? jobs : default_jobs(); }
};

inline std::vector<stencil::ProblemSize> sizes_2d(const Scale& s) {
  if (s.full) return stencil::paper_2d_problem_sizes();
  // Reduced: one spatial size, three T values — preserves the
  // time-dimension sweep that drives Fig. 3's dynamic range.
  return {{.dim = 2, .S = {4096, 4096, 0}, .T = 1024},
          {.dim = 2, .S = {4096, 4096, 0}, .T = 4096},
          {.dim = 2, .S = {8192, 8192, 0}, .T = 2048}};
}

inline std::vector<stencil::ProblemSize> sizes_3d(const Scale& s) {
  if (s.full) return stencil::paper_3d_problem_sizes();
  return {{.dim = 3, .S = {384, 384, 384}, .T = 128},
          {.dim = 3, .S = {512, 512, 512}, .T = 256}};
}

inline std::vector<const gpusim::DeviceParams*> devices(const Scale&) {
  return {&gpusim::gtx980(), &gpusim::titan_x()};
}

// Resolves --device against the process-wide registry for a report
// that prices GPU figures. Unknown names get the registry's
// structured SL522 diagnostic (registered names + nearest match);
// a registered non-GPU descriptor is rejected by kind. Exits on
// failure: a figure against the wrong machine is worthless.
inline const gpusim::DeviceParams& gpu_device_or_die(const std::string& name) {
  analysis::DiagnosticEngine diags;
  const device::Descriptor* d = device::registry().resolve(name, &diags);
  if (d == nullptr) {
    std::cerr << analysis::render_human(diags.diagnostics(), "<device>");
    std::exit(2);
  }
  if (!d->is_gpu()) {
    std::cerr << "device '" << name << "' is a "
              << device::to_string(d->kind())
              << " device; this report requires a gpu device\n";
    std::exit(2);
  }
  return d->gpu();
}

// One-line engine summary the figure benches print after their table.
// Wall times are real (they vary run to run); every other number — and
// the CSV/table output itself — is identical for any worker count.
inline void print_sweep_stats(std::ostream& os, const tuner::SweepStats& st,
                              int jobs) {
  os << "[engine] jobs=" << jobs << "; model sweep: " << st.model_points
     << " pts in " << st.model_seconds << " s; machine eval: "
     << st.machine_points << " pts (" << st.cache_hits
     << " cache hits) in " << st.machine_seconds << " s; profiles: "
     << st.profile_builds << " built + " << st.profile_steps
     << " stepped (" << st.profile_hits << " hits, "
     << st.histogram_builds << " with histograms), "
     << st.geometry_seconds << " s geometry + " << st.pricing_seconds
     << " s pricing; pruned: " << st.points_pruned << " pts in "
     << st.bound_seconds << " s bounds";
  if (st.seeds_offered > 0) {
    os << "; warm seeds: " << st.seeds_admitted << "/" << st.seeds_offered
       << " admitted";
  }
  os << "\n";
}

// --stats-json=PATH: persist the accumulated engine counters as one
// JSON object, so CI (and ad-hoc A/B runs) can diff sweep volume and
// cache behaviour across revisions without scraping the human table.
// Returns whether the file was written.
inline bool write_stats_json(const std::string& path,
                             const tuner::SweepStats& st, int jobs) {
  json::Value o = json::Value::object();
  o.set("jobs", jobs);
  tuner::SweepStats::for_each_field([&](std::string_view name, auto member) {
    o.set(std::string(name), st.*member);
  });
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << o.dump() << "\n";
  return out.good();
}

// One arm of a timed comparison. Each sample runs `setup` untimed,
// then `body` `calls` times; the sample is the mean seconds per call.
// `setup` holds work the measurement must exclude, such as building a
// fresh Session so nothing is cached from the previous sample.
struct Arm {
  std::string name;
  std::function<void()> body;
  int calls = 1;
  std::function<void()> setup = {};
};

// An arm's samples (seconds per call, in run order) and their spread.
struct ArmTiming {
  std::string name;
  std::vector<double> samples;
  double min = 0.0;
  double median = 0.0;
  double mad = 0.0;  // median absolute deviation from the median
};

inline ArmTiming summarize_samples(std::string name,
                                   std::vector<double> samples) {
  ArmTiming t{std::move(name), std::move(samples)};
  if (t.samples.empty()) return t;
  t.min = min_of(t.samples);
  t.median = percentile(t.samples, 0.5);
  std::vector<double> dev;
  dev.reserve(t.samples.size());
  for (const double s : t.samples) dev.push_back(std::abs(s - t.median));
  t.mad = percentile(dev, 0.5);
  return t;
}

// Times `arms` round-robin, one sample of each per pass, until every
// arm has at least `min_reps` samples and `min_seconds` of wall time
// has passed. Interleaving spreads slow drift (clock scaling, a busy
// neighbour) over all arms alike, so ratios between arms of one run
// are fair. Results come back in the order of `arms`.
inline std::vector<ArmTiming> time_arms(const std::vector<Arm>& arms,
                                        int min_reps, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<std::vector<double>> samples(arms.size());
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < min_reps || since(start) < min_seconds; ++rep) {
    for (std::size_t i = 0; i < arms.size(); ++i) {
      if (arms[i].setup) arms[i].setup();
      const Clock::time_point t0 = Clock::now();
      for (int c = 0; c < arms[i].calls; ++c) arms[i].body();
      samples[i].push_back(since(t0) / arms[i].calls);
    }
  }
  std::vector<ArmTiming> out;
  out.reserve(arms.size());
  for (std::size_t i = 0; i < arms.size(); ++i) {
    out.push_back(summarize_samples(arms[i].name, std::move(samples[i])));
  }
  return out;
}

// Keeps the computation that produced `x` from being optimized away.
template <class T>
inline void keep(const T& x) {
  __asm__ __volatile__("" : : "m"(x) : "memory");
}

}  // namespace repro::bench
