// Shared helpers for the per-table/per-figure report binaries.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
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
     << " stepped (" << st.profile_hits << " hits), "
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

}  // namespace repro::bench
