// perfbench: the benchmark driver. run.py builds it and calls it;
// it can also be run by hand from a build directory.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --work DIR
//   perfbench prefill --seed N --store DIR
//   perfbench gen --workload W --seed N [--count K]
//
// `run` prints human-readable notes on stderr and, as its last line
// on stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit", "samples"}}}. It exits 1 when
// any answer was wrong. `gen` prints the generated request lines.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common/json.hpp"
#include "gen.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> f;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    if (k.rfind("--", 0) == 0) k = k.substr(2);
    f[k] = argv[i + 1];
  }
  return f;
}

std::string flag(const std::map<std::string, std::string>& f,
                 const std::string& k, const std::string& dflt) {
  const auto it = f.find(k);
  return it == f.end() ? dflt : it->second;
}

int usage() {
  std::cerr << "usage: perfbench run|prefill|gen [--flag value]...\n";
  return 2;
}

int cmd_gen(const std::map<std::string, std::string>& f) {
  const std::string w = flag(f, "workload", "");
  const std::uint64_t seed = std::stoull(flag(f, "seed", "1"));
  const std::size_t n = std::stoull(flag(f, "count", "200"));
  std::vector<std::string> lines;
  if (w == "cold_tune") {
    lines = cold_tune_lines(seed, n);
  } else if (w == "hot_mix") {
    HotMix m = hot_mix_lines(seed, kHotPrefill, n);
    lines = std::move(m.prefill);
    lines.insert(lines.end(), m.stream.begin(), m.stream.end());
  } else if (w == "vcycle_plan") {
    lines = vcycle_lines(seed, n);
  } else if (w == "parallel_sweep") {
    lines = sweep_lines(seed, n);
  } else {
    return usage();
  }
  for (const std::string& l : lines) std::cout << l << "\n";
  return 0;
}

int cmd_run(const std::map<std::string, std::string>& f) {
  Options o;
  o.workload = flag(f, "workload", "");
  o.seed = std::stoull(flag(f, "seed", "1"));
  o.seconds = std::stod(flag(f, "seconds", "10"));
  o.trace = flag(f, "trace", "0") == "1";
  o.work = flag(f, "work", "");
  if (o.work.empty()) return usage();
  std::filesystem::create_directories(o.work);

  Result r;
  if (o.trace) {
    r = run_traced(o);
  } else if (o.workload == "cold_tune") {
    r = run_cold_tune(o);
  } else if (o.workload == "hot_mix") {
    r = run_hot_mix(o);
  } else if (o.workload == "vcycle_plan") {
    r = run_vcycle_plan(o);
  } else if (o.workload == "parallel_sweep") {
    r = run_parallel_sweep(o);
  } else {
    return usage();
  }
  for (const std::string& n : r.notes) std::cerr << n << "\n";

  repro::json::Value metrics = repro::json::Value::object();
  for (const Metric& m : r.metrics) {
    repro::json::Value v = repro::json::Value::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    v.set("samples", m.samples);
    metrics.set(m.name, std::move(v));
  }
  repro::json::Value out = repro::json::Value::object();
  out.set("correct", r.correct);
  out.set("attempted", static_cast<std::int64_t>(r.attempted));
  out.set("failed", static_cast<std::int64_t>(r.failed));
  out.set("metrics", std::move(metrics));
  std::cout << out.dump() << std::endl;
  return r.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const std::map<std::string, std::string> f = parse_flags(argc, argv);
  try {
    if (cmd == "run") return cmd_run(f);
    if (cmd == "gen") return cmd_gen(f);
    if (cmd == "prefill") {
      return prefill_store(std::stoull(flag(f, "seed", "1")),
                           flag(f, "store", ""), available_cpus());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
