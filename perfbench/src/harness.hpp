// Shared pieces of the benchmark driver: run options, the result it
// prints, timing and percentile helpers, the service settings every
// workload serves with, and the output check.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/core.hpp"
#include "trace.hpp"
#include "tuner/session.hpp"

namespace perfbench {

// CPUs this process may run on (its affinity mask): the client-thread
// and jobs count of every workload.
int available_cpus();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for stores and the span file (inside the
  // checkout); a pre-filled hot_mix store lives at <work>/prefill.
  std::string work;
  int nproc = available_cpus();
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // timings: how many values the figure rests on
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
};

double since(Clock::time_point t0);

// Linear interpolation between order statistics, p in [0, 1].
double percentile(std::vector<double> v, double p);
// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// Seconds the simulator spends inside a Session's sweeps, as its
// workers time them: profile geometry, pricing and bounds.
double sim_seconds(const repro::tuner::SweepStats& s);

// `tuned serve` defaults over `store_dir`.
repro::service::ServiceOptions serve_defaults(const std::string& store_dir);

// setup_s, sampled through a run: kSetupBatches batches of
// kSetupPerBatch calls of `once` (which returns the seconds one set-up
// took), one batch each time the run passes another 1/kSetupBatches
// of its length. On a shared host one moment can be slow or fast for
// the tens of microseconds of thread start-up a set-up is; spreading
// the repetitions over the run averages over those moments. The figure
// is the mean of the fastest quarter of all repetitions, so a
// repetition the host interrupts does not move it.
class SetupSampler {
 public:
  SetupSampler(std::function<double()> once, double seconds)
      : once_(std::move(once)), seconds_(seconds) {}
  // Takes the batches due `elapsed` seconds into the run; returns the
  // seconds that took, for the caller to leave out of its own timing.
  double poll(double elapsed);
  // Takes the batches not yet taken; returns setup_s.
  double finish();
  std::size_t samples() const { return t_.size(); }

 private:
  void batch();
  std::function<double()> once_;
  double seconds_;
  int taken_ = 0;
  std::vector<double> t_;
};

// One service set-up: constructing a ServiceCore over `store_dir` and
// serving its first request (a `devices` listing, which is never
// stored, so the store is left as it was).
double service_setup_once(const std::string& store_dir);

// One served request and its response.
struct Served {
  std::string line;
  std::string response;
};

// The output check: every response must byte-equal the `tuned once`
// answer (compute_payload on a fresh Session, or a fresh Planner for
// pipelines) rendered under its own id. Each distinct computation is
// recomputed once, on `nproc` threads. `stats` responses are instance
// state: they must be ok and parse. Counts error responses into
// `failed`, mismatches make `correct` false. With a tracer, lint
// recomputations are recorded as `analysis.lint` spans.
void check_responses(const std::vector<Served>& served, int nproc,
                     Result& r, Tracer* tracer = nullptr);

// Parses generated request lines; an unparsable line makes the run
// incorrect.
std::vector<repro::service::Request> parse_lines(
    const std::vector<std::string>& lines, Result& r);

// The open-loop generator: lines[first, first + n) are due at
// `rate` per second from the start; at most `clients` are in flight.
struct OpenLoop {
  std::vector<Served> served;
  std::vector<double> latency;  // seconds from due time to response
  std::vector<double> lag;      // seconds from due time to send
  double delivered = 0.0;       // completions per second
};
OpenLoop open_loop(repro::service::ServiceCore& core,
                   const std::vector<std::string>& lines, std::size_t first,
                   std::size_t n, double rate, int clients);

// One parallel_sweep pair: the request swept on a fresh jobs = nproc
// Session and on a fresh jobs = 1 Session (order alternated by the
// caller); a result mismatch between the two fails the run. With a
// tracer, the sweeps are recorded as `parallel.sweep` (jobs = nproc)
// and `tuner.sweep` (jobs = 1) spans.
struct ParallelStats {
  double wall_n = 0.0, wall_1 = 0.0;    // sweep wall seconds
  double timed_n = 0.0, timed_1 = 0.0;  // worker-timed seconds
  double points = 0.0;                  // priced or pruned at jobs = nproc
  repro::tuner::SweepStats stats_1;     // the jobs = 1 session's counters
  bool gpu = true;
  ParallelStats& operator+=(const ParallelStats& o);
};
ParallelStats sweep_pair(const repro::service::Request& req, int nproc,
                         bool wide_first, Result& r, Tracer* tracer = nullptr,
                         std::uint64_t rid = 0);

// The workloads. Each fills end-to-end metrics (untraced).
Result run_cold_tune(const Options& o);
Result run_hot_mix(const Options& o);
Result run_vcycle_plan(const Options& o);
Result run_parallel_sweep(const Options& o);
// The traced run: per-layer metrics over every workload's requests.
Result run_traced(const Options& o);

// Store pre-fill for hot_mix (run in its own process before the
// measured one): serves the generated prefill lines into `store_dir`
// and rebuilds the similarity index from it.
int prefill_store(std::uint64_t seed, const std::string& store_dir,
                  int nproc);

// Generator sizes shared by the workloads and the traced run.
inline constexpr std::size_t kHotPrefill = 3000;

}  // namespace perfbench
