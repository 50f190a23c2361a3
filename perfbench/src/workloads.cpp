// The four untraced workloads. Each reports the end-to-end metrics
// that apply to it; run.py keeps the ones BENCHMARK.json declares and
// prints the rest in the summary.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <thread>

#include "device/registry.hpp"
#include "gen.hpp"
#include "harness.hpp"
#include "stencil/stencil.hpp"
#include "tuner/session.hpp"

namespace perfbench {

using namespace repro;
namespace fs = std::filesystem;

namespace {

// hot_mix runs in rounds, each an open-loop chunk at the base rate
// followed by a capacity block: the stream sent by one client as fast
// as it gets answers. Chunks and blocks hold whole 50-request periods
// of the mix, so each has the same composition, and the rounds spread
// both measurements over the whole run and the same index sizes. The
// capacity block has one client because with nproc clients beside the
// service's own two workers it measured the scheduler: one seed's runs
// read 443 to 636 requests/s.
constexpr double kBaseRate = 100.0;
constexpr std::size_t kBaseChunk = 50;
constexpr std::size_t kCapacityBlock = 100;
// Share of the run the rounds' base-rate chunks are offered over (0.6
// of 20 s gives 24 rounds, 1200 base-rate requests, 12 beyond p99).
constexpr double kRoundShare = 0.6;
// After the rounds, the higher offered rates of the ladder, each
// offered the same number of requests, over this share of the run.
// The top rate is above the service's capacity at definition time
// (~400/s on 4 CPUs), so the ladder shows where it stops keeping up.
constexpr double kLadderRates[] = {250.0, 500.0};
constexpr double kLadderShare = 0.15;
// The p99 limit a rate must meet to count towards goodput_rps, and
// the share of the offered rate below which its completions mark it
// as backlogged.
constexpr double kP99LimitMs = 250.0;
constexpr double kBacklogShare = 0.95;

// peak_rss_mb on a closed loop is read once this many requests have
// completed: the service's memory grows with the work it has done, so
// a fixed amount of work keeps a faster build from being charged for
// serving more requests in the same time.
constexpr std::size_t kRssAfterRequests = 100;

struct Loop {
  std::vector<Served> served;
  std::vector<double> latency;  // seconds, per completed request
  double elapsed = 0.0;
  double rss_mb = 0.0;
};

// One client, next request after the previous response; set-up
// samples are taken between requests and left out of the run's time.
Loop closed_loop(service::ServiceCore& core,
                 const std::vector<std::string>& lines, double seconds,
                 SetupSampler& setup) {
  Loop l;
  double paused = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (const std::string& line : lines) {
    const double elapsed = since(t0) - paused;
    if (elapsed >= seconds) break;
    paused += setup.poll(elapsed);
    const Clock::time_point t = Clock::now();
    l.served.push_back({line, core.handle(line)});
    l.latency.push_back(since(t));
    if (l.served.size() == kRssAfterRequests) l.rss_mb = peak_rss_mb();
  }
  l.elapsed = since(t0) - paused;
  if (l.served.size() < kRssAfterRequests) l.rss_mb = peak_rss_mb();
  return l;
}

// Closed loops: p50 and the gated tail, p90, over every request.
void add_latency(Result& r, const std::vector<double>& lat) {
  r.add("latency_p50_ms", percentile(lat, 0.50) * 1e3, "ms", lat.size());
  r.add("latency_p90_ms", percentile(lat, 0.90) * 1e3, "ms", lat.size());
  r.add("latency_tail_ms", percentile(lat, 0.90) * 1e3, "ms", lat.size());
  if (static_cast<double>(lat.size()) * 0.1 < 10.0) {
    r.notes.push_back("warning: p90 rests on fewer than 10 samples beyond it");
  }
}

void add_failed(Result& r) {
  r.add("failed_frac",
        r.attempted > 0 ? static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted)
                        : 0.0,
        "ratio", r.attempted);
}

// A closed-loop service workload over an empty store.
Result run_closed_service(const Options& o,
                          const std::vector<std::string>& lines,
                          bool service_sessions) {
  Result r;
  const std::string store = o.work + "/store";
  // The set-ups run over an empty store of their own: the workload's
  // starting state.
  const std::string setup_store = o.work + "/setup_store";
  fs::remove_all(store);
  fs::remove_all(setup_store);
  SetupSampler setup([&] { return service_setup_once(setup_store); },
                     o.seconds);
  Loop l;
  service::ServiceStats st;
  {
    service::ServiceCore core(serve_defaults(store));
    l = closed_loop(core, lines, o.seconds, setup);
    st = core.stats();
  }
  r.add("setup_s", setup.finish(), "s", setup.samples());
  r.add("requests_per_s", static_cast<double>(l.served.size()) / l.elapsed,
        "1/s", l.served.size());
  add_latency(r, l.latency);
  r.add("peak_rss_mb", l.rss_mb, "MB",
        std::min(l.served.size(), kRssAfterRequests));
  if (service_sessions) {
    r.add("sweep_points_per_s",
          static_cast<double>(st.session_machine_points +
                              st.session_points_pruned) /
              l.elapsed,
          "1/s");
  }
  if (l.served.size() == lines.size()) {
    r.notes.push_back("warning: generator exhausted before the run ended");
  }
  check_responses(l.served, o.nproc, r);
  add_failed(r);
  return r;
}

}  // namespace

OpenLoop open_loop(service::ServiceCore& core,
                   const std::vector<std::string>& lines, std::size_t first,
                   std::size_t n, double rate, int clients) {
  OpenLoop l;
  l.served.resize(n);
  l.latency.resize(n);
  l.lag.resize(n);
  std::vector<double> done(n);
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < std::max(1, clients); ++c) {
    threads.emplace_back([&] {
      // Send on time: no timer slack, and the last 2 ms spun, so an
      // idle CPU's wake-up delay is not charged to the request.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t i = next++; i < n; i = next++) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) /
                                                      rate));
        std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
        while (Clock::now() < due) {
        }
        l.lag[i] = std::chrono::duration<double>(Clock::now() - due).count();
        Served& s = l.served[i];
        s.line = lines[first + i];
        s.response = core.handle(s.line);
        const Clock::time_point end = Clock::now();
        l.latency[i] = std::chrono::duration<double>(end - due).count();
        done[i] = std::chrono::duration<double>(end - start).count();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (n > 0) {
    l.delivered = static_cast<double>(n) /
                  *std::max_element(done.begin(), done.end());
  }
  return l;
}

Result run_cold_tune(const Options& o) {
  return run_closed_service(o, cold_tune_lines(o.seed, 4000), true);
}

Result run_vcycle_plan(const Options& o) {
  // Pipelines run on the planner's own sessions, which the service's
  // counters do not cover.
  return run_closed_service(o, vcycle_lines(o.seed, 2000), false);
}

Result run_hot_mix(const Options& o) {
  Result r;
  const std::string store = o.work + "/prefill";
  if (!fs::exists(store)) {
    r.correct = false;
    r.notes.push_back("hot_mix needs a pre-filled store at " + store);
    return r;
  }
  const std::size_t rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(kRoundShare * o.seconds * kBaseRate /
                                  static_cast<double>(kBaseChunk)));
  double ladder_seconds_per_request = 0.0;
  for (const double rate : kLadderRates) {
    ladder_seconds_per_request += 1.0 / rate;
  }
  const std::size_t per_rate = std::max<std::size_t>(
      50, static_cast<std::size_t>(kLadderShare * o.seconds /
                                   ladder_seconds_per_request));
  const HotMix mix = hot_mix_lines(
      o.seed, kHotPrefill,
      rounds * (kBaseChunk + kCapacityBlock) +
          per_rate * std::size(kLadderRates));
  // Set-ups between the phases, over the same store (construction
  // reads none of it).
  SetupSampler setup([&] { return service_setup_once(store); }, o.seconds);

  std::vector<Served> served;
  std::size_t cursor = 0;
  std::vector<double> base_latency, base_lag;
  double base_seconds = 0.0, capacity_seconds = 0.0, goodput = 0.0;
  service::ServiceStats st;
  {
    service::ServiceCore core(serve_defaults(store));
    auto next = [&](std::size_t n, double rate, int clients) {
      OpenLoop l = open_loop(core, mix.stream, cursor, n, rate, clients);
      cursor += n;
      served.insert(served.end(), l.served.begin(), l.served.end());
      return l;
    };
    double paused = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t k = 0; k < rounds; ++k) {
      paused += setup.poll(since(t0) - paused);
      const OpenLoop base = next(kBaseChunk, kBaseRate, o.nproc);
      base_seconds += static_cast<double>(kBaseChunk) / base.delivered;
      base_latency.insert(base_latency.end(), base.latency.begin(),
                          base.latency.end());
      base_lag.insert(base_lag.end(), base.lag.begin(), base.lag.end());
      // Every request of the block due at once: a closed loop.
      const OpenLoop cap =
          next(kCapacityBlock, std::numeric_limits<double>::infinity(), 1);
      capacity_seconds += static_cast<double>(kCapacityBlock) / cap.delivered;
    }
    // The ladder, from the base rate up.
    auto rung = [&](double rate, double delivered,
                    const std::vector<double>& latency) {
      const double p99 = percentile(latency, 0.99) * 1e3;
      const bool backlogged = delivered < kBacklogShare * rate;
      const bool meets = !backlogged && p99 <= kP99LimitMs;
      if (meets) goodput = delivered;
      r.notes.push_back(
          "rate " + std::to_string(static_cast<int>(rate)) + "/s: n=" +
          std::to_string(latency.size()) + " delivered " +
          std::to_string(delivered) + "/s p50 " +
          std::to_string(percentile(latency, 0.5) * 1e3) + " ms p99 " +
          std::to_string(p99) + " ms" + (backlogged ? " BACKLOGGED" : "") +
          (meets ? "" : " (misses limit)"));
    };
    rung(kBaseRate, static_cast<double>(base_latency.size()) / base_seconds,
         base_latency);
    for (const double rate : kLadderRates) {
      paused += setup.poll(since(t0) - paused);
      const OpenLoop l = next(per_rate, rate, o.nproc);
      rung(rate, l.delivered, l.latency);
    }
    st = core.stats();
  }

  const std::size_t capacity_n = rounds * kCapacityBlock;
  r.add("setup_s", setup.finish(), "s", setup.samples());
  r.add("requests_per_s", static_cast<double>(capacity_n) / capacity_seconds,
        "1/s", capacity_n);
  r.add("latency_p50_ms", percentile(base_latency, 0.50) * 1e3, "ms",
        base_latency.size());
  r.add("latency_p90_ms", percentile(base_latency, 0.90) * 1e3, "ms",
        base_latency.size());
  r.add("latency_p95_ms", percentile(base_latency, 0.95) * 1e3, "ms",
        base_latency.size());
  r.add("latency_p99_ms", percentile(base_latency, 0.99) * 1e3, "ms",
        base_latency.size());
  // The gated tail is p95: the top ~12% of the requests are misses,
  // stats polls and the hits queued behind them, and p95 lies inside
  // that group, where p99 rests on its few largest.
  r.add("latency_tail_ms", percentile(base_latency, 0.95) * 1e3, "ms",
        base_latency.size());
  if (static_cast<double>(base_latency.size()) * 0.01 < 10.0) {
    r.notes.push_back("warning: p99 rests on fewer than 10 samples beyond it");
  }
  r.add("goodput_rps", goodput, "1/s");
  r.add("harness.generator_lag_ms", percentile(base_lag, 0.99) * 1e3, "ms",
        base_lag.size());
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.notes.push_back("store hits " + std::to_string(st.store_hits) + "/" +
                    std::to_string(st.requests) + ", index lookups " +
                    std::to_string(st.warm_lookups) + ", coalesced " +
                    std::to_string(st.coalesced) + ", store entries " +
                    std::to_string(st.store_entries));
  check_responses(served, o.nproc, r);
  add_failed(r);
  return r;
}

namespace {

// One Fig. 6-shaped sweep on a fresh Session: compare_strategies, or
// the best_tile pipeline (enumerate, model sweep, measure the
// within-delta candidates).
struct Sweep {
  double seconds = 0.0;
  tuner::SweepStats stats;
  tuner::StrategyComparison cmp;
  tuner::EvaluatedPoint best;
};

Sweep run_sweep(const service::Request& req, int jobs, Tracer* tracer,
                const char* span, std::uint64_t rid) {
  tuner::Session s(*device::registry().find(req.device), req.def,
                   *req.problem, tuner::SessionOptions{}.with_jobs(jobs));
  Sweep out;
  const int index = tracer != nullptr ? tracer->begin(span, rid) : -1;
  const Clock::time_point t0 = Clock::now();
  if (req.kind == service::RequestKind::kCompareStrategies) {
    tuner::CompareOptions copt;
    copt.enumeration = req.enumeration;
    copt.delta = req.delta;
    copt.exhaustive_cap = req.exhaustive_cap;
    copt.baseline_count = req.baseline_count;
    out.cmp = s.compare_strategies(copt);
  } else {
    const std::vector<hhc::TileSizes> space = tuner::enumerate_feasible(
        req.problem->dim, s.inputs().hw, req.enumeration, req.def.radius);
    const tuner::ModelSweep sweep = s.sweep_model(space, req.delta);
    out.best = s.best_tile(sweep.candidates);
  }
  out.seconds = since(t0);
  if (tracer != nullptr) tracer->end(index);
  out.stats = s.stats();
  return out;
}

}  // namespace

std::vector<service::Request> parse_lines(const std::vector<std::string>& lines,
                                          Result& r) {
  std::vector<service::Request> out;
  for (const std::string& line : lines) {
    analysis::DiagnosticEngine diags;
    if (std::optional<service::Request> req =
            service::parse_request(line, diags)) {
      out.push_back(std::move(*req));
    } else {
      r.correct = false;
      r.notes.push_back("generated line does not parse: " + line);
    }
  }
  return out;
}

ParallelStats& ParallelStats::operator+=(const ParallelStats& o) {
  wall_n += o.wall_n;
  wall_1 += o.wall_1;
  timed_n += o.timed_n;
  timed_1 += o.timed_1;
  points += o.points;
  return *this;
}

ParallelStats sweep_pair(const service::Request& req, int nproc,
                         bool wide_first, Result& r, Tracer* tracer,
                         std::uint64_t rid) {
  Sweep a, b;
  if (wide_first) a = run_sweep(req, nproc, tracer, "parallel.sweep", rid);
  b = run_sweep(req, 1, tracer, "tuner.sweep", rid);
  if (!wide_first) a = run_sweep(req, nproc, tracer, "parallel.sweep", rid);
  ++r.attempted;
  if (!(a.cmp == b.cmp) || !(a.best == b.best)) {
    ++r.failed;
    r.correct = false;
    r.notes.push_back("MISMATCH between jobs=" + std::to_string(nproc) +
                      " and jobs=1 for " + req.canonical_key());
  }
  ParallelStats p;
  p.wall_n = a.seconds;
  p.wall_1 = b.seconds;
  p.timed_n = sim_seconds(a.stats);
  p.timed_1 = sim_seconds(b.stats);
  p.points =
      static_cast<double>(a.stats.machine_points + a.stats.points_pruned);
  p.stats_1 = b.stats;
  p.gpu = device::registry().find(req.device)->is_gpu();
  return p;
}

Result run_parallel_sweep(const Options& o) {
  Result r;
  const std::vector<service::Request> reqs =
      parse_lines(sweep_lines(o.seed, 2000), r);
  // setup_s: constructing (calibrating) a jobs = nproc Session for
  // one of the sweep's problems.
  const stencil::StencilDef& def = stencil::get_stencil_by_name("Heat2D");
  const stencil::ProblemSize problem{.dim = 2, .S = {4096, 4096, 0},
                                     .T = 1024};
  const device::Descriptor& gpu = *device::registry().find("GTX 980");
  SetupSampler setup(
      [&] {
        const Clock::time_point t0 = Clock::now();
        tuner::Session s(gpu, def, problem,
                         tuner::SessionOptions{}.with_jobs(o.nproc));
        return since(t0);
      },
      o.seconds);

  std::vector<double> wall_n;
  ParallelStats sum;
  double paused = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const double elapsed = since(t0) - paused;
    if (elapsed >= o.seconds) break;
    paused += setup.poll(elapsed);
    const ParallelStats p = sweep_pair(reqs[i], o.nproc, i % 2 == 0, r);
    wall_n.push_back(p.wall_n);
    sum += p;
  }
  r.add("setup_s", setup.finish(), "s", setup.samples());
  r.add("requests_per_s", static_cast<double>(wall_n.size()) / sum.wall_n,
        "1/s", wall_n.size());
  add_latency(r, wall_n);
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("sweep_points_per_s", sum.points / sum.wall_n, "1/s", wall_n.size());
  r.add("parallel_speedup", sum.wall_1 / sum.wall_n, "x", wall_n.size());
  r.notes.push_back(std::to_string(wall_n.size()) + " sweeps at jobs=" +
                    std::to_string(o.nproc) + " and jobs=1, worker-timed " +
                    std::to_string(sum.timed_n) + " s vs " +
                    std::to_string(sum.timed_1) + " s");
  add_failed(r);
  return r;
}

}  // namespace perfbench
