#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/json.hpp"
#include "device/registry.hpp"
#include "gen.hpp"

namespace perfbench {

using namespace repro;

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

constexpr int kSetupBatches = 8;
constexpr int kSetupPerBatch = 25;

}  // namespace

void SetupSampler::batch() {
  for (int i = 0; i < kSetupPerBatch; ++i) t_.push_back(once_());
  ++taken_;
}

double SetupSampler::poll(double elapsed) {
  const Clock::time_point t0 = Clock::now();
  while (taken_ < kSetupBatches &&
         elapsed >= seconds_ * taken_ / kSetupBatches) {
    batch();
  }
  return since(t0);
}

double SetupSampler::finish() {
  while (taken_ < kSetupBatches) batch();
  std::vector<double> t = t_;
  std::sort(t.begin(), t.end());
  const std::size_t n = std::max<std::size_t>(1, t.size() / 4);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += t[i];
  return sum / static_cast<double>(n);
}

double sim_seconds(const tuner::SweepStats& s) {
  return s.geometry_seconds + s.pricing_seconds + s.bound_seconds;
}

service::ServiceOptions serve_defaults(const std::string& store_dir) {
  // tools/tuned.cpp `serve` defaults.
  return service::ServiceOptions{}
      .with_workers(2)
      .with_queue_depth(16)
      .with_submit_wait_ms(0)
      .with_session_jobs(1)
      .with_store_dir(store_dir)
      .with_warm_start(true)
      .with_warm_seed_limit(3);
}

double service_setup_once(const std::string& store_dir) {
  const Clock::time_point t0 = Clock::now();
  service::ServiceCore core(serve_defaults(store_dir));
  core.handle("{\"v\":1,\"id\":\"setup\",\"kind\":\"devices\"}");
  return since(t0);
}

namespace {

bool needs_session(service::RequestKind k) {
  return k == service::RequestKind::kPredict ||
         k == service::RequestKind::kBestTile ||
         k == service::RequestKind::kCompareStrategies;
}

// The `tuned once` payload of one request.
std::string once_payload(const service::Request& req, Tracer* tracer,
                         std::mutex* tracer_mu, std::uint64_t rid) {
  std::unique_ptr<tuner::Session> session;
  if (needs_session(req.kind)) {
    session = std::make_unique<tuner::Session>(
        *device::registry().find(req.device), req.def, *req.problem,
        tuner::SessionOptions{}.with_jobs(1));
  }
  if (tracer != nullptr && req.kind == service::RequestKind::kLint) {
    std::lock_guard<std::mutex> lk(*tracer_mu);
    Tracer::Scope s(*tracer, "analysis.lint", rid);
    return service::compute_payload(req, nullptr);
  }
  return service::compute_payload(req, session.get());
}

}  // namespace

void check_responses(const std::vector<Served>& served, int nproc, Result& r,
                     Tracer* tracer) {
  // Group responses by computation key; stats answers are checked
  // for shape only.
  struct Group {
    service::Request req;
    std::vector<std::size_t> members;
    std::string payload;
    bool ok = true;
  };
  std::vector<Group> groups;
  std::map<std::string, std::size_t> by_key;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const Served& s = served[i];
    ++r.attempted;
    const bool ok_response =
        s.response.find("\"ok\":true") != std::string::npos;
    if (!ok_response) ++r.failed;
    analysis::DiagnosticEngine diags;
    const std::optional<service::Request> req =
        service::parse_request(s.line, diags);
    if (!req) {
      r.correct = false;
      r.notes.push_back("generated line does not parse: " + s.line);
      continue;
    }
    if (req->kind == service::RequestKind::kStats) {
      if (!ok_response || !json::parse(s.response)) {
        r.correct = false;
        r.notes.push_back("bad stats response: " + s.response);
      }
      continue;
    }
    const std::string key = req->canonical_key();
    auto [it, fresh] = by_key.emplace(key, groups.size());
    if (fresh) groups.push_back({*req, {}, {}, true});
    groups[it->second].members.push_back(i);
  }

  // Recompute each distinct computation once, in parallel.
  std::atomic<std::size_t> next{0};
  std::mutex tracer_mu;
  std::vector<std::thread> workers;
  const int n = std::max(1, nproc);
  for (int w = 0; w < n; ++w) {
    workers.emplace_back([&] {
      for (std::size_t g = next++; g < groups.size(); g = next++) {
        try {
          groups[g].payload =
              once_payload(groups[g].req, tracer, &tracer_mu, g);
        } catch (...) {
          groups[g].ok = false;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();

  std::size_t mismatches = 0;
  for (const Group& g : groups) {
    for (const std::size_t i : g.members) {
      if (served[i].response.find("\"ok\":true") == std::string::npos) {
        continue;  // an error or SL406 answer: counted in `failed`
      }
      const std::string id =
          json::parse(served[i].line)->find("id")->as_string();
      const std::string expect =
          g.ok ? service::render_result(id, g.req.kind, g.payload) : "";
      if (!g.ok || served[i].response != expect) {
        if (mismatches++ < 3) {
          r.notes.push_back("MISMATCH for " + served[i].line + "\n  served:   " +
                            served[i].response + "\n  expected: " + expect);
        }
        r.correct = false;
      }
    }
  }
  r.notes.push_back("checked " + std::to_string(served.size()) +
                    " responses over " + std::to_string(groups.size()) +
                    " distinct computations: " + std::to_string(mismatches) +
                    " mismatches, " + std::to_string(r.failed) + " errors");
}

int prefill_store(std::uint64_t seed, const std::string& store_dir,
                  int nproc) {
  // The program fills its own store: the prefill lines are served by
  // a ServiceCore (warm start off, so no index is written request by
  // request), and the similarity index is then rebuilt from the store.
  const HotMix mix = hot_mix_lines(seed, kHotPrefill, 0);
  const int clients = std::max(1, nproc);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> errors{0};
  {
    service::ServiceCore core(service::ServiceOptions(serve_defaults(store_dir))
                                  .with_warm_start(false)
                                  .with_workers(clients)
                                  .with_queue_depth(64));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        for (std::size_t i = next++; i < mix.prefill.size(); i = next++) {
          const std::string resp = core.handle(mix.prefill[i]);
          if (resp.find("\"ok\":true") == std::string::npos) ++errors;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  service::SimilarityIndex index(store_dir);
  if (!index.rebuild() || errors.load() != 0) return 1;
  // Write the store out now, so its write-back does not land in the
  // measured run.
  sync();
  return 0;
}

}  // namespace perfbench
