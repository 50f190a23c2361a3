// The tuned service core: request execution, singleflight coalescing
// and admission control, independent of any transport (the tools/
// daemon pumps stdin/stdout or a Unix socket through handle(); the
// tests call it directly).
//
// One request line in, one response line out:
//
//   parse  ->  store lookup  ->  coalesce  ->  bounded queue  ->
//   tuner::Session compute  ->  store save  ->  response
//
// Coalescing (singleflight): concurrent requests with the same
// canonical computation key share ONE in-flight computation — the
// first caller (the leader) submits the work, everyone else waits on
// the same Flight and receives the identical payload bytes.
//
// Admission control: the compute queue is bounded
// (ServiceOptions::queue_depth). When it is full, the leader waits at
// most `submit_wait_ms` for a slot and then fails fast with a
// structured SL406 `overloaded` error — the daemon never blocks a
// client forever and never drops a request silently.
//
// Determinism: a payload is computed once by compute_payload() and
// the resulting string is what gets stored, coalesced and rendered —
// cold computation, warm-store hit, and coalesced follower responses
// are byte-identical (pinned by tests/service and the CI smoke job).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "service/index.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"
#include "tuner/session.hpp"

namespace repro::service {

struct ServiceOptions {
  // Compute worker threads and bounded-queue depth (admission
  // control). One worker keeps per-session computation strictly
  // ordered; more workers parallelize across distinct sessions.
  int workers = 2;
  std::size_t queue_depth = 16;
  // How long a leader may wait for a queue slot before the request is
  // rejected as overloaded (0 = fail immediately when full).
  int submit_wait_ms = 0;
  // Worker threads inside each tuner::Session (<= 0: default_jobs()).
  int session_jobs = 1;
  // Persistent result store directory; empty disables the store.
  std::string store_dir;
  // Warm-start transfer: on a best_tile store miss, consult the
  // store's similarity index for results of the same (device,
  // stencil) on nearby problems and seed the sweep's incumbent with
  // them (tuner::Session::best_tile). Strictly advisory — responses
  // stay byte-identical with it off — so it defaults on. Needs a
  // store_dir.
  bool warm_start = true;
  // At most this many neighbor candidates are handed to a sweep.
  std::size_t warm_seed_limit = 3;

  ServiceOptions& with_workers(int w) noexcept { workers = w; return *this; }
  ServiceOptions& with_queue_depth(std::size_t d) noexcept {
    queue_depth = d;
    return *this;
  }
  ServiceOptions& with_submit_wait_ms(int ms) noexcept {
    submit_wait_ms = ms;
    return *this;
  }
  ServiceOptions& with_session_jobs(int j) noexcept {
    session_jobs = j;
    return *this;
  }
  ServiceOptions& with_store_dir(std::string d) {
    store_dir = std::move(d);
    return *this;
  }
  ServiceOptions& with_warm_start(bool w) noexcept {
    warm_start = w;
    return *this;
  }
  ServiceOptions& with_warm_seed_limit(std::size_t n) noexcept {
    warm_seed_limit = n;
    return *this;
  }
};

// Snapshot counters; stats() returns a consistent copy and
// stats_json() renders the one-line JSON the daemon prints on
// shutdown.
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;      // error responses (any cause)
  std::uint64_t overloaded = 0;  // ... of which admission rejections
  std::uint64_t computed = 0;    // computations actually executed
  std::uint64_t coalesced = 0;   // followers served by another flight
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_writes = 0;
  std::uint64_t store_errors = 0;
  std::uint64_t predict = 0;
  std::uint64_t best_tile = 0;
  std::uint64_t compare = 0;
  std::uint64_t lint = 0;
  std::uint64_t devices = 0;
  std::uint64_t stats_kind = 0;  // `stats` requests served
  std::uint64_t pipeline = 0;    // composed-pipeline requests
  // Warm-start transfer: similarity-index consultations and the
  // candidate seeds they produced.
  std::uint64_t warm_lookups = 0;
  std::uint64_t warm_seeds = 0;
  // Tuner activity aggregated over the live sessions (simulator
  // pricings requested, memo-cache hits, bound-pruned points) — the
  // near-miss bench's pricings-per-request numerator.
  std::uint64_t session_machine_points = 0;
  std::uint64_t session_cache_hits = 0;
  std::uint64_t session_points_pruned = 0;
  // Result-store directory scan (ResultStore::dir_stats; zeros
  // without a store).
  std::uint64_t store_entries = 0;
  std::uint64_t store_bytes = 0;
  double store_oldest_age_s = 0.0;
  double store_newest_age_s = 0.0;
  double compute_seconds = 0.0;  // wall time inside compute_payload
  double latency_seconds = 0.0;  // summed handle() wall time
  double latency_max = 0.0;

  std::string to_json() const;
};

// Executes one parsed request against a Session and returns the
// serialized result payload. This is THE payload producer: the
// service core, the `tuned once` mode and the byte-identity tests all
// call it, so "served result == direct Session result" holds by
// construction. `session` may be null for kLint, kDevices, kStats and
// kPipeline (the planner owns its own shared Session pool; the others
// need no per-problem tuner state). `seeds` are warm-start
// candidates for kBestTile, ignored by every other kind; because a
// seed is strictly advisory (Session::best_tile re-prices it and only
// admits in-space points), the payload is byte-identical for any
// seed list, including none. Throws on internal failure (the core
// converts that to SL407).
std::string compute_payload(const Request& req, tuner::Session* session,
                            std::span<const tuner::WarmSeed> seeds = {});

class ServiceCore {
 public:
  explicit ServiceCore(ServiceOptions opt = {});
  ~ServiceCore();

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  // Handles one request line and returns the one response line (no
  // trailing newline). Thread-safe; blocks the caller until the
  // response is ready (or the request is rejected as overloaded).
  std::string handle(const std::string& line);

  const ServiceOptions& options() const noexcept { return opt_; }
  ServiceStats stats() const;
  std::string stats_json() const { return stats().to_json(); }

  // Test hook: runs at the start of every computation, on the worker
  // thread. Set it before issuing traffic (not thread-safe against
  // concurrent handle() calls); tests use it to hold a computation
  // open while followers pile up or the queue fills.
  void set_compute_hook(std::function<void()> hook) {
    hook_ = std::move(hook);
  }

 private:
  // One in-flight computation, shared by its leader and any coalesced
  // followers.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    std::string payload;
    std::vector<analysis::Diagnostic> diags;
  };

  // A cached Session plus the mutex that serializes computations on
  // it (a Session's sweep methods must not run concurrently).
  struct SessionEntry {
    std::mutex mu;
    std::unique_ptr<tuner::Session> session;
  };

  void run_compute(const std::string& key, const Request& req,
                   const std::shared_ptr<Flight>& flight);
  SessionEntry& session_entry(const Request& req);
  void finish_flight(const std::string& key,
                     const std::shared_ptr<Flight>& flight, bool ok,
                     std::string payload,
                     std::vector<analysis::Diagnostic> diags);

  ServiceOptions opt_;
  std::optional<ResultStore> store_;
  // The in-memory warm-start similarity index derived from store_: it
  // scans the directory on the first lookup and follows every save.
  // Guarded by store_mu_ alongside the store it mirrors.
  std::optional<SimilarityIndex> index_;
  mutable std::mutex store_mu_;

  std::mutex flights_mu_;
  std::map<std::string, std::shared_ptr<Flight>> flights_;

  mutable std::mutex sessions_mu_;
  std::map<std::string, std::unique_ptr<SessionEntry>> sessions_;

  mutable std::mutex stats_mu_;
  ServiceStats stats_;

  std::function<void()> hook_;

  // Declared last: its destructor drains pending tasks, which may
  // touch everything above.
  BoundedTaskQueue queue_;
};

}  // namespace repro::service
