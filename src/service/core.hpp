// The tuned service core: request execution, singleflight coalescing
// and admission control, independent of any transport (the tools/
// daemon pumps stdin/stdout or a Unix socket through handle(); the
// tests call it directly).
//
// One request line in, one response line out:
//
//   parse  ->  store lookup  ->  coalesce  ->  admission gate  ->
//   tuner::Session compute  ->  store save  ->  response
//
// Every step runs on the thread that called handle().
//
// Coalescing (singleflight): concurrent requests with the same
// canonical computation key share ONE in-flight computation — the
// first caller (the leader) computes it, everyone else waits on the
// same Flight and receives the identical payload bytes.
//
// Admission control: at most ServiceOptions::workers leaders compute
// at once and at most `queue_depth` more wait for a turn, in arrival
// order (AdmissionGate). A leader that finds the line full waits at
// most `submit_wait_ms` for room and then fails fast with a
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
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "pipeline/stage_cache.hpp"
#include "service/index.hpp"
#include "service/protocol.hpp"
#include "service/store.hpp"
#include "tuner/session.hpp"

namespace repro::service {

struct ServiceOptions {
  // Admission control: computations running at once (<= 0:
  // default_jobs()), each on the thread of the request that leads it,
  // and leaders that may wait in line for a turn (0 means 1). Each
  // computation tunes on its own tuner::Session, so distinct
  // computations run in parallel, on one problem or many.
  int workers = 2;
  std::size_t queue_depth = 16;
  // How long a leader may wait for room in a full line before the
  // request is rejected as overloaded (0 = fail immediately when full).
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
  // Tuner activity summed over every finished computation, pipeline
  // plans included (simulator pricings requested, memo-cache hits,
  // bound-pruned points) — the near-miss bench's pricings-per-request
  // numerator.
  std::uint64_t session_machine_points = 0;
  std::uint64_t session_cache_hits = 0;
  std::uint64_t session_points_pruned = 0;
  // The service-wide calibration cache (tuner::CalibrationCache):
  // entries held (at most its capacity), lookups it served, lookups
  // that calibrated, and entries evicted at the cap.
  std::uint64_t calibration_entries = 0;
  std::uint64_t calibration_hits = 0;
  std::uint64_t calibration_misses = 0;
  std::uint64_t calibration_evictions = 0;
  // The service-wide pipeline stage cache (pipeline::StageCache), the
  // same four counters: entries held (within its entry and byte
  // bounds), stages served, stages tuned, entries evicted.
  std::uint64_t stage_cache_entries = 0;
  std::uint64_t stage_cache_hits = 0;
  std::uint64_t stage_cache_misses = 0;
  std::uint64_t stage_cache_evictions = 0;
  // The result store's table (ResultStore::dir_stats; zeros without a
  // store): distinct keys, the log's length in bytes read in, and the
  // ages of the oldest and newest of those keys' records.
  std::uint64_t store_entries = 0;
  std::uint64_t store_bytes = 0;
  double store_oldest_age_s = 0.0;
  double store_newest_age_s = 0.0;
  double compute_seconds = 0.0;  // wall time inside compute_payload
  double latency_seconds = 0.0;  // summed handle() wall time
  double latency_max = 0.0;

  // Every field once, as f(group, name, member pointer) in the order
  // to_json writes them. `group` is empty for a top-level key and
  // names the nested object ("kinds") otherwise; a group's fields are
  // contiguous, and the group sits where its first field does.
  template <class F>
  static void for_each_field(F&& f) {
    f("", "requests", &ServiceStats::requests);
    f("", "errors", &ServiceStats::errors);
    f("", "overloaded", &ServiceStats::overloaded);
    f("", "computed", &ServiceStats::computed);
    f("", "coalesced", &ServiceStats::coalesced);
    f("", "store_hits", &ServiceStats::store_hits);
    f("", "store_misses", &ServiceStats::store_misses);
    f("", "store_writes", &ServiceStats::store_writes);
    f("", "store_errors", &ServiceStats::store_errors);
    f("kinds", "predict", &ServiceStats::predict);
    f("kinds", "best_tile", &ServiceStats::best_tile);
    f("kinds", "compare_strategies", &ServiceStats::compare);
    f("kinds", "lint", &ServiceStats::lint);
    f("kinds", "devices", &ServiceStats::devices);
    f("kinds", "stats", &ServiceStats::stats_kind);
    f("kinds", "pipeline", &ServiceStats::pipeline);
    f("", "warm_lookups", &ServiceStats::warm_lookups);
    f("", "warm_seeds", &ServiceStats::warm_seeds);
    f("", "session_machine_points", &ServiceStats::session_machine_points);
    f("", "session_cache_hits", &ServiceStats::session_cache_hits);
    f("", "session_points_pruned", &ServiceStats::session_points_pruned);
    f("", "calibration_entries", &ServiceStats::calibration_entries);
    f("", "calibration_hits", &ServiceStats::calibration_hits);
    f("", "calibration_misses", &ServiceStats::calibration_misses);
    f("", "calibration_evictions", &ServiceStats::calibration_evictions);
    f("", "stage_cache_entries", &ServiceStats::stage_cache_entries);
    f("", "stage_cache_hits", &ServiceStats::stage_cache_hits);
    f("", "stage_cache_misses", &ServiceStats::stage_cache_misses);
    f("", "stage_cache_evictions", &ServiceStats::stage_cache_evictions);
    f("", "store_entries", &ServiceStats::store_entries);
    f("", "store_bytes", &ServiceStats::store_bytes);
    f("", "store_oldest_age_s", &ServiceStats::store_oldest_age_s);
    f("", "store_newest_age_s", &ServiceStats::store_newest_age_s);
    f("", "compute_seconds", &ServiceStats::compute_seconds);
    f("", "latency_seconds", &ServiceStats::latency_seconds);
    f("", "latency_max", &ServiceStats::latency_max);
  }

  std::string to_json() const;
};

// What a kPipeline plan shares with a serving instance: the caches it
// draws from and the counters its sessions' work is added to. Each may
// be null; a plan then keeps its own calibrations, tunes every distinct
// stage itself and reports nothing. The payload is the same either way.
struct PlanShared {
  tuner::CalibrationCache* calibrations = nullptr;
  pipeline::StageCache* stages = nullptr;
  tuner::SweepStats* stats = nullptr;
  // tuner::device_key of the request's device; empty: the planner
  // serializes the descriptor itself.
  std::string_view device_key;
};

// Executes one parsed request against a Session and returns the
// serialized result payload. This is THE payload producer: the
// service core, the `tuned once` mode and the byte-identity tests all
// call it, so "served result == direct Session result" holds by
// construction. `session` may be null for kLint, kDevices, kStats and
// kPipeline (the planner builds a Session per distinct stage; the others
// need no per-problem tuner state). `seeds` are warm-start
// candidates for kBestTile, ignored by every other kind; because a
// seed is strictly advisory (Session::best_tile re-prices it and only
// admits in-space points), the payload is byte-identical for any
// seed list, including none. `shared` is what a kPipeline plan shares
// with the service (PlanShared); `tuned once` passes none. Throws on
// internal failure (the core converts that to SL407).
std::string compute_payload(const Request& req, tuner::Session* session,
                            std::span<const tuner::WarmSeed> seeds = {},
                            const PlanShared& shared = {});

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

  // Test hook: runs at the start of every computation, on the
  // leader's thread once it holds a slot. Set it before issuing
  // traffic (not thread-safe against concurrent handle() calls); tests
  // use it to hold a computation open while followers pile up or the
  // line fills.
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

  // Runs one computation on the leader's thread: a kPredict, kBestTile
  // or kCompareStrategies request on a Session of its own (calibrated
  // through calibrations_), a pipeline through the shared caches.
  // Adds its tuner counters to tuner_stats_, saves the payload and
  // finishes the flight.
  void run_compute(const std::string& key, const Request& req,
                   const std::shared_ptr<Flight>& flight);
  // tuner::device_key of the registered device `name`, serialized on
  // first use. A name's descriptor never changes (the registry rejects
  // duplicates), so the key is computed once per service.
  const std::string& device_key(const std::string& name);
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

  std::mutex device_keys_mu_;
  std::map<std::string, std::string> device_keys_;

  // Calibrated model inputs by (device, stencil), shared by every
  // computation's Session and every pipeline plan. Thread-safe.
  tuner::CalibrationCache calibrations_;
  // Finished pipeline stages, shared by every plan. Thread-safe.
  pipeline::StageCache stages_;

  mutable std::mutex stats_mu_;
  ServiceStats stats_;
  // The tuner counters of every finished computation: its own
  // Session's, or its pipeline plan's sessions'. Guarded by
  // stats_mu_.
  tuner::SweepStats tuner_stats_;

  std::function<void()> hook_;

  AdmissionGate gate_;
};

}  // namespace repro::service
