#include "service/core.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <utility>

#include "analysis/audit.hpp"
#include "analysis/lint.hpp"
#include "device/registry.hpp"
#include "pipeline/planner.hpp"
#include "tuner/space.hpp"
#include "tuner/wire.hpp"

namespace repro::service {

namespace {

namespace wire = tuner::wire;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// best_tile and compare sweep the default variant; their points
// predate the variant axis and carry none.
json::Value point_to_json(const tuner::EvaluatedPoint& ep) {
  return wire::point_to_json(ep, false);
}

std::string compute_predict(const Request& req, tuner::Session& session) {
  json::Value o = json::Value::object();
  o.set("tile", wire::to_json(*req.tile));
  const double talg =
      tuner::model_talg_or_inf(session.inputs(), *req.problem, *req.tile);
  const bool model_feasible = std::isfinite(talg);
  if (req.threads && model_feasible) {
    // Full prediction: model price plus the simulated measurement of
    // the requested kernel variant (default when absent — the model
    // price is deliberately variant-blind either way).
    const tuner::EvaluatedPoint ep = session.evaluate_point(
        {*req.tile, *req.threads,
         req.variant.value_or(stencil::KernelVariant{})});
    o.set("threads", wire::to_json(*req.threads));
    if (req.variant) o.set("variant", wire::to_json(*req.variant));
    o.set("feasible", ep.feasible);
    o.set("talg", ep.talg);
    o.set("texec", ep.texec);
    o.set("gflops", ep.gflops);
  } else {
    if (req.threads) o.set("threads", wire::to_json(*req.threads));
    if (req.variant) o.set("variant", wire::to_json(*req.variant));
    o.set("feasible", model_feasible);
    o.set("talg", talg);  // null when infeasible
  }
  return o.dump();
}

std::string compute_best_tile(const Request& req, tuner::Session& session,
                              std::span<const tuner::WarmSeed> seeds) {
  const std::vector<hhc::TileSizes> space = tuner::enumerate_feasible(
      req.problem->dim, session.inputs().hw, req.enumeration, req.def.radius);
  const tuner::ModelSweep sweep = session.sweep_model(space, req.delta);

  json::Value o = json::Value::object();
  o.set("space_size", sweep.space_size);
  o.set("candidates_tried", sweep.candidates.size());
  if (sweep.candidates.empty()) {
    o.set("talg_min", nullptr);
    o.set("argmin", nullptr);
    o.set("best", nullptr);
    return o.dump();
  }
  o.set("talg_min", sweep.talg_min);
  o.set("argmin", wire::to_json(sweep.argmin));

  // Measure every within-delta candidate and reduce with the
  // first-strictly-better rule in candidate index order (best_tile's
  // reduction — deterministic for any job count, any pruning setting,
  // and any seed list; seeds only tighten the prune cutoff).
  const tuner::EvaluatedPoint best = session.best_tile(sweep.candidates,
                                                       {}, seeds);
  o.set("best", best.feasible ? point_to_json(best) : json::Value());
  return o.dump();
}

std::string compute_compare(const Request& req, tuner::Session& session) {
  tuner::CompareOptions copt;
  copt.enumeration = req.enumeration;
  copt.delta = req.delta;
  copt.exhaustive_cap = req.exhaustive_cap;
  copt.baseline_count = req.baseline_count;
  const tuner::StrategyComparison cmp = session.compare_strategies(copt);

  json::Value o = json::Value::object();
  o.set("hhc_default", point_to_json(cmp.hhc_default));
  o.set("talg_min", point_to_json(cmp.talg_min));
  o.set("baseline_best", point_to_json(cmp.baseline_best));
  o.set("within10_best", point_to_json(cmp.within10_best));
  o.set("exhaustive", point_to_json(cmp.exhaustive));
  o.set("candidates_tried", cmp.candidates_tried);
  o.set("space_size", cmp.space_size);
  return o.dump();
}

std::string compute_lint(const Request& req) {
  analysis::DiagnosticEngine diags;
  bool ok = false;
  std::optional<analysis::DependenceCone> cone;
  if (req.audit) {
    // The full semantic audit (SL5xx on top of the lint pipeline).
    analysis::AuditOptions aopt;
    aopt.ts = req.tile;
    aopt.thr = req.threads;
    aopt.problem = req.problem;
    aopt.dev = *device::registry().find(req.device);
    // Re-audit from source when the client sent DSL text, so parse
    // warnings come back line-anchored alongside the semantic ones.
    const analysis::AuditResult res =
        !req.stencil_text.empty()
            ? analysis::audit_stencil_text(req.stencil_text, aopt, diags)
            : analysis::audit_stencil_def(req.def, aopt, diags);
    ok = res.ok;
    cone = res.cone;
  } else {
    analysis::LintOptions lopt;
    lopt.ts = req.tile;
    lopt.thr = req.threads;
    lopt.problem = req.problem;
    lopt.hw = device::registry().find(req.device)->to_model_hardware();
    const analysis::LintResult res =
        !req.stencil_text.empty()
            ? analysis::lint_stencil_text(req.stencil_text, lopt, diags)
            : analysis::lint_stencil_def(req.def, lopt, diags);
    ok = res.ok;
    cone = res.cone;
  }

  json::Value o = json::Value::object();
  o.set("ok", ok);
  json::Value arr = json::Value::array();
  for (const analysis::Diagnostic& d : diags.diagnostics()) {
    json::Value e = json::Value::object();
    e.set("severity", std::string(analysis::to_string(d.severity)));
    e.set("code", std::string(analysis::code_name(d.code)));
    e.set("line", d.line);
    e.set("message", d.message);
    // Only audit-mode findings carry hints; audit-less payloads stay
    // byte-identical to the pre-audit protocol.
    if (!d.hint.empty()) e.set("hint", d.hint);
    arr.push_back(std::move(e));
  }
  o.set("diagnostics", std::move(arr));
  if (cone) {
    json::Value c = json::Value::object();
    c.set("dim", cone->dim);
    json::Value radius = json::Value::array();
    for (int i = 0; i < cone->dim; ++i) {
      radius.push_back(cone->radius[static_cast<std::size_t>(i)]);
    }
    c.set("radius", std::move(radius));
    c.set("max_radius", cone->max_radius);
    c.set("symmetric", cone->symmetric);
    c.set("has_center", cone->has_center);
    c.set("tap_count", cone->tap_count);
    o.set("cone", std::move(c));
  } else {
    o.set("cone", nullptr);
  }
  return o.dump();
}

std::string compute_pipeline(const Request& req) {
  // The planner runs its own shared Session pool (dedup + memo +
  // warm seeding, all strictly work-saving), so the payload is
  // jobs-invariant and byte-deterministic: cold == warm == coalesced
  // == CLI `once`. One job keeps the serving cost predictable.
  pipeline::PlanOptions popt;
  popt.delta = req.delta;
  popt.enumeration = req.enumeration;
  popt.session = tuner::SessionOptions{}.with_jobs(1);
  pipeline::Planner planner(*device::registry().find(req.device), popt);
  return pipeline::plan_to_json(planner.plan(*req.pipe)).dump();
}

std::string compute_devices() {
  // A registry listing in registration order: stable identity plus
  // the human-oriented capability summary each descriptor renders.
  json::Value arr = json::Value::array();
  for (const device::Descriptor& d : device::registry().devices()) {
    json::Value e = json::Value::object();
    e.set("name", d.name());
    e.set("kind", std::string(device::to_string(d.kind())));
    e.set("summary", d.summary());
    arr.push_back(std::move(e));
  }
  json::Value o = json::Value::object();
  o.set("count", device::registry().size());
  o.set("devices", std::move(arr));
  return o.dump();
}

}  // namespace

std::string ServiceStats::to_json() const {
  json::Value o = json::Value::object();
  o.set("requests", requests);
  o.set("errors", errors);
  o.set("overloaded", overloaded);
  o.set("computed", computed);
  o.set("coalesced", coalesced);
  o.set("store_hits", store_hits);
  o.set("store_misses", store_misses);
  o.set("store_writes", store_writes);
  o.set("store_errors", store_errors);
  json::Value kinds = json::Value::object();
  kinds.set("predict", predict);
  kinds.set("best_tile", best_tile);
  kinds.set("compare_strategies", compare);
  kinds.set("lint", lint);
  kinds.set("devices", devices);
  kinds.set("stats", stats_kind);
  kinds.set("pipeline", pipeline);
  o.set("kinds", std::move(kinds));
  o.set("warm_lookups", warm_lookups);
  o.set("warm_seeds", warm_seeds);
  o.set("session_machine_points", session_machine_points);
  o.set("session_cache_hits", session_cache_hits);
  o.set("session_points_pruned", session_points_pruned);
  o.set("store_entries", store_entries);
  o.set("store_bytes", store_bytes);
  o.set("store_oldest_age_s", store_oldest_age_s);
  o.set("store_newest_age_s", store_newest_age_s);
  o.set("compute_seconds", compute_seconds);
  o.set("latency_seconds", latency_seconds);
  o.set("latency_max", latency_max);
  return o.dump();
}

std::string compute_payload(const Request& req, tuner::Session* session,
                            std::span<const tuner::WarmSeed> seeds) {
  switch (req.kind) {
    case RequestKind::kPredict:
      return compute_predict(req, *session);
    case RequestKind::kBestTile:
      return compute_best_tile(req, *session, seeds);
    case RequestKind::kCompareStrategies:
      return compute_compare(req, *session);
    case RequestKind::kLint:
      return compute_lint(req);
    case RequestKind::kDevices:
      return compute_devices();
    case RequestKind::kStats:
      // Stats describe a serving instance; outside one (`tuned once`)
      // every counter is legitimately zero.
      return ServiceStats{}.to_json();
    case RequestKind::kPipeline:
      return compute_pipeline(req);
  }
  throw std::logic_error("compute_payload: unhandled request kind");
}

ServiceCore::ServiceCore(ServiceOptions opt)
    : opt_(std::move(opt)),
      queue_(opt_.workers, opt_.queue_depth) {
  if (!opt_.store_dir.empty()) {
    store_.emplace(opt_.store_dir);
    if (opt_.warm_start) index_.emplace(opt_.store_dir);
  }
}

ServiceCore::~ServiceCore() = default;

ServiceStats ServiceCore::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    s = stats_;
  }
  if (store_) {
    std::lock_guard<std::mutex> lk(store_mu_);
    const ResultStore::Counters c = store_->counters();
    s.store_hits = c.hits;
    s.store_misses = c.misses;
    s.store_writes = c.writes;
    s.store_errors = c.errors;
    const ResultStore::DirStats d = store_->dir_stats();
    s.store_entries = d.entries;
    s.store_bytes = d.bytes;
    s.store_oldest_age_s = d.oldest_age_seconds;
    s.store_newest_age_s = d.newest_age_seconds;
  }
  {
    // Tuner activity across the cached sessions. Sessions are only
    // ever appended, and a Session's stats() takes its own lock, so a
    // snapshot here is consistent per session.
    std::lock_guard<std::mutex> lk(sessions_mu_);
    for (const auto& [key, entry] : sessions_) {
      if (!entry || !entry->session) continue;
      const tuner::SweepStats ss = entry->session->stats();
      s.session_machine_points += ss.machine_points;
      s.session_cache_hits += ss.cache_hits;
      s.session_points_pruned += ss.points_pruned;
    }
  }
  return s;
}

ServiceCore::SessionEntry& ServiceCore::session_entry(const Request& req) {
  // Sessions are shared across requests that agree on device, stencil
  // identity and problem size — the Session's memoization then makes
  // overlapping requests (e.g. predict after best_tile) cache hits.
  json::Value k = json::Value::object();
  k.set("device", req.device);
  if (!req.stencil_text.empty()) {
    k.set("text", req.stencil_text);
  } else {
    k.set("stencil", req.stencil_name);
  }
  k.set("problem", wire::to_json(*req.problem));
  const std::string key = k.dump_canonical();

  std::lock_guard<std::mutex> lk(sessions_mu_);
  std::unique_ptr<SessionEntry>& entry = sessions_[key];
  if (!entry) entry = std::make_unique<SessionEntry>();
  return *entry;
}

void ServiceCore::finish_flight(const std::string& key,
                                const std::shared_ptr<Flight>& flight,
                                bool ok, std::string payload,
                                std::vector<analysis::Diagnostic> diags) {
  {
    // Remove the flight first (identity-checked: a later flight under
    // the same key must not be evicted), so a request arriving after
    // fulfillment starts fresh — and finds the store already warm.
    std::lock_guard<std::mutex> lk(flights_mu_);
    const auto it = flights_.find(key);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lk(flight->mu);
    flight->done = true;
    flight->ok = ok;
    flight->payload = std::move(payload);
    flight->diags = std::move(diags);
  }
  flight->cv.notify_all();
}

void ServiceCore::run_compute(const std::string& key, const Request& req,
                              const std::shared_ptr<Flight>& flight) {
  std::string payload;
  analysis::DiagnosticEngine diags;
  bool ok = false;
  const Clock::time_point t0 = Clock::now();
  try {
    if (hook_) hook_();

    // Warm-start transfer: on a best_tile miss, ask the similarity
    // index for the best configs of nearby problems on the same
    // (device, stencil). Seeds are advisory (re-priced, admitted only
    // in-space — see Session::best_tile), so the payload is the same
    // with or without them; they only let the sweep prune harder.
    std::vector<tuner::WarmSeed> seeds;
    if (index_ && req.kind == RequestKind::kBestTile && req.problem) {
      std::vector<SimilarityIndex::Neighbor> near;
      {
        std::lock_guard<std::mutex> lk(store_mu_);
        // best_tile sweeps the default variant, so same-(default-)
        // variant neighbors rank first — any other variant's seed
        // would be rejected in-space and waste its slot.
        near = index_->neighbors(req.device, req.stencil_name,
                                 req.stencil_text, *req.problem,
                                 stencil::KernelVariant{},
                                 opt_.warm_seed_limit);
      }
      seeds.reserve(near.size());
      for (const SimilarityIndex::Neighbor& n : near) {
        seeds.push_back(
            {n.entry.tile, n.entry.threads, n.entry.variant});
      }
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.warm_lookups;
      stats_.warm_seeds += seeds.size();
    }

    tuner::Session* session = nullptr;
    std::unique_lock<std::mutex> session_lock;
    if (needs_session(req)) {
      SessionEntry& entry = session_entry(req);
      session_lock = std::unique_lock<std::mutex>(entry.mu);
      if (!entry.session) {
        // parse_request already resolved the name, so find() cannot
        // miss here.
        entry.session = std::make_unique<tuner::Session>(
            *device::registry().find(req.device), req.def, *req.problem,
            tuner::SessionOptions{}.with_jobs(opt_.session_jobs));
      }
      session = entry.session.get();
    }
    payload = compute_payload(req, session, seeds);
    ok = true;
  } catch (const std::exception& e) {
    diags.error(analysis::Code::kSvcInternal,
                std::string("computation failed: ") + e.what());
  } catch (...) {
    diags.error(analysis::Code::kSvcInternal,
                "computation failed: unknown exception");
  }
  const double elapsed = seconds_since(t0);
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.computed;
    stats_.compute_seconds += elapsed;
  }

  // The registry is process-local state (imports can extend it), so a
  // `devices` listing is never persisted — a stale store must not
  // shadow devices registered since.
  if (ok && store_ && req.kind != RequestKind::kDevices) {
    std::lock_guard<std::mutex> lk(store_mu_);
    if (store_->save(key, payload) && index_) {
      // Keep the in-memory similarity index in step with the store. A
      // payload that carries no usable point (lint, infeasible best)
      // simply yields no entry.
      if (const std::optional<IndexEntry> e =
              SimilarityIndex::entry_from(key, payload)) {
        index_->append(*e);
      }
    }
  }
  finish_flight(key, flight, ok, std::move(payload), diags.diagnostics());
}

std::string ServiceCore::handle(const std::string& line) {
  const Clock::time_point t0 = Clock::now();
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.requests;
  }

  analysis::DiagnosticEngine diags;
  std::string id;
  const std::optional<Request> req = parse_request(line, diags, &id);
  if (!req) {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.errors;
    return render_error(id, diags.diagnostics());
  }
  // Every parsed request's response passes through here once, adding
  // its wall time to the latency counters.
  const auto answered = [&](std::string out, bool failed = false) {
    std::lock_guard<std::mutex> lk(stats_mu_);
    if (failed) ++stats_.errors;
    const double elapsed = seconds_since(t0);
    stats_.latency_seconds += elapsed;
    stats_.latency_max = std::max(stats_.latency_max, elapsed);
    return out;
  };
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    switch (req->kind) {
      case RequestKind::kPredict: ++stats_.predict; break;
      case RequestKind::kBestTile: ++stats_.best_tile; break;
      case RequestKind::kCompareStrategies: ++stats_.compare; break;
      case RequestKind::kLint: ++stats_.lint; break;
      case RequestKind::kDevices: ++stats_.devices; break;
      case RequestKind::kStats: ++stats_.stats_kind; break;
      case RequestKind::kPipeline: ++stats_.pipeline; break;
    }
  }

  // `stats` is instance state, answered inline: never stored, never
  // coalesced, never queued (it must stay responsive when the compute
  // queue is saturated — that is exactly when you ask for stats).
  if (req->kind == RequestKind::kStats) {
    return answered(render_result(req->id, req->kind, stats().to_json()));
  }

  const std::string key = req->canonical_key();

  if (store_ && req->kind != RequestKind::kDevices) {
    std::optional<std::string> hit;
    {
      std::lock_guard<std::mutex> lk(store_mu_);
      hit = store_->load(key);
    }
    if (hit) return answered(render_result(req->id, req->kind, *hit));
  }

  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lk(flights_mu_);
    std::shared_ptr<Flight>& slot = flights_[key];
    if (slot) {
      std::lock_guard<std::mutex> slk(stats_mu_);
      ++stats_.coalesced;
    } else {
      slot = std::make_shared<Flight>();
      leader = true;
    }
    flight = slot;
  }

  if (leader) {
    const bool accepted = queue_.try_submit(
        [this, key, flight, r = *req] { run_compute(key, r, flight); },
        std::chrono::milliseconds(opt_.submit_wait_ms));
    if (!accepted) {
      analysis::DiagnosticEngine odiags;
      odiags.error(analysis::Code::kSvcOverloaded,
                   "service overloaded: compute queue full (depth " +
                       std::to_string(queue_.depth()) +
                       "); retry later or raise --queue-depth");
      // Wake any followers that joined this flight before the
      // rejection — they get the same structured error.
      finish_flight(key, flight, false, "", odiags.diagnostics());
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.overloaded;
      }
    }
  }

  {
    std::unique_lock<std::mutex> lk(flight->mu);
    flight->cv.wait(lk, [&] { return flight->done; });
  }

  if (!flight->ok) {
    return answered(render_error(req->id, flight->diags), /*failed=*/true);
  }
  return answered(render_result(req->id, req->kind, flight->payload));
}

}  // namespace repro::service
