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
void write_point(json::Writer& w, const tuner::EvaluatedPoint& ep) {
  wire::write(w, ep, /*with_variant=*/false);
}

std::string compute_predict(const Request& req, tuner::Session& session) {
  json::Writer w;
  wire::write(w.begin_object().key("tile"), *req.tile);
  if (req.threads) wire::write(w.key("threads"), *req.threads);
  if (req.variant) wire::write(w.key("variant"), *req.variant);
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
    w.key("feasible").value(ep.feasible).key("talg").value(ep.talg);
    w.key("texec").value(ep.texec).key("gflops").value(ep.gflops);
  } else {
    w.key("feasible").value(model_feasible);
    w.key("talg").value(talg);  // null when infeasible
  }
  return w.end_object().take();
}

std::string compute_best_tile(const Request& req, tuner::Session& session,
                              std::span<const tuner::WarmSeed> seeds) {
  const std::vector<hhc::TileSizes> space = tuner::enumerate_feasible(
      req.problem->dim, session.inputs().hw, req.enumeration, req.def.radius);
  const tuner::ModelSweep sweep = session.sweep_model(space, req.delta);

  json::Writer w;
  w.begin_object().key("space_size").value(sweep.space_size);
  w.key("candidates_tried").value(sweep.candidates.size());
  if (sweep.candidates.empty()) {
    w.key("talg_min").null().key("argmin").null().key("best").null();
    return w.end_object().take();
  }
  w.key("talg_min").value(sweep.talg_min);
  wire::write(w.key("argmin"), sweep.argmin);

  // Measure every within-delta candidate and reduce with the
  // first-strictly-better rule in candidate index order (best_tile's
  // reduction — deterministic for any job count, any pruning setting,
  // and any seed list; seeds only tighten the prune cutoff).
  const tuner::EvaluatedPoint best = session.best_tile(sweep, {}, seeds);
  if (best.feasible) {
    write_point(w.key("best"), best);
  } else {
    w.key("best").null();
  }
  return w.end_object().take();
}

std::string compute_compare(const Request& req, tuner::Session& session) {
  tuner::CompareOptions copt;
  copt.enumeration = req.enumeration;
  copt.delta = req.delta;
  copt.exhaustive_cap = req.exhaustive_cap;
  copt.baseline_count = req.baseline_count;
  const tuner::StrategyComparison cmp = session.compare_strategies(copt);

  json::Writer w;
  write_point(w.begin_object().key("hhc_default"), cmp.hhc_default);
  write_point(w.key("talg_min"), cmp.talg_min);
  write_point(w.key("baseline_best"), cmp.baseline_best);
  write_point(w.key("within10_best"), cmp.within10_best);
  write_point(w.key("exhaustive"), cmp.exhaustive);
  w.key("candidates_tried").value(cmp.candidates_tried);
  w.key("space_size").value(cmp.space_size);
  return w.end_object().take();
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

  json::Writer w;
  w.begin_object().key("ok").value(ok);
  write_diagnostics(w.key("diagnostics"), diags.diagnostics());
  if (!cone) return w.key("cone").null().end_object().take();
  w.key("cone").begin_object().key("dim").value(cone->dim);
  w.key("radius").begin_array();
  for (int i = 0; i < cone->dim; ++i) {
    w.value(cone->radius[static_cast<std::size_t>(i)]);
  }
  w.end_array().key("max_radius").value(cone->max_radius);
  w.key("symmetric").value(cone->symmetric);
  w.key("has_center").value(cone->has_center);
  w.key("tap_count").value(cone->tap_count);
  return w.end_object().end_object().take();
}

std::string compute_pipeline(const Request& req, const PlanShared& shared) {
  // The planner tunes each distinct stage from scratch on its own
  // Session (stage copies and caches are strictly work-saving), so the
  // payload is jobs-invariant and byte-deterministic: cold == warm ==
  // coalesced == CLI `once`. One job keeps the serving cost
  // predictable.
  pipeline::PlanOptions popt;
  popt.delta = req.delta;
  popt.enumeration = req.enumeration;
  popt.session = tuner::SessionOptions{}.with_jobs(1);
  pipeline::Planner planner(*device::registry().find(req.device), popt,
                            shared.calibrations, shared.stages,
                            std::string(shared.device_key));
  const pipeline::PipelinePlan plan = planner.plan(*req.pipe);
  if (shared.stats != nullptr) *shared.stats += plan.stats;
  return pipeline::render_plan(plan);
}

std::string compute_devices() {
  // A registry listing in registration order: stable identity plus
  // the human-oriented capability summary each descriptor renders.
  json::Writer w;
  w.begin_object().key("count").value(device::registry().size());
  w.key("devices").begin_array();
  for (const device::Descriptor& d : device::registry().devices()) {
    w.begin_object().key("name").value(d.name());
    w.key("kind").value(device::to_string(d.kind()));
    w.key("summary").value(d.summary()).end_object();
  }
  return w.end_array().end_object().take();
}

}  // namespace

std::string ServiceStats::to_json() const {
  json::Writer w;
  w.begin_object();
  // The group whose object is open, if any: a group's fields are
  // contiguous, so it opens at its first field and closes at the next
  // field outside it.
  std::string_view open;
  for_each_field([&](std::string_view g, std::string_view name, auto member) {
    if (g != open) {
      if (!open.empty()) w.end_object();
      if (!g.empty()) w.key(g).begin_object();
      open = g;
    }
    w.key(name).value(this->*member);
  });
  if (!open.empty()) w.end_object();
  return w.end_object().take();
}

std::string compute_payload(const Request& req, tuner::Session* session,
                            std::span<const tuner::WarmSeed> seeds,
                            const PlanShared& shared) {
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
      return compute_pipeline(req, shared);
  }
  throw std::logic_error("compute_payload: unhandled request kind");
}

ServiceCore::ServiceCore(ServiceOptions opt)
    : opt_(std::move(opt)),
      gate_(opt_.workers, opt_.queue_depth) {
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
    s.session_machine_points = tuner_stats_.machine_points;
    s.session_cache_hits = tuner_stats_.cache_hits;
    s.session_points_pruned = tuner_stats_.points_pruned;
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
  const tuner::CalibrationCache::Counters cal = calibrations_.counters();
  s.calibration_entries = cal.entries;
  s.calibration_hits = cal.hits;
  s.calibration_misses = cal.misses;
  s.calibration_evictions = cal.evictions;
  const pipeline::StageCache::Counters st = stages_.counters();
  s.stage_cache_entries = st.entries;
  s.stage_cache_hits = st.hits;
  s.stage_cache_misses = st.misses;
  s.stage_cache_evictions = st.evictions;
  return s;
}

const std::string& ServiceCore::device_key(const std::string& name) {
  std::lock_guard<std::mutex> lk(device_keys_mu_);
  std::string& key = device_keys_[name];
  if (key.empty()) key = tuner::device_key(*device::registry().find(name));
  return key;
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
  // This computation's tuner counters: its pipeline plan's, or its
  // Session's.
  tuner::SweepStats tuner_stats;
  std::optional<tuner::Session> session;
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

    if (needs_session(req)) {
      // Each computation tunes on its own Session. Only the calibration
      // is shared, through the service-wide cache: it depends on the
      // device and the stencil alone. parse_request already resolved
      // the name, so find() cannot miss here.
      const device::Descriptor& dev = *device::registry().find(req.device);
      const model::ModelInputs in = calibrations_.inputs(
          device_key(req.device), dev, req.def,
          tuner::stencil_identity(req.stencil_name, req.stencil_text));
      session.emplace(
          tuner::TuningContext::with_inputs(dev, req.def, *req.problem, in),
          tuner::SessionOptions{}.with_jobs(opt_.session_jobs));
    }
    PlanShared shared{&calibrations_, &stages_, &tuner_stats, {}};
    if (req.kind == RequestKind::kPipeline) {
      shared.device_key = device_key(req.device);
    }
    payload = compute_payload(req, session ? &*session : nullptr, seeds,
                              shared);
    ok = true;
  } catch (const std::exception& e) {
    diags.error(analysis::Code::kSvcInternal,
                std::string("computation failed: ") + e.what());
  } catch (...) {
    diags.error(analysis::Code::kSvcInternal,
                "computation failed: unknown exception");
  }
  if (session) tuner_stats += session->stats();
  const double elapsed = seconds_since(t0);
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.computed;
    stats_.compute_seconds += elapsed;
    tuner_stats_ += tuner_stats;
  }

  // The registry is process-local state (imports can extend it), so a
  // `devices` listing is never persisted — a stale store must not
  // shadow devices registered since.
  if (ok && store_ && req.kind != RequestKind::kDevices) {
    std::lock_guard<std::mutex> lk(store_mu_);
    if (store_->save(key, payload) && index_ &&
        SimilarityIndex::indexes(to_string(req.kind))) {
      // Keep the in-memory similarity index in step with the store. A
      // payload that carries no usable point (infeasible best) simply
      // yields no entry.
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

  // `stats` is instance state, answered at once: never stored, never
  // coalesced, never gated (it must stay responsive when every slot
  // is taken — that is exactly when you ask for stats).
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
    const AdmissionGate::Slot slot =
        gate_.enter(std::chrono::milliseconds(opt_.submit_wait_ms));
    if (slot) {
      run_compute(key, *req, flight);
    } else {
      analysis::DiagnosticEngine odiags;
      odiags.error(analysis::Code::kSvcOverloaded,
                   "service overloaded: compute line full (depth " +
                       std::to_string(gate_.depth()) +
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
