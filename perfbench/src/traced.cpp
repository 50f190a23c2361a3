// The traced run. It replays a sample of every workload's generated
// requests through the program's public functions, in the order
// ServiceCore::handle uses them, with a span around each call:
//
//   harness.request
//     service.parse         parse_request + canonical_key
//     service.stats         ResultStore::dir_stats (stats requests)
//     service.store_load    ResultStore::load
//     service.index_neighbors   SimilarityIndex::neighbors (best_tile misses)
//     tuner.session         Session construction, around
//       tuner.calibrate     TuningContext::calibrate
//     tuner.enumerate       enumerate_feasible (the call compute_payload
//                           makes first, repeated here to time it)
//     service.compute       compute_payload
//     pipeline.plan         Planner::plan (pipeline requests), then
//     pipeline.to_json      plan_to_json
//     service.store_save    ResultStore::save
//     service.index_append  SimilarityIndex::entry_from + append
//     service.render        render_result
//
// The tuner's internal split (model sweep, machine evaluation, and the
// simulator's geometry / pricing / bound time) comes from the
// Session::stats() counters around each compute, and pipeline counters
// from PipelinePlan::stats. Each section first serves the same
// requests untraced through ServiceCore; the replay must answer byte
// for byte the same, and the two totals give the tracing overhead.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>

#include "device/registry.hpp"
#include "gen.hpp"
#include "harness.hpp"
#include "pipeline/planner.hpp"
#include "service/index.hpp"
#include "service/store.hpp"
#include "tuner/session.hpp"

namespace perfbench {

using namespace repro;
namespace fs = std::filesystem;

namespace {

struct Mean {
  double sum = 0.0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double get() const { return n > 0 ? sum / static_cast<double>(n) : 0.0; }
};

tuner::SweepStats minus(const tuner::SweepStats& a, const tuner::SweepStats& b) {
  tuner::SweepStats d;
  d.model_points = a.model_points - b.model_points;
  d.machine_points = a.machine_points - b.machine_points;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.model_seconds = a.model_seconds - b.model_seconds;
  d.machine_seconds = a.machine_seconds - b.machine_seconds;
  d.profile_builds = a.profile_builds - b.profile_builds;
  d.profile_steps = a.profile_steps - b.profile_steps;
  d.profile_hits = a.profile_hits - b.profile_hits;
  d.geometry_seconds = a.geometry_seconds - b.geometry_seconds;
  d.pricing_seconds = a.pricing_seconds - b.pricing_seconds;
  d.points_pruned = a.points_pruned - b.points_pruned;
  d.bound_seconds = a.bound_seconds - b.bound_seconds;
  d.seeds_offered = a.seeds_offered - b.seeds_offered;
  d.seeds_admitted = a.seeds_admitted - b.seeds_admitted;
  return d;
}

void accumulate(tuner::SweepStats& a, const tuner::SweepStats& d) {
  a.model_points += d.model_points;
  a.machine_points += d.machine_points;
  a.cache_hits += d.cache_hits;
  a.model_seconds += d.model_seconds;
  a.machine_seconds += d.machine_seconds;
  a.profile_builds += d.profile_builds;
  a.profile_steps += d.profile_steps;
  a.profile_hits += d.profile_hits;
  a.geometry_seconds += d.geometry_seconds;
  a.pricing_seconds += d.pricing_seconds;
  a.points_pruned += d.points_pruned;
  a.bound_seconds += d.bound_seconds;
  a.seeds_offered += d.seeds_offered;
  a.seeds_admitted += d.seeds_admitted;
}

// Seeds as ServiceCore::run_compute derives them: the similarity
// index's neighbours of a best_tile request.
std::vector<tuner::WarmSeed> warm_seeds(service::SimilarityIndex& index,
                                        const service::Request& req,
                                        std::size_t limit) {
  std::vector<tuner::WarmSeed> seeds;
  if (req.kind != service::RequestKind::kBestTile || !req.problem) return seeds;
  for (const service::SimilarityIndex::Neighbor& n :
       index.neighbors(req.device, req.stencil_name, req.stencil_text,
                       *req.problem, stencil::KernelVariant{}, limit)) {
    seeds.push_back({n.entry.tile, n.entry.threads, n.entry.variant});
  }
  return seeds;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  return static_cast<std::size_t>(
      std::count(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>(), '\n'));
}

// Per-layer figures gathered across the replay.
struct Layers {
  std::map<std::string, Mean> span_s;  // mean span seconds, by span name
  std::size_t hits = 0, misses = 0;
  Mean index_entries;
  Mean space_points;
  Mean best_tile_machine_s, best_tile_model_s, compare_s;
  Mean request_machine_points;
  tuner::SweepStats tuned;          // cold_tune: every compute
  tuner::SweepStats gpu, cpu;       // ... split by backend
  tuner::SweepStats seeded;         // hot_mix best_tile misses
  std::size_t pipe_stages = 0, pipe_distinct = 0;
  Mean pipe_fresh, pipe_seeds;
  // Seconds inside service.compute / pipeline.plan spans that the
  // counters assign to the tuner and to each simulator.
  double moved_service = 0.0, moved_pipeline = 0.0, tuner_s = 0.0,
         gpusim_s = 0.0, cpusim_s = 0.0;
};

// Replays request lines the way ServiceCore::handle and run_compute
// process them, with one span per call into a layer.
class Replay {
 public:
  Replay(Tracer& t, Layers& layers, const std::string& store_dir,
         bool cold_tune, bool hot_mix)
      : t_(t),
        l_(layers),
        store_(store_dir),
        index_(store_dir),
        cold_tune_(cold_tune),
        hot_mix_(hot_mix) {}

  // Returns the response line.
  std::string handle(const std::string& line, std::uint64_t rid) {
    Tracer::Scope root(t_, "harness.request", rid);
    analysis::DiagnosticEngine diags;
    std::string id, key;
    std::optional<service::Request> req;
    timed("service.parse", rid, [&] {
      req = service::parse_request(line, diags, &id);
      if (req && req->kind != service::RequestKind::kStats) {
        key = req->canonical_key();
      }
    });
    if (!req) return service::render_error(id, diags.diagnostics());

    if (req->kind == service::RequestKind::kStats) {
      service::ServiceStats st;
      timed("service.stats", rid, [&] {
        const service::ResultStore::DirStats d = store_.dir_stats();
        st.store_entries = d.entries;
        st.store_bytes = d.bytes;
      });
      return service::render_result(req->id, req->kind, st.to_json());
    }

    std::optional<std::string> hit;
    timed("service.store_load", rid, [&] { hit = store_.load(key); });
    if (hot_mix_) ++(hit ? l_.hits : l_.misses);
    if (hit) {
      std::string out;
      timed("service.render", rid,
            [&] { out = service::render_result(req->id, req->kind, *hit); });
      return out;
    }

    std::vector<tuner::WarmSeed> seeds;
    if (req->kind == service::RequestKind::kBestTile) {
      if (hot_mix_) {
        l_.index_entries.add(static_cast<double>(count_lines(index_.path())));
      }
      timed("service.index_neighbors", rid,
            [&] { seeds = warm_seeds(index_, *req, 3); });
    }

    std::string payload;
    if (req->kind == service::RequestKind::kPipeline) {
      payload = plan(*req, rid);
    } else {
      payload = compute(*req, seeds, rid);
    }

    bool saved = false;
    timed("service.store_save", rid, [&] { saved = store_.save(key, payload); });
    if (saved) {
      timed("service.index_append", rid, [&] {
        if (const std::optional<service::IndexEntry> e =
                service::SimilarityIndex::entry_from(key, payload)) {
          index_.append(*e);
        }
      });
    }
    std::string out;
    timed("service.render", rid,
          [&] { out = service::render_result(req->id, req->kind, payload); });
    return out;
  }

 private:
  template <typename F>
  double timed(const char* name, std::uint64_t rid, F&& f) {
    const int i = t_.begin(name, rid);
    f();
    t_.end(i);
    const double s = t_.duration(i);
    l_.span_s[name].add(s);
    return s;
  }

  // The session ServiceCore would use: one per (device, stencil,
  // problem), created on first use.
  tuner::Session* session_for(const service::Request& req, std::uint64_t rid) {
    std::string key = req.device + "\n" + req.stencil_name + "\n" +
                      req.stencil_text + "\n" + req.problem->to_string();
    std::unique_ptr<tuner::Session>& s = sessions_[key];
    if (!s) {
      timed("tuner.session", rid, [&] {
        std::optional<tuner::TuningContext> ctx;
        timed("tuner.calibrate", rid, [&] {
          ctx = tuner::TuningContext::calibrate(
              *device::registry().find(req.device), req.def, *req.problem);
        });
        s = std::make_unique<tuner::Session>(
            std::move(*ctx), tuner::SessionOptions{}.with_jobs(1));
      });
    }
    return s.get();
  }

  std::string compute(const service::Request& req,
                      const std::vector<tuner::WarmSeed>& seeds,
                      std::uint64_t rid) {
    const bool tuning = req.kind == service::RequestKind::kBestTile ||
                        req.kind == service::RequestKind::kCompareStrategies;
    tuner::Session* session =
        req.kind == service::RequestKind::kLint ? nullptr : session_for(req, rid);
    if (tuning) {
      timed("tuner.enumerate", rid, [&] {
        const std::vector<hhc::TileSizes> space = tuner::enumerate_feasible(
            req.problem->dim, session->inputs().hw, req.enumeration,
            req.def.radius);
        if (cold_tune_) l_.space_points.add(static_cast<double>(space.size()));
      });
    }
    const tuner::SweepStats before =
        session != nullptr ? session->stats() : tuner::SweepStats{};
    std::string payload;
    const double s = timed(
        req.kind == service::RequestKind::kLint ? "analysis.lint"
                                                : "service.compute",
        rid, [&] { payload = service::compute_payload(req, session, seeds); });
    if (session == nullptr) return payload;

    const tuner::SweepStats d = minus(session->stats(), before);
    const double tuner_total = d.model_seconds + d.machine_seconds;
    const bool gpu = session->context().dev.is_gpu();
    l_.moved_service += tuner_total;
    l_.tuner_s += tuner_total - sim_seconds(d);
    (gpu ? l_.gpusim_s : l_.cpusim_s) += sim_seconds(d);
    if (cold_tune_ && tuning) {
      accumulate(l_.tuned, d);
      accumulate(gpu ? l_.gpu : l_.cpu, d);
      l_.request_machine_points.add(static_cast<double>(d.machine_points));
      if (req.kind == service::RequestKind::kBestTile) {
        l_.best_tile_machine_s.add(d.machine_seconds);
        l_.best_tile_model_s.add(d.model_seconds);
      } else {
        l_.compare_s.add(s);
      }
    }
    if (hot_mix_ && req.kind == service::RequestKind::kBestTile) {
      accumulate(l_.seeded, d);
    }
    return payload;
  }

  // compute_payload's pipeline branch, one call per span.
  std::string plan(const service::Request& req, std::uint64_t rid) {
    pipeline::PlanOptions popt;
    popt.delta = req.delta;
    popt.enumeration = req.enumeration;
    popt.session = tuner::SessionOptions{}.with_jobs(1);
    pipeline::Planner planner(*device::registry().find(req.device), popt);
    pipeline::PipelinePlan p;
    timed("pipeline.plan", rid, [&] { p = planner.plan(*req.pipe); });
    std::string payload;
    timed("pipeline.to_json", rid,
          [&] { payload = pipeline::plan_to_json(p).dump(); });
    l_.pipe_stages += p.total_stages;
    l_.pipe_distinct += p.distinct_tasks;
    l_.pipe_fresh.add(
        static_cast<double>(p.stats.machine_points - p.stats.cache_hits));
    l_.pipe_seeds.add(static_cast<double>(p.stats.seeds_admitted));
    const double tuner_total = p.stats.model_seconds + p.stats.machine_seconds;
    l_.moved_pipeline += tuner_total;
    l_.tuner_s += tuner_total - sim_seconds(p.stats);
    l_.gpusim_s += sim_seconds(p.stats);  // the planner's devices are GPUs
    return payload;
  }

  Tracer& t_;
  Layers& l_;
  service::ResultStore store_;
  service::SimilarityIndex index_;
  bool cold_tune_, hot_mix_;
  std::map<std::string, std::unique_ptr<tuner::Session>> sessions_;
};

// Untraced and traced totals of one section.
struct Overhead {
  double untraced = 0.0, traced = 0.0;
};

// Serves `served` (already answered untraced) again through the
// replay and compares every answer.
void replay_and_compare(Replay& rep, Tracer& t, const std::vector<Served>& served,
                        std::uint64_t rid0, Result& r, Overhead& ov) {
  for (std::size_t i = 0; i < served.size(); ++i) {
    const std::size_t before = t.spans().size();
    const std::string resp = rep.handle(served[i].line, rid0 + i);
    ov.traced += t.duration(static_cast<int>(before));
    const bool stats =
        served[i].line.find("\"kind\":\"stats\"") != std::string::npos;
    if (!stats && resp != served[i].response) {
      r.correct = false;
      r.notes.push_back("MISMATCH between the traced replay and the service for " +
                        served[i].line + "\n  service: " + served[i].response +
                        "\n  replay:  " + resp);
    }
  }
}

// A closed-loop section: `budget` seconds of untraced service, then
// the same requests replayed.
void closed_section(const Options& o, Tracer& t, Layers& layers,
                    const std::vector<std::string>& lines, double budget,
                    bool cold_tune, std::uint64_t rid0, Result& r,
                    Overhead& ov, std::vector<Served>& all) {
  const std::string a = o.work + "/trace_a", b = o.work + "/trace_b";
  fs::remove_all(a);
  fs::remove_all(b);
  std::vector<Served> served;
  {
    service::ServiceCore core(serve_defaults(a));
    const Clock::time_point t0 = Clock::now();
    for (const std::string& line : lines) {
      if (since(t0) >= budget) break;
      const Clock::time_point t1 = Clock::now();
      served.push_back({line, core.handle(line)});
      ov.untraced += since(t1);
    }
  }
  Replay rep(t, layers, b, cold_tune, false);
  replay_and_compare(rep, t, served, rid0, r, ov);
  all.insert(all.end(), served.begin(), served.end());
}

}  // namespace

Result run_traced(const Options& o) {
  Result r;
  Tracer t;
  Layers layers;
  Overhead ov;
  std::vector<Served> served_all;
  // Each section gets an eighth of the run for its untraced part; the
  // replay of the same requests takes about as long again.
  const double budget = o.seconds / 8.0;

  // cold_tune: a closed loop on an empty store.
  closed_section(o, t, layers, cold_tune_lines(o.seed, 4000), budget, true,
                 0, r, ov, served_all);

  // hot_mix: the base-rate open loop on a copy of the pre-filled store
  // gives the service's own counters and the generator lag; the same
  // requests are then served by one client untraced and replayed, each
  // on its own copy of the store.
  service::ServiceStats hot;
  double lag_p99_ms = 0.0;
  {
    const std::string pre = o.work + "/prefill";
    std::vector<std::string> copies;
    for (const char* c : {"/hot_open", "/hot_a", "/hot_b"}) {
      copies.push_back(o.work + c);
      fs::remove_all(copies.back());
      fs::copy(pre, copies.back(), fs::copy_options::recursive);
    }
    const double rate = 100.0;
    const std::size_t n = static_cast<std::size_t>(rate * budget);
    const HotMix mix = hot_mix_lines(o.seed, kHotPrefill, n);
    {
      service::ServiceCore core(serve_defaults(copies[0]));
      const OpenLoop l = open_loop(core, mix.stream, 0, n, rate, o.nproc);
      hot = core.stats();
      lag_p99_ms = percentile(l.lag, 0.99) * 1e3;
    }
    std::vector<Served> served;
    {
      service::ServiceCore core(serve_defaults(copies[1]));
      for (const std::string& line : mix.stream) {
        const Clock::time_point t1 = Clock::now();
        served.push_back({line, core.handle(line)});
        ov.untraced += since(t1);
      }
    }
    Replay rep(t, layers, copies[2], false, true);
    replay_and_compare(rep, t, served, 1000000, r, ov);
    served_all.insert(served_all.end(), served.begin(), served.end());
  }

  // vcycle_plan: a closed loop on an empty store.
  closed_section(o, t, layers, vcycle_lines(o.seed, 1200), budget, false,
                 2000000, r, ov, served_all);

  // parallel_sweep: sweep pairs under spans (parallel.sweep at
  // jobs = nproc, tuner.sweep at jobs = 1).
  ParallelStats par;
  {
    const std::vector<service::Request> reqs =
        parse_lines(sweep_lines(o.seed, 400), r);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < reqs.size() && since(t0) < 2.0 * budget; ++i) {
      const ParallelStats p =
          sweep_pair(reqs[i], o.nproc, i % 2 == 0, r, &t, 3000000 + i);
      par += p;
      const double sim = sim_seconds(p.stats_1);
      layers.tuner_s -= sim;  // tuner.sweep spans: the simulator part
      (p.gpu ? layers.gpusim_s : layers.cpusim_s) += sim;
    }
  }

  // The output check, with lint recomputations traced as analysis.lint.
  check_responses(served_all, o.nproc, r, &t);
  for (const Span& s : t.spans()) {
    if (s.name == "analysis.lint" && s.parent < 0) {
      layers.span_s["analysis.lint"].add(s.end - s.start);
    }
  }

  const Layers& L = layers;
  auto span_ms = [&](const char* n) {
    const auto it = L.span_s.find(n);
    return it == L.span_s.end() ? 0.0 : it->second.get() * 1e3;
  };
  auto n_of = [&](const char* n) {
    const auto it = L.span_s.find(n);
    return it == L.span_s.end() ? std::size_t{0} : it->second.n;
  };

  // service (hot_mix)
  r.add("service.parse_us", span_ms("service.parse") * 1e3, "us",
        n_of("service.parse"));
  r.add("service.store_load_us", span_ms("service.store_load") * 1e3, "us",
        n_of("service.store_load"));
  r.add("service.render_us", span_ms("service.render") * 1e3, "us",
        n_of("service.render"));
  r.add("service.store_hit_ratio",
        ratio(static_cast<double>(L.hits), static_cast<double>(L.hits + L.misses)),
        "ratio", L.hits + L.misses);
  r.add("service.index_neighbors_ms", span_ms("service.index_neighbors"), "ms",
        n_of("service.index_neighbors"));
  r.add("service.index_entries_scanned", L.index_entries.get(), "count",
        L.index_entries.n);
  r.add("service.index_append_us", span_ms("service.index_append") * 1e3, "us",
        n_of("service.index_append"));
  r.add("service.store_save_us", span_ms("service.store_save") * 1e3, "us",
        n_of("service.store_save"));
  r.add("service.stats_ms", span_ms("service.stats"), "ms",
        n_of("service.stats"));
  r.add("service.core_overhead_ms",
        ratio(hot.latency_seconds - hot.compute_seconds,
              static_cast<double>(hot.requests)) *
            1e3,
        "ms", hot.requests);
  r.add("service.coalesced_frac",
        ratio(static_cast<double>(hot.coalesced),
              static_cast<double>(hot.requests)),
        "ratio", hot.requests);
  r.add("service.overloaded", static_cast<double>(hot.overloaded), "count");

  // pipeline (vcycle_plan)
  r.add("pipeline.plan_ms", span_ms("pipeline.plan"), "ms",
        n_of("pipeline.plan"));
  r.add("pipeline.dedup_ratio",
        ratio(static_cast<double>(L.pipe_stages - L.pipe_distinct),
              static_cast<double>(L.pipe_stages)),
        "ratio", L.pipe_stages);
  r.add("pipeline.fresh_pricings", L.pipe_fresh.get(), "count", L.pipe_fresh.n);
  r.add("pipeline.seeds_admitted", L.pipe_seeds.get(), "count", L.pipe_seeds.n);

  // tuner (cold_tune; seeds on hot_mix)
  const tuner::SweepStats& T = L.tuned;
  r.add("tuner.calibrate_ms", span_ms("tuner.calibrate"), "ms",
        n_of("tuner.calibrate"));
  r.add("tuner.enumerate_ms", span_ms("tuner.enumerate"), "ms",
        n_of("tuner.enumerate"));
  r.add("tuner.space_points", L.space_points.get(), "count", L.space_points.n);
  r.add("tuner.sweep_model_ms", L.best_tile_model_s.get() * 1e3, "ms",
        L.best_tile_model_s.n);
  r.add("tuner.best_tile_ms", L.best_tile_machine_s.get() * 1e3, "ms",
        L.best_tile_machine_s.n);
  r.add("tuner.compare_ms", L.compare_s.get() * 1e3, "ms", L.compare_s.n);
  r.add("tuner.machine_points", L.request_machine_points.get(), "count",
        L.request_machine_points.n);
  r.add("tuner.cache_hit_ratio",
        ratio(static_cast<double>(T.cache_hits),
              static_cast<double>(T.machine_points)),
        "ratio");
  r.add("tuner.pruned_ratio",
        ratio(static_cast<double>(T.points_pruned),
              static_cast<double>(T.machine_points + T.points_pruned)),
        "ratio");
  r.add("tuner.seeds_admitted_ratio",
        ratio(static_cast<double>(L.seeded.seeds_admitted),
              static_cast<double>(L.seeded.seeds_offered)),
        "ratio", L.seeded.seeds_offered);

  // gpusim / cpusim (cold_tune)
  const tuner::SweepStats& G = L.gpu;
  const tuner::SweepStats& C = L.cpu;
  const double g_profiles =
      static_cast<double>(G.profile_builds + G.profile_steps);
  const double g_priced = static_cast<double>(G.machine_points - G.cache_hits);
  const double c_priced = static_cast<double>(C.machine_points - C.cache_hits);
  r.add("gpusim.geometry_ms_per_profile",
        ratio(G.geometry_seconds, g_profiles) * 1e3, "ms");
  r.add("gpusim.profile_step_ratio",
        ratio(static_cast<double>(G.profile_steps), g_profiles), "ratio");
  r.add("gpusim.pricing_us_per_point", ratio(G.pricing_seconds, g_priced) * 1e6,
        "us");
  r.add("gpusim.bound_us_per_point",
        ratio(G.bound_seconds,
              g_priced + static_cast<double>(G.points_pruned)) *
            1e6,
        "us");
  r.add("cpusim.pricing_us_per_point", ratio(C.pricing_seconds, c_priced) * 1e6,
        "us");
  r.add("cpusim.pruned_ratio",
        ratio(static_cast<double>(C.points_pruned),
              static_cast<double>(C.machine_points + C.points_pruned)),
        "ratio");

  // common/parallel (parallel_sweep)
  r.add("parallel.busy_frac",
        ratio(par.timed_n, static_cast<double>(o.nproc) * par.wall_n), "ratio");
  r.add("parallel.timed_seconds_inflation", ratio(par.timed_n, par.timed_1),
        "ratio");
  r.add("parallel.speedup", ratio(par.wall_1, par.wall_n), "x");

  // analysis (hot_mix lint requests)
  r.add("analysis.lint_us", span_ms("analysis.lint") * 1e3, "us",
        n_of("analysis.lint"));

  // harness and trace
  r.add("harness.generator_lag_ms", lag_p99_ms, "ms");
  r.add("trace.overhead_frac", ratio(ov.traced, ov.untraced) - 1.0, "ratio");
  r.add("trace.spans", static_cast<double>(t.spans().size()), "count");

  // Self time per layer: span self time, with the counter-derived
  // tuner / simulator seconds moved out of the spans that contain them.
  std::map<std::string, double> self = t.self_seconds_by_layer();
  self["service"] -= L.moved_service;
  self["pipeline"] -= L.moved_pipeline;
  self["tuner"] += L.tuner_s;
  self["gpusim"] += L.gpusim_s;
  self["cpusim"] += L.cpusim_s;
  for (const char* layer : {"harness", "service", "pipeline", "tuner",
                            "gpusim", "cpusim", "parallel", "analysis"}) {
    r.add(std::string("self.") + layer + "_ms", self[layer] * 1e3, "ms");
  }

  const std::string spans =
      (fs::path(o.work).parent_path() / ("trace-" + o.workload + ".jsonl"))
          .string();
  if (t.write_jsonl(spans)) r.notes.push_back("spans written to " + spans);
  return r;
}

}  // namespace perfbench
