#include "pipeline/planner.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "tuner/wire.hpp"

namespace repro::pipeline {

namespace {

// The stencil identity a stage names: the catalogue name or the full
// DSL text, prefixed so the two namespaces cannot collide.
std::string identity_key(const Stage& st) {
  if (!st.stencil_text.empty()) return "text:" + st.stencil_text;
  return "name:" + st.stencil_name;
}

std::string problem_key(const stencil::ProblemSize& p) {
  std::string k = "S";
  for (int i = 0; i < p.dim; ++i) {
    k += ':';
    k += std::to_string(p.S[static_cast<std::size_t>(i)]);
  }
  k += "|T:";
  k += std::to_string(p.T);
  return k;
}

// At most this many same-stencil winners seed one stage's sweep.
constexpr std::size_t kWarmSeedLimit = 3;

std::string variant_key(const stencil::KernelVariant& var) {
  return var.to_string();
}

stencil::KernelVariant effective_variant(const Stage& st) {
  return st.variant.value_or(stencil::KernelVariant{});
}

}  // namespace

Planner::Planner(const device::Descriptor& dev, PlanOptions opt)
    : dev_(dev), opt_(std::move(opt)) {}

PipelinePlan Planner::plan(const Pipeline& p) {
  const std::optional<std::vector<std::size_t>> order = topo_order(p);
  if (!order) {
    throw std::invalid_argument(
        "pipeline has no topological order (cycle or undeclared stage id); "
        "parse_pipeline rejects such pipelines up front");
  }

  PipelinePlan plan;
  plan.name = p.name;
  plan.total_stages = p.stages.size();
  plan.stages.resize(p.stages.size());

  // Calibration depends only on (device, stencil): computed once per
  // stencil identity, shared across every problem size in the DAG.
  std::map<std::string, model::ModelInputs> calibrations;
  // The shared Session pool: one memoized session per (stencil,
  // problem).
  std::map<std::string, std::unique_ptr<tuner::Session>> sessions;
  // Finished tasks, by (stencil, problem, variant): the dedup map.
  std::map<std::string, std::size_t> done;
  // Feasible winners per stencil identity, in discovery order: the
  // warm-seed pool the level descent draws from.
  std::map<std::string, std::vector<Winner>> winners;

  for (const std::size_t si : *order) {
    const Stage& st = p.stages[si];
    StageResult& r = plan.stages[si];
    r.id = st.id;
    r.stencil_name = st.stencil_name;
    r.stencil_text = st.stencil_text;
    r.problem = st.problem;
    r.repeat = st.repeat;

    const std::string ident = identity_key(st);
    const std::string task = ident + "|" + problem_key(st.problem) + "|" +
                             variant_key(effective_variant(st));
    const auto prev = done.find(task);
    if (opt_.dedup && prev != done.end()) {
      // An identical task already ran: copy its finished answer.
      // Costs zero sweeps, zero pricings — the reuse tests pin this.
      const StageResult& src = plan.stages[prev->second];
      r.reused = true;
      r.space_size = src.space_size;
      r.candidates_tried = src.candidates_tried;
      r.best = src.best;
    } else {
      std::unique_ptr<tuner::Session>& sess =
          sessions[ident + "|" + problem_key(st.problem)];
      if (!sess) {
        const auto cit = calibrations.find(ident);
        if (cit == calibrations.end()) {
          tuner::TuningContext ctx =
              tuner::TuningContext::calibrate(dev_, st.def, st.problem);
          calibrations.emplace(ident, ctx.inputs);
          sess = std::make_unique<tuner::Session>(std::move(ctx),
                                                  opt_.session);
        } else {
          sess = std::make_unique<tuner::Session>(
              tuner::TuningContext::with_inputs(dev_, st.def, st.problem,
                                                cit->second),
              opt_.session);
        }
      }

      const std::vector<hhc::TileSizes> space = tuner::enumerate_feasible(
          st.problem.dim, sess->inputs().hw, opt_.enumeration, st.def.radius);
      const tuner::ModelSweep sweep = sess->sweep_model(space, opt_.delta);
      r.space_size = sweep.space_size;
      r.candidates_tried = sweep.candidates.size();
      if (!sweep.candidates.empty()) {
        std::vector<stencil::KernelVariant> vars;
        if (st.variant) vars.push_back(*st.variant);

        // Cross-level warm seeding: offer the winners already found
        // for this stencil at other problem sizes, same-variant
        // first, then nearest in log problem space, discovery order
        // breaking ties. best_tile re-prices every seed under this
        // stage's problem, so the result is byte-identical to cold.
        std::vector<tuner::WarmSeed> seeds;
        if (opt_.warm_seed) {
          const std::vector<Winner>& pool = winners[ident];
          for (const std::size_t i :
               seed_order(pool, st.problem, effective_variant(st))) {
            if (seeds.size() >= kWarmSeedLimit) break;
            seeds.push_back({pool[i].best.dp.ts, pool[i].best.dp.thr,
                             pool[i].best.dp.var});
          }
        }
        r.best = sess->best_tile(sweep.candidates, vars, seeds);
      }
      if (r.best.feasible) winners[ident].push_back({st.problem, r.best});
      done.emplace(task, si);
      ++plan.distinct_tasks;
    }

    const double rep = static_cast<double>(st.repeat);
    r.talg_total = rep * r.best.talg;
    r.texec_total = rep * r.best.texec;
  }

  plan.feasible = !plan.stages.empty();
  for (const StageResult& r : plan.stages) {
    plan.stage_executions += r.repeat;
    plan.talg += r.talg_total;
    plan.texec += r.texec_total;
    plan.feasible = plan.feasible && r.best.feasible;
  }
  for (const auto& [key, sess] : sessions) {
    (void)key;
    if (sess) plan.stats += sess->stats();
  }
  return plan;
}

std::vector<std::size_t> seed_order(std::span<const Winner> pool,
                                    const stencil::ProblemSize& problem,
                                    const stencil::KernelVariant& want) {
  std::vector<tuner::SeedCandidate> candidates;
  candidates.reserve(pool.size());
  for (const Winner& w : pool) candidates.push_back({w.problem, w.best.dp.var});
  return tuner::rank_warm_seeds(candidates, problem, want);
}

json::Value plan_to_json(const PipelinePlan& plan) {
  json::Value o = json::Value::object();
  o.set("pipeline", plan.name);
  o.set("total_stages", plan.total_stages);
  o.set("stage_executions", plan.stage_executions);
  o.set("distinct_tasks", plan.distinct_tasks);
  o.set("feasible", plan.feasible);
  o.set("talg", plan.talg);
  o.set("texec", plan.texec);
  json::Value stages = json::Value::array();
  for (const StageResult& r : plan.stages) {
    json::Value s = json::Value::object();
    s.set("id", r.id);
    if (!r.stencil_text.empty()) {
      s.set("text", r.stencil_text);
    } else {
      s.set("stencil", r.stencil_name);
    }
    s.set("problem", tuner::wire::to_json(r.problem));
    s.set("repeat", r.repeat);
    s.set("reused", r.reused);
    s.set("space_size", r.space_size);
    s.set("candidates_tried", r.candidates_tried);
    s.set("best", r.best.feasible ? tuner::wire::point_to_json(r.best, true)
                                  : json::Value());
    s.set("talg_total", r.talg_total);
    s.set("texec_total", r.texec_total);
    stages.push_back(std::move(s));
  }
  o.set("stages", std::move(stages));
  return o;
}

}  // namespace repro::pipeline
