#include "pipeline/planner.hpp"

#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "tuner/wire.hpp"

namespace repro::pipeline {

namespace {

stencil::KernelVariant effective_variant(const Stage& st) {
  return st.variant.value_or(stencil::KernelVariant{});
}

}  // namespace

Planner::Planner(const device::Descriptor& dev, PlanOptions opt,
                 tuner::CalibrationCache* calibrations, StageCache* stages,
                 std::string dev_key)
    : dev_(dev),
      dev_key_(dev_key.empty() ? tuner::device_key(dev) : std::move(dev_key)),
      opt_(std::move(opt)),
      calibrations_(calibrations),
      stages_(stages) {}

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
  // stencil identity, shared across every problem size in the DAG
  // (and across plans, when the planner was given a cache).
  std::optional<tuner::CalibrationCache> own;
  tuner::CalibrationCache& calibrations =
      calibrations_ != nullptr ? *calibrations_ : own.emplace();
  // The tile space depends only on (dim, radius) once the device and
  // the enumeration options are fixed, as they are within a plan:
  // enumerated once per pair, shared by every stage that needs it.
  std::map<std::pair<int, int>, std::vector<hhc::TileSizes>> spaces;
  // The first stage of each stage_key: a repeat copies its answer.
  std::map<std::string, std::size_t> done;

  for (const std::size_t si : *order) {
    const Stage& st = p.stages[si];
    StageResult& r = plan.stages[si];
    r.id = st.id;
    r.stencil_name = st.stencil_name;
    r.stencil_text = st.stencil_text;
    r.problem = st.problem;
    r.repeat = st.repeat;

    const std::string ident =
        tuner::stencil_identity(st.stencil_name, st.stencil_text);
    const auto [first, fresh] = done.try_emplace(
        stage_key(dev_key_, ident, st.problem, effective_variant(st),
                  opt_.delta, opt_.enumeration),
        si);
    if (!fresh) {
      // An identical stage already ran: copy its finished answer.
      // Costs zero sweeps, zero pricings — the reuse tests pin this.
      const StageResult& src = plan.stages[first->second];
      r.reused = true;
      r.space_size = src.space_size;
      r.candidates_tried = src.candidates_tried;
      r.best = src.best;
    } else {
      const auto tune = [&] {
        tuner::Session sess(
            tuner::TuningContext::with_inputs(
                dev_, st.def, st.problem,
                calibrations.inputs(dev_key_, dev_, st.def, ident)),
            opt_.session);

        const std::pair<int, int> space_key{st.problem.dim, st.def.radius};
        auto sit = spaces.find(space_key);
        if (sit == spaces.end()) {
          sit = spaces
                    .emplace(space_key,
                             tuner::enumerate_feasible(
                                 st.problem.dim, sess.inputs().hw,
                                 opt_.enumeration, st.def.radius))
                    .first;
          ++plan.spaces_enumerated;
        }
        const std::vector<hhc::TileSizes>& space = sit->second;
        const tuner::ModelSweep sweep = sess.sweep_model(space, opt_.delta);
        StageOutcome out;
        out.space_size = sweep.space_size;
        out.candidates_tried = sweep.candidates.size();
        if (!sweep.candidates.empty()) {
          std::vector<stencil::KernelVariant> vars;
          if (st.variant) vars.push_back(*st.variant);
          out.best = sess.best_tile(sweep, vars);
        }
        plan.stats += sess.stats();
        return out;
      };
      // A stage any earlier plan tuned comes from the shared cache,
      // byte for byte what tune() would compute here.
      const StageOutcome out = stages_ != nullptr
                                   ? stages_->get_or_make(first->first, tune)
                                   : tune();
      r.space_size = out.space_size;
      r.candidates_tried = out.candidates_tried;
      r.best = out.best;
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
  return plan;
}

std::string render_plan(const PipelinePlan& plan) {
  json::Writer w(512 + 640 * plan.stages.size());
  w.begin_object().key("pipeline").value(plan.name);
  w.key("total_stages").value(plan.total_stages);
  w.key("stage_executions").value(plan.stage_executions);
  w.key("distinct_tasks").value(plan.distinct_tasks);
  w.key("feasible").value(plan.feasible).key("talg").value(plan.talg);
  w.key("texec").value(plan.texec).key("stages").begin_array();
  for (const StageResult& r : plan.stages) {
    w.begin_object().key("id").value(r.id);
    tuner::wire::write_stencil(w, r.stencil_name, r.stencil_text);
    tuner::wire::write(w.key("problem"), r.problem);
    w.key("repeat").value(r.repeat).key("reused").value(r.reused);
    w.key("space_size").value(r.space_size);
    w.key("candidates_tried").value(r.candidates_tried);
    if (r.best.feasible) {
      tuner::wire::write(w.key("best"), r.best, /*with_variant=*/true);
    } else {
      w.key("best").null();
    }
    w.key("talg_total").value(r.talg_total);
    w.key("texec_total").value(r.texec_total).end_object();
  }
  return w.end_array().end_object().take();
}

json::Value plan_to_json(const PipelinePlan& plan) {
  return *json::parse(render_plan(plan));
}

}  // namespace repro::pipeline
