#include "pipeline/pipeline.hpp"

#include <exception>
#include <map>
#include <utility>

#include "stencil/parser.hpp"
#include "tuner/wire.hpp"

namespace repro::pipeline {

namespace {

using analysis::Code;
using analysis::DiagnosticEngine;
namespace wire = tuner::wire;

std::optional<Stage> parse_stage(const json::Value& v,
                                 DiagnosticEngine& diags) {
  if (!v.is_object()) {
    diags.error(Code::kPipeMalformed, "every stage must be a JSON object");
    return std::nullopt;
  }
  Stage st;
  // Recover the id first so later errors can name the stage.
  if (const json::Value* id = v.find("id");
      id != nullptr && id->is_string()) {
    st.id = id->as_string();
  }
  if (st.id.empty()) {
    diags.error(Code::kPipeMalformed,
                "every stage requires a non-empty string 'id'");
    return std::nullopt;
  }
  for (const auto& [key, val] : v.members()) {
    (void)val;
    if (key != "id" && key != "stencil" && key != "text" && key != "problem" &&
        key != "repeat" && key != "after" && key != "level" &&
        key != "variant") {
      diags.error(Code::kPipeMalformed,
                  "stage '" + st.id + "': unknown field '" + key + "'");
      return std::nullopt;
    }
  }

  const json::Value* name = v.find("stencil");
  const json::Value* text = v.find("text");
  if ((name == nullptr) == (text == nullptr)) {
    diags.error(Code::kPipeMalformed,
                "stage '" + st.id +
                    "': exactly one of 'stencil' (catalogue name) or 'text' "
                    "(DSL program) is required");
    return std::nullopt;
  }
  if (name != nullptr) {
    if (!name->is_string()) {
      diags.error(Code::kPipeMalformed,
                  "stage '" + st.id + "': 'stencil' must be a string");
      return std::nullopt;
    }
    st.stencil_name = name->as_string();
    try {
      st.def = stencil::get_stencil_by_name(st.stencil_name);
    } catch (const std::exception&) {
      diags.error(Code::kPipeUnknownStencil,
                  "stage '" + st.id + "': unknown catalogue stencil '" +
                      st.stencil_name + "'");
      return std::nullopt;
    }
  } else {
    if (!text->is_string()) {
      diags.error(Code::kPipeMalformed,
                  "stage '" + st.id + "': 'text' must be a string");
      return std::nullopt;
    }
    st.stencil_text = text->as_string();
    // Parse diagnostics (SL1xx, line-anchored into the DSL text) flow
    // straight through.
    const std::optional<stencil::StencilDef> def =
        stencil::parse_stencil(st.stencil_text, diags);
    if (!def) return std::nullopt;
    st.def = *def;
  }

  const json::Value* p = v.find("problem");
  if (p == nullptr) {
    diags.error(Code::kPipeMalformed,
                "stage '" + st.id + "': 'problem' is required");
    return std::nullopt;
  }
  // Every fragment error is SL601, named after its stage.
  const wire::Codes codes{Code::kPipeMalformed, Code::kPipeMalformed,
                          Code::kPipeMalformed, "stage '" + st.id + "': "};
  const std::optional<stencil::ProblemSize> problem =
      wire::parse_problem(*p, codes, diags);
  if (!problem) return std::nullopt;
  st.problem = *problem;
  if (st.problem.dim != st.def.dim) {
    diags.error(Code::kPipeLevelMismatch,
                "stage '" + st.id + "': 'problem.S' has " +
                    std::to_string(st.problem.dim) +
                    " extents but the stencil is " +
                    std::to_string(st.def.dim) + "-dimensional");
    return std::nullopt;
  }

  if (v.find("repeat") != nullptr) {
    const std::optional<std::int64_t> r =
        wire::read_int(v, "repeat", 1, 1 << 20, codes, diags);
    if (!r) return std::nullopt;
    st.repeat = *r;
  }
  if (const json::Value* a = v.find("after"); a != nullptr) {
    if (!a->is_array()) {
      diags.error(Code::kPipeMalformed,
                  "stage '" + st.id + "': 'after' must be an array of ids");
      return std::nullopt;
    }
    for (const json::Value& e : a->items()) {
      if (!e.is_string() || e.as_string().empty()) {
        diags.error(Code::kPipeMalformed,
                    "stage '" + st.id +
                        "': 'after' entries must be non-empty stage ids");
        return std::nullopt;
      }
      st.after.push_back(e.as_string());
    }
  }
  if (v.find("level") != nullptr) {
    const std::optional<std::int64_t> l =
        wire::read_int(v, "level", 0, 1 << 20, codes, diags);
    if (!l) return std::nullopt;
    st.level = *l;
  }
  if (const json::Value* var = v.find("variant"); var != nullptr) {
    st.variant = wire::parse_variant(*var, codes, diags);
    if (!st.variant) return std::nullopt;
  }
  return st;
}

}  // namespace

void Pipeline::write(json::Writer& w) const {
  // Keys sorted at every level (the canonical form).
  w.begin_object().key("name").value(name);
  w.key("pipeline_version").value(kPipelineVersion).key("stages").begin_array();
  for (const Stage& st : stages) {
    w.begin_object().key("after").begin_array();
    for (const std::string& a : st.after) w.value(a);
    w.end_array().key("id").value(st.id);
    // Only when present: the annotations are optional in the IR, and
    // the normalized form keeps them optional (absent != 0).
    if (st.level) w.key("level").value(*st.level);
    wire::write(w.key("problem"), st.problem);
    w.key("repeat").value(st.repeat);
    wire::write_stencil(w, st.stencil_name, st.stencil_text);
    if (st.variant) {
      wire::write(w.key("variant"), *st.variant, wire::Order::kSorted);
    }
    w.end_object();
  }
  w.end_array().end_object();
}

std::optional<std::vector<std::size_t>> topo_order(const Pipeline& p) {
  const std::size_t n = p.stages.size();
  std::map<std::string, std::size_t> by_id;
  for (std::size_t i = 0; i < n; ++i) {
    if (!by_id.emplace(p.stages[i].id, i).second) return std::nullopt;
  }
  // indegree plus forward adjacency from the `after` edges.
  std::vector<std::size_t> indeg(n, 0);
  std::vector<std::vector<std::size_t>> succ(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::string& a : p.stages[i].after) {
      const auto it = by_id.find(a);
      if (it == by_id.end()) return std::nullopt;
      succ[it->second].push_back(i);
      ++indeg[i];
    }
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    // Smallest-declaration-index ready stage: deterministic for any
    // spelling of the same DAG. Pipelines are small, so the quadratic
    // scan is simpler than a heap and just as fast in practice.
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!placed[i] && indeg[i] == 0) {
        pick = i;
        break;
      }
    }
    if (pick == n) return std::nullopt;  // every remaining stage waits: cycle
    placed[pick] = true;
    order.push_back(pick);
    for (const std::size_t s : succ[pick]) --indeg[s];
  }
  return order;
}

std::optional<Pipeline> parse_pipeline(const json::Value& doc,
                                       DiagnosticEngine& diags) {
  if (!doc.is_object()) {
    diags.error(Code::kPipeMalformed, "pipeline must be a JSON object");
    return std::nullopt;
  }
  for (const auto& [key, val] : doc.members()) {
    (void)val;
    if (key != "pipeline_version" && key != "name" && key != "stages") {
      diags.error(Code::kPipeMalformed,
                  "unknown pipeline field '" + key + "'");
      return std::nullopt;
    }
  }
  const json::Value* ver = doc.find("pipeline_version");
  if (ver == nullptr || !ver->is_int() || ver->as_int() != kPipelineVersion) {
    diags.error(Code::kPipeMalformed,
                "'pipeline_version' is required and must be " +
                    std::to_string(kPipelineVersion));
    return std::nullopt;
  }
  Pipeline p;
  if (const json::Value* name = doc.find("name"); name != nullptr) {
    if (!name->is_string()) {
      diags.error(Code::kPipeMalformed, "'name' must be a string");
      return std::nullopt;
    }
    p.name = name->as_string();
  }
  const json::Value* stages = doc.find("stages");
  if (stages == nullptr || !stages->is_array() || stages->size() == 0) {
    diags.error(Code::kPipeMalformed,
                "'stages' must be a non-empty array of stage objects");
    return std::nullopt;
  }
  for (const json::Value& sv : stages->items()) {
    std::optional<Stage> st = parse_stage(sv, diags);
    if (!st) return std::nullopt;
    p.stages.push_back(std::move(*st));
  }

  // Cross-stage checks, in declaration order so messages are stable.
  std::map<std::string, std::size_t> by_id;
  for (std::size_t i = 0; i < p.stages.size(); ++i) {
    if (!by_id.emplace(p.stages[i].id, i).second) {
      diags.error(Code::kPipeUnknownStage,
                  "duplicate stage id '" + p.stages[i].id + "'");
      return std::nullopt;
    }
  }
  for (const Stage& st : p.stages) {
    for (const std::string& a : st.after) {
      if (by_id.find(a) == by_id.end()) {
        diags.error(Code::kPipeUnknownStage,
                    "stage '" + st.id + "': 'after' references undeclared "
                        "stage '" + a + "'");
        return std::nullopt;
      }
    }
  }
  // Stages annotated with the same multigrid level must agree on the
  // spatial extents (T — the steps run at that level — may differ).
  std::map<std::int64_t, std::size_t> level_rep;
  for (std::size_t i = 0; i < p.stages.size(); ++i) {
    const Stage& st = p.stages[i];
    if (!st.level) continue;
    const auto [it, fresh] = level_rep.emplace(*st.level, i);
    if (fresh) continue;
    const Stage& rep = p.stages[it->second];
    bool same = rep.problem.dim == st.problem.dim;
    for (int d = 0; same && d < st.problem.dim; ++d) {
      same = rep.problem.S[static_cast<std::size_t>(d)] ==
             st.problem.S[static_cast<std::size_t>(d)];
    }
    if (!same) {
      diags.error(Code::kPipeLevelMismatch,
                  "stage '" + st.id + "': level " + std::to_string(*st.level) +
                      " spatial extents disagree with stage '" + rep.id + "'");
      return std::nullopt;
    }
  }
  if (!topo_order(p)) {
    // Ids and edges were validated above, so the only way to fail
    // here is a dependency cycle.
    diags.error(Code::kPipeCycle,
                "stage dependencies form a cycle (no execution order "
                "satisfies every 'after' edge)");
    return std::nullopt;
  }
  return p;
}

std::optional<Pipeline> parse_pipeline_text(std::string_view text,
                                            DiagnosticEngine& diags) {
  std::string err;
  const std::optional<json::Value> doc = json::parse(text, &err);
  if (!doc) {
    diags.error(Code::kPipeMalformed, "invalid pipeline JSON: " + err);
    return std::nullopt;
  }
  return parse_pipeline(*doc, diags);
}

}  // namespace repro::pipeline
