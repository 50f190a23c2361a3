// The stencil-DAG pipeline IR: composed workloads built from the
// stencil catalogue (or inline DSL programs), e.g. a multigrid
// V-cycle as smooth×ν1 → residual → restrict per level down, then
// prolong → smooth×ν2 per level up. A `Stage` names one stencil
// application at one problem size (optionally pinned to a kernel
// variant, repeated `repeat` times); a `Pipeline` is an ordered DAG
// of stages — `after` edges express data dependence, and the optional
// `level` annotation ties stages of one multigrid level together.
//
// JSON format (parsing the normalized form round-trips exactly):
//
//   {"pipeline_version":1,"name":"vcycle3","stages":[
//     {"id":"smooth_l0","stencil":"Jacobi2D",
//      "problem":{"S":[512,512],"T":8},
//      "repeat":2,"after":[],"level":0,
//      "variant":{"unroll":2,"staging":"register"}},   // optional
//     ...]}
//
// Validation flows through the diagnostics engine as the SL6xx
// family: SL601 structural/field errors, SL602 unknown catalogue
// stencils (inline DSL text reports SL1xx with line anchors), SL603
// duplicate ids or edges to undeclared stages, SL604 dependency
// cycles, SL605 level-size mismatches (a stage's problem must match
// its stencil's dimensionality, and stages sharing a `level` must
// agree on the spatial extents).
//
// Determinism: Pipeline::write emits a fully-normalized form, with
// defaults spelled out and every object's keys sorted (the canonical
// form of common/json.hpp), so two spellings of the same pipeline
// produce identical bytes: the service writes it straight into the
// request's canonical computation key.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "common/json.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"
#include "stencil/variant.hpp"

namespace repro::pipeline {

inline constexpr int kPipelineVersion = 1;

// One stencil application in the DAG. `stencil_name`/`stencil_text`
// carry the same either-or identity convention as service::Request
// (catalogue name vs inline DSL program); `def` is the resolved
// definition either way.
struct Stage {
  std::string id;
  std::string stencil_name;  // catalogue name ("stencil"), or
  std::string stencil_text;  // inline DSL program ("text")
  stencil::StencilDef def;
  stencil::ProblemSize problem;
  std::int64_t repeat = 1;         // ν: consecutive applications
  std::vector<std::string> after;  // ids of predecessor stages
  std::optional<std::int64_t> level;
  std::optional<stencil::KernelVariant> variant;  // pinned, else tuned default
};

struct Pipeline {
  std::string name;
  std::vector<Stage> stages;  // declaration order

  // The normalized byte-stable JSON form (see the header comment).
  void write(json::Writer& w) const;
};

// Deterministic execution order: Kahn's algorithm over the `after`
// edges, always picking the ready stage with the smallest declaration
// index. Returns nullopt when an edge references an undeclared id or
// the graph has a cycle (parse_pipeline diagnoses both before ever
// returning a Pipeline, so a parsed pipeline always has an order).
std::optional<std::vector<std::size_t>> topo_order(const Pipeline& p);

// Parses and validates one pipeline document. Every problem lands in
// `diags` as an SL6xx (or, for inline DSL stages, SL1xx/SL2xx)
// diagnostic; returns nullopt when any error was emitted.
std::optional<Pipeline> parse_pipeline(const json::Value& doc,
                                       analysis::DiagnosticEngine& diags);
// Convenience form over raw text (the CLI reads pipeline files).
std::optional<Pipeline> parse_pipeline_text(std::string_view text,
                                            analysis::DiagnosticEngine& diags);

}  // namespace repro::pipeline
