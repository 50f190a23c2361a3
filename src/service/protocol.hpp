// The tuned wire protocol: newline-delimited JSON requests and
// responses (one line each way per request), versioned, with SLxxx
// structured errors reusing analysis::diagnostics.
//
// Request schema (version 1):
//   {"v":1, "id":"r1",
//    "kind":"predict|best_tile|compare_strategies|lint|devices|stats
//           |pipeline",
//    "device":"GTX 980",                             // any registered name
//    "stencil":"Heat2D" | "text":"dim 2\n...",      // catalogue or DSL
//    "problem":{"S":[4096,4096],"T":1024},          // dim = |S|
//    "tile":{"tT":6,"tS1":8,"tS2":160},             // predict / lint
//    "threads":{"n1":32,"n2":4},                    // optional
//    "variant":{"unroll":2,"staging":"register"},   // predict only, optional
//    "audit":true,                                  // lint only: SL5xx pass
//    "delta":0.1,                                   // best_tile / compare
//    "enum":{"tT_max":24,"tS1_max":32,"tS1_step":4,"tS2_max":256},
//    "exhaustive_cap":150, "baseline_count":40,     // compare only
//    "pipeline":{"pipeline_version":1,...}}         // pipeline only
// Unknown fields are rejected (SL405) — a typo must not silently
// select a different computation.
//
// Response envelope:
//   {"v":1,"id":"r1","ok":true,"kind":"predict","result":{...}}
//   {"v":1,"id":"r1","ok":false,"error":{"code":"SL404","message":"..."},
//    "diagnostics":[{"severity":...,"code":...,"line":...,"message":...}]}
//
// Determinism: the result payload is rendered with json::Value::dump
// (byte-stable), and render_result splices a payload string verbatim
// into the envelope — so a payload served from the warm store, from a
// coalesced in-flight computation, or computed fresh is byte-identical
// to a direct tuner::Session computation of the same request.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "analysis/diagnostics.hpp"
#include "common/json.hpp"
#include "hhc/tile_sizes.hpp"
#include "pipeline/pipeline.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"
#include "stencil/variant.hpp"
#include "tuner/space.hpp"
#include "tuner/wire.hpp"

namespace repro::service {

inline constexpr int kProtocolVersion = 1;

// How request fragments (tuner/wire.hpp) report: SL405 for a malformed
// field, SL404 for a missing one, SL314 for an unroll factor the
// kernel generator cannot emit.
inline const tuner::wire::Codes kRequestCodes{
    analysis::Code::kSvcBadField, analysis::Code::kSvcMissingField,
    analysis::Code::kVariantResource, ""};

enum class RequestKind : std::uint8_t {
  kPredict,
  kBestTile,
  kCompareStrategies,
  kLint,
  // List the registered device descriptors (name, kind, capability
  // summary). Takes no device/stencil/problem fields; its canonical
  // key is {v, kind} alone.
  kDevices,
  // The serving instance's live counters (requests, store size/age,
  // warm-start activity). Takes no device/stencil/problem fields.
  // Instance state, not a computation: the answer is never stored,
  // never coalesced, and exempt from the cold==warm byte-identity
  // contract (like `devices`, it describes the process, not a
  // problem).
  kStats,
  // Tune a composed stencil pipeline (pipeline/pipeline.hpp): the
  // request carries a "pipeline" document instead of a single
  // stencil/problem pair; the planner's per-stage breakdown and
  // end-to-end Talg come back as the payload. Fully deterministic,
  // so it participates in the cold==warm byte-identity contract.
  kPipeline,
};

std::string_view to_string(RequestKind k) noexcept;
std::optional<RequestKind> parse_kind(std::string_view s) noexcept;

// A parsed, validated request. `def` is the resolved stencil (from
// the catalogue or parsed from inline DSL text); `stencil_name` /
// `stencil_text` keep the client's original spelling for the
// computation key.
struct Request {
  int version = kProtocolVersion;
  std::string id;
  RequestKind kind = RequestKind::kPredict;
  std::string device = "GTX 980";
  std::string stencil_name;  // catalogue name ("stencil"), or
  std::string stencil_text;  // inline DSL program ("text")
  stencil::StencilDef def;
  std::optional<stencil::ProblemSize> problem;
  std::optional<hhc::TileSizes> tile;
  std::optional<hhc::ThreadConfig> threads;
  // Predict only: the kernel implementation variant to price. Absent
  // means the default variant, and the key stays out of
  // canonical_key() entirely — pre-variant clients (and their stored
  // results) keep byte-identical keys and payloads.
  std::optional<stencil::KernelVariant> variant;
  // Lint only: also run the semantic audit pass (SL5xx). Defaults off
  // so pre-audit clients (and their stored results) keep byte-
  // identical payloads.
  bool audit = false;
  // Pipeline only: the parsed stage DAG. Its normalized to_json()
  // form — never the client's spelling — enters canonical_key(), so
  // two spellings of the same pipeline share one computation.
  std::optional<pipeline::Pipeline> pipe;
  double delta = 0.10;
  tuner::EnumOptions enumeration;
  std::size_t exhaustive_cap = 150;
  std::size_t baseline_count = 40;

  // The identity of the computation this request names: a canonical
  // (sorted-key) JSON encoding of every field the answer depends on —
  // and nothing else (the id never enters). Equal keys <=> identical
  // answers; this string keys both request coalescing and the
  // persistent result store.
  std::string canonical_key() const;
};

// Whether computing `req` needs a per-problem tuner::Session: predict,
// best_tile and compare_strategies do; lint, devices and stats need
// no tuner state, and the pipeline planner owns its sessions. It
// takes the Request, not its RequestKind, so that argument-dependent
// lookup never makes it ambiguous with a caller's own helper of that
// name over a kind.
bool needs_session(const Request& req) noexcept;

// Parses and validates one request line. Every problem lands in
// `diags` as an SL40x (or, for inline DSL programs, SL1xx/SL2xx)
// diagnostic; returns nullopt when any error was emitted. When the
// line contains a recoverable "id" field it is written to `id_out`
// even on failure, so the error response can still be correlated.
std::optional<Request> parse_request(std::string_view line,
                                     analysis::DiagnosticEngine& diags,
                                     std::string* id_out = nullptr);

// Response rendering. `payload` must already be serialized JSON; it
// is spliced in verbatim (see the determinism note above).
std::string render_result(const std::string& id, RequestKind kind,
                          const std::string& payload);
std::string render_error(const std::string& id,
                         std::span<const analysis::Diagnostic> diags);

}  // namespace repro::service
