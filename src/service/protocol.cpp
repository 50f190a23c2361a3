#include "service/protocol.hpp"

#include <exception>
#include <utility>

#include "device/registry.hpp"
#include "stencil/parser.hpp"
#include "tuner/optimizer.hpp"

namespace repro::service {

namespace {

using analysis::Code;
using analysis::DiagnosticEngine;
namespace wire = tuner::wire;

struct KindInfo {
  RequestKind kind;
  std::string_view name;
};

constexpr KindInfo kKinds[] = {
    {RequestKind::kPredict, "predict"},
    {RequestKind::kBestTile, "best_tile"},
    {RequestKind::kCompareStrategies, "compare_strategies"},
    {RequestKind::kLint, "lint"},
    {RequestKind::kDevices, "devices"},
    {RequestKind::kStats, "stats"},
    {RequestKind::kPipeline, "pipeline"},
};

// Per-kind allowed top-level keys: a misspelled or misplaced field is
// an SL405 error, never a silently ignored no-op.
bool key_allowed(RequestKind kind, std::string_view key) {
  // `devices` is a pure registry listing and `stats` a pure counter
  // snapshot: no device, stencil or computation fields apply.
  if (kind == RequestKind::kDevices || kind == RequestKind::kStats) {
    return key == "v" || key == "id" || key == "kind";
  }
  // A pipeline request names its stencils inside the "pipeline"
  // document, never at the top level.
  if (kind == RequestKind::kPipeline) {
    return key == "v" || key == "id" || key == "kind" || key == "device" ||
           key == "pipeline" || key == "delta" || key == "enum";
  }
  static constexpr std::string_view kCommon[] = {"v",       "id",   "kind",
                                                 "device",  "stencil", "text"};
  for (const std::string_view k : kCommon) {
    if (key == k) return true;
  }
  switch (kind) {
    case RequestKind::kPredict:
      return key == "problem" || key == "tile" || key == "threads" ||
             key == "variant";
    case RequestKind::kStats:
      return false;  // handled above
    case RequestKind::kBestTile:
      return key == "problem" || key == "delta" || key == "enum";
    case RequestKind::kCompareStrategies:
      return key == "problem" || key == "delta" || key == "enum" ||
             key == "exhaustive_cap" || key == "baseline_count";
    case RequestKind::kLint:
      return key == "problem" || key == "tile" || key == "threads" ||
             key == "audit";
    case RequestKind::kDevices:
    case RequestKind::kPipeline:
      return false;  // handled above
  }
  return false;
}

}  // namespace

std::string_view to_string(RequestKind k) noexcept {
  for (const KindInfo& ki : kKinds) {
    if (ki.kind == k) return ki.name;
  }
  return "predict";
}

std::optional<RequestKind> parse_kind(std::string_view s) noexcept {
  for (const KindInfo& ki : kKinds) {
    if (ki.name == s) return ki.kind;
  }
  return std::nullopt;
}

bool needs_session(const Request& req) noexcept {
  return req.kind == RequestKind::kPredict ||
         req.kind == RequestKind::kBestTile ||
         req.kind == RequestKind::kCompareStrategies;
}

std::string Request::canonical_key() const {
  // Canonical: every object's keys in lexicographic order, nested
  // fragments included (wire::Order::kSorted).
  constexpr wire::Order kSorted = wire::Order::kSorted;
  json::Writer w(1024);
  w.begin_object();
  // A `devices` listing or `stats` snapshot depends on nothing but
  // the protocol version (registry and counters are process state);
  // the key carries no device or stencil identity.
  if (kind == RequestKind::kDevices || kind == RequestKind::kStats) {
    w.key("kind").value(to_string(kind)).key("v").value(version);
    return w.end_object().take();
  }
  // A pipeline names its stencils inside the normalized pipeline
  // document: two spellings of the same DAG key identically.
  if (kind == RequestKind::kPipeline) {
    w.key("delta").value(delta).key("device").value(device);
    wire::write(w.key("enum"), enumeration, kSorted);
    w.key("kind").value(to_string(kind));
    if (pipe) pipe->write(w.key("pipeline"));
    return w.key("v").value(version).end_object().take();
  }
  const bool compare = kind == RequestKind::kCompareStrategies;
  const bool sweep = compare || kind == RequestKind::kBestTile;
  const bool point = !sweep;  // predict or lint
  // Only when on: audit-less lint requests keep their pre-audit keys,
  // so stored results stay valid (and byte-identical).
  if (point && audit) w.key("audit").value(true);
  if (compare) w.key("baseline_count").value(baseline_count);
  if (sweep) w.key("delta").value(delta);
  w.key("device").value(device);
  if (sweep) wire::write(w.key("enum"), enumeration, kSorted);
  if (compare) w.key("exhaustive_cap").value(exhaustive_cap);
  w.key("kind").value(to_string(kind));
  if (problem) wire::write(w.key("problem"), *problem);
  wire::write_stencil(w, stencil_name, stencil_text);
  if (point && threads) wire::write(w.key("threads"), *threads);
  if (point && tile) wire::write(w.key("tile"), *tile, kSorted);
  w.key("v").value(version);
  // Only when present: default-variant requests keep their
  // pre-variant keys, so stored results stay valid (and
  // byte-identical).
  if (point && variant) wire::write(w.key("variant"), *variant, kSorted);
  return w.end_object().take();
}

std::optional<Request> parse_request(std::string_view line,
                                     analysis::DiagnosticEngine& diags,
                                     std::string* id_out) {
  std::string err;
  const std::optional<json::Value> doc = json::parse(line, &err);
  if (!doc) {
    diags.error(Code::kSvcMalformed, "invalid JSON: " + err);
    return std::nullopt;
  }
  if (!doc->is_object()) {
    diags.error(Code::kSvcMalformed, "request must be a JSON object");
    return std::nullopt;
  }

  Request req;
  // Recover the id first so even a failing request gets a correlated
  // error response.
  if (const json::Value* id = doc->find("id"); id != nullptr) {
    if (!id->is_string()) {
      diags.error(Code::kSvcBadField, "'id' must be a string");
      return std::nullopt;
    }
    req.id = id->as_string();
    if (id_out != nullptr) *id_out = req.id;
  }

  const json::Value* v = doc->find("v");
  if (v == nullptr) {
    diags.error(Code::kSvcMissingField, "'v' (protocol version) is required");
    return std::nullopt;
  }
  if (!v->is_int() || v->as_int() != kProtocolVersion) {
    diags.error(Code::kSvcVersion,
                "unsupported protocol version (expected " +
                    std::to_string(kProtocolVersion) + ")");
    return std::nullopt;
  }

  const json::Value* kind = doc->find("kind");
  if (kind == nullptr || !kind->is_string()) {
    diags.error(Code::kSvcMissingField, "'kind' is required");
    return std::nullopt;
  }
  const std::optional<RequestKind> k = parse_kind(kind->as_string());
  if (!k) {
    diags.error(Code::kSvcUnknownKind,
                "unknown kind '" + kind->as_string() +
                    "' (expected predict, best_tile, compare_strategies, "
                    "lint, devices, stats or pipeline)");
    return std::nullopt;
  }
  req.kind = *k;

  for (const auto& [key, val] : doc->members()) {
    (void)val;
    if (!key_allowed(req.kind, key)) {
      diags.error(Code::kSvcBadField,
                  "field '" + key + "' is not allowed for kind '" +
                      std::string(to_string(req.kind)) + "'");
    }
  }
  if (diags.has_errors()) return std::nullopt;

  // A `devices` listing or `stats` snapshot has no further fields:
  // the key_allowed pass above already rejected anything beyond
  // {v, id, kind}.
  if (req.kind == RequestKind::kDevices ||
      req.kind == RequestKind::kStats) {
    return req;
  }

  if (const json::Value* dev = doc->find("device"); dev != nullptr) {
    if (!dev->is_string()) {
      diags.error(Code::kSvcBadField, "'device' must be a string");
      return std::nullopt;
    }
    req.device = dev->as_string();
  }
  // Registry lookup emits the structured SL522 diagnostic (available
  // names, nearest-name hint) straight into the error response.
  if (device::registry().resolve(req.device, &diags) == nullptr) {
    return std::nullopt;
  }

  if (req.kind == RequestKind::kPipeline) {
    if (const json::Value* pl = doc->find("pipeline"); pl != nullptr) {
      // SL6xx (and, for inline DSL stages, SL1xx) diagnostics flow
      // straight into the error response.
      req.pipe = pipeline::parse_pipeline(*pl, diags);
      if (!req.pipe) return std::nullopt;
    }
  } else {
    const json::Value* name = doc->find("stencil");
    const json::Value* text = doc->find("text");
    if ((name == nullptr) == (text == nullptr)) {
      diags.error(Code::kSvcMissingField,
                  "exactly one of 'stencil' (catalogue name) or 'text' (DSL "
                  "program) is required");
      return std::nullopt;
    }
    if (name != nullptr) {
      if (!name->is_string()) {
        diags.error(Code::kSvcBadField, "'stencil' must be a string");
        return std::nullopt;
      }
      req.stencil_name = name->as_string();
      try {
        req.def = stencil::get_stencil_by_name(req.stencil_name);
      } catch (const std::exception&) {
        diags.error(Code::kSvcBadField,
                    "unknown catalogue stencil '" + req.stencil_name + "'");
        return std::nullopt;
      }
    } else {
      if (!text->is_string()) {
        diags.error(Code::kSvcBadField, "'text' must be a string");
        return std::nullopt;
      }
      req.stencil_text = text->as_string();
      // Parse diagnostics (SL1xx, with line numbers into the DSL text)
      // flow straight into the response.
      const std::optional<stencil::StencilDef> def =
          stencil::parse_stencil(req.stencil_text, diags);
      if (!def) return std::nullopt;
      req.def = *def;
    }
  }

  if (const json::Value* p = doc->find("problem"); p != nullptr) {
    req.problem = wire::parse_problem(*p, kRequestCodes, diags);
    if (!req.problem) return std::nullopt;
    if (req.problem->dim != req.def.dim) {
      diags.error(Code::kSvcBadField,
                  "'problem.S' has " + std::to_string(req.problem->dim) +
                      " extents but the stencil is " +
                      std::to_string(req.def.dim) + "-dimensional");
      return std::nullopt;
    }
  }
  if (const json::Value* t = doc->find("tile"); t != nullptr) {
    req.tile = wire::parse_tile(*t, kRequestCodes, diags);
    if (!req.tile) return std::nullopt;
  }
  if (const json::Value* t = doc->find("threads"); t != nullptr) {
    req.threads = wire::parse_threads(*t, kRequestCodes, diags);
    if (!req.threads) return std::nullopt;
  }
  if (const json::Value* t = doc->find("variant"); t != nullptr) {
    req.variant = wire::parse_variant(*t, kRequestCodes, diags);
    if (!req.variant) return std::nullopt;
  }
  if (const json::Value* a = doc->find("audit"); a != nullptr) {
    if (!a->is_bool()) {
      diags.error(Code::kSvcBadField, "'audit' must be a boolean");
      return std::nullopt;
    }
    req.audit = a->as_bool();
  }
  if (const json::Value* d = doc->find("delta"); d != nullptr) {
    if (!d->is_number()) {
      diags.error(Code::kSvcBadField, "'delta' must be a number");
      return std::nullopt;
    }
    req.delta = d->as_double();
    tuner::validate_sweep_delta(req.delta, diags);
    if (diags.has_errors()) return std::nullopt;
  }
  if (const json::Value* e = doc->find("enum"); e != nullptr) {
    std::optional<tuner::EnumOptions> en =
        wire::parse_enum(*e, kRequestCodes, diags);
    if (!en) return std::nullopt;
    req.enumeration = std::move(*en);
    req.enumeration.validate(diags);
    if (diags.has_errors()) return std::nullopt;
  }
  if (const auto cap = wire::read_int(*doc, "exhaustive_cap", 0, 1 << 20,
                                      kRequestCodes, diags)) {
    req.exhaustive_cap = static_cast<std::size_t>(*cap);
  }
  if (const auto bc = wire::read_int(*doc, "baseline_count", 1, 1 << 20,
                                     kRequestCodes, diags)) {
    req.baseline_count = static_cast<std::size_t>(*bc);
  }
  if (diags.has_errors()) return std::nullopt;

  // Per-kind required fields.
  switch (req.kind) {
    case RequestKind::kPredict:
      if (!req.problem) {
        diags.error(Code::kSvcMissingField, "'problem' is required");
      }
      if (!req.tile) {
        diags.error(Code::kSvcMissingField, "'tile' is required");
      }
      break;
    case RequestKind::kBestTile:
    case RequestKind::kCompareStrategies:
      if (!req.problem) {
        diags.error(Code::kSvcMissingField, "'problem' is required");
      }
      break;
    case RequestKind::kPipeline:
      if (!req.pipe) {
        diags.error(Code::kSvcMissingField, "'pipeline' is required");
      }
      break;
    case RequestKind::kLint:
    case RequestKind::kDevices:
    case RequestKind::kStats:
      break;
  }
  if (diags.has_errors()) return std::nullopt;
  return req;
}

std::string render_result(const std::string& id, RequestKind kind,
                          const std::string& payload) {
  json::Writer w(payload.size() + id.size() + 64);
  w.begin_object().key("v").value(kProtocolVersion).key("id").value(id);
  w.key("ok").value(true).key("kind").value(to_string(kind));
  return w.key("result").raw(payload).end_object().take();
}

void write_diagnostics(json::Writer& w,
                       std::span<const analysis::Diagnostic> diags) {
  w.begin_array();
  for (const analysis::Diagnostic& d : diags) {
    w.begin_object().key("severity").value(analysis::to_string(d.severity));
    w.key("code").value(analysis::code_name(d.code)).key("line").value(d.line);
    w.key("message").value(d.message);
    // Only when present: hint-less diagnostics keep their pre-audit bytes.
    if (!d.hint.empty()) w.key("hint").value(d.hint);
    w.end_object();
  }
  w.end_array();
}

std::string render_error(const std::string& id,
                         std::span<const analysis::Diagnostic> diags) {
  const analysis::Diagnostic* first = nullptr;
  for (const analysis::Diagnostic& d : diags) {
    if (d.severity == analysis::Severity::kError) {
      first = &d;
      break;
    }
  }
  json::Writer w;
  w.begin_object().key("v").value(kProtocolVersion).key("id").value(id);
  w.key("ok").value(false).key("error").begin_object();
  if (first != nullptr) {
    w.key("code").value(analysis::code_name(first->code));
    w.key("message").value(first->message);
  } else {
    w.key("code").value("SL407");
    w.key("message").value("no error diagnostic recorded");
  }
  write_diagnostics(w.end_object().key("diagnostics"), diags);
  return w.end_object().take();
}

}  // namespace repro::service
