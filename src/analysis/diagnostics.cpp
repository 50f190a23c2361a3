#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "common/json.hpp"

namespace repro::analysis {

namespace {

struct CodeInfo {
  Code code;
  std::string_view name;
  std::string_view summary;
};

// Numeric order; all_codes() exposes this table for docs and tests.
constexpr std::array<CodeInfo, 57> kCodeTable{{
    {Code::kParseSyntax, "SL101", "malformed stencil DSL syntax"},
    {Code::kParseDim, "SL102", "missing or out-of-range 'dim'"},
    {Code::kParseTapBeyondDim, "SL103",
     "tap offset uses a dimension beyond 'dim'"},
    {Code::kParseAsymmetricTaps, "SL104",
     "tap set is not symmetric (a tap lacks its mirror at -a)"},
    {Code::kParseBodyArity, "SL105",
     "body kind disagrees with the tap count"},
    {Code::kParseFlopsNonPositive, "SL106", "'flops' must be positive"},
    {Code::kParseDuplicateTap, "SL107",
     "the same tap offset is listed more than once"},
    {Code::kParseZeroWeightTap, "SL108", "tap has weight zero"},
    {Code::kDepNoTaps, "SL201", "stencil has no taps"},
    {Code::kDepBeyondDim, "SL202",
     "dependence uses a dimension beyond the declared 'dim'"},
    {Code::kDepAsymmetric, "SL203",
     "dependence cone is not symmetric under negation"},
    {Code::kDepAnisotropic, "SL204",
     "per-dimension dependence radii differ (model uses the maximum)"},
    {Code::kDepNoCenter, "SL205", "stencil has no center (0,0,0) tap"},
    {Code::kTileTimeOdd, "SL301", "time tile tT must be even and >= 2"},
    {Code::kTileSlope, "SL302",
     "tile slope violates the dependence cone (tS1 < radius)"},
    {Code::kTileBlockLimit, "SL303",
     "shared-memory footprint exceeds the per-block limit (48 KB rule)"},
    {Code::kTileSmCapacity, "SL304",
     "shared-memory footprint exceeds the SM capacity M_SM"},
    {Code::kTileWarpAlign, "SL305",
     "inner spatial tile extent is not a warp multiple"},
    {Code::kTileLowOccupancy, "SL306",
     "hyper-threading bound k < 2: at most one tile resident per SM"},
    {Code::kTileRegisterPressure, "SL307",
     "estimated register demand exceeds the register file (spills likely)"},
    {Code::kTilePartial, "SL308",
     "problem size does not divide the tiling (partial tiles / divergence)"},
    {Code::kThreadConfig, "SL309", "thread-block configuration illegal"},
    {Code::kEnumStep, "SL310",
     "tile-space enumeration step must be positive"},
    {Code::kTileExtent, "SL311", "spatial tile extents must be >= 1"},
    {Code::kOptionRange, "SL312",
     "tuning option out of range (EnumOptions / CompareOptions)"},
    {Code::kSweepDelta, "SL313",
     "model-sweep delta must be a finite non-negative fraction"},
    {Code::kVariantResource, "SL314",
     "kernel variant is invalid or pushes the register estimate over "
     "the register file"},
    {Code::kIncumbentSeed, "SL315",
     "incumbent seed must be a non-negative number (NaN or a negative "
     "seed would poison the prune cutoff)"},
    {Code::kSvcMalformed, "SL401",
     "service request is not a valid JSON object"},
    {Code::kSvcVersion, "SL402", "unsupported service protocol version"},
    {Code::kSvcUnknownKind, "SL403", "unknown service request kind"},
    {Code::kSvcMissingField, "SL404", "required request field is missing"},
    {Code::kSvcBadField, "SL405",
     "request field has the wrong type or an invalid value"},
    {Code::kSvcOverloaded, "SL406",
     "service overloaded: request rejected by admission control"},
    {Code::kSvcInternal, "SL407", "internal service error during computation"},
    {Code::kAuditTapBeyondRadius, "SL501",
     "tap reaches beyond the declared dependence radius (halo overrun)"},
    {Code::kAuditRadiusOverdeclared, "SL502",
     "declared radius exceeds the taps' actual reach (wasted halo)"},
    {Code::kAuditDuplicateTap, "SL503",
     "the same cell is tapped more than once (redundant shared load)"},
    {Code::kAuditNonFiniteCoefficient, "SL504",
     "tap weight or stencil constant is not a finite number"},
    {Code::kAuditDeadTap, "SL505",
     "dead tap: weight zero contributes nothing but still costs a load"},
    {Code::kAuditAmplification, "SL506",
     "tap weights amplify (sum of |w| > 1); iteration may diverge"},
    {Code::kAuditRegisterSpill, "SL510",
     "predicted register spill: per-thread demand over the physical cap"},
    {Code::kAuditOccupancyCliff, "SL511",
     "occupancy cliff: too few resident warps to hide issue latency"},
    {Code::kAuditIdleThreads, "SL512",
     "thread block wider than the widest tile row (threads sit idle)"},
    {Code::kAuditResidencyBelowModel, "SL513",
     "achievable residency k is below the model's shared-memory bound"},
    {Code::kAuditDeviceInvariant, "SL520",
     "device descriptor violates a cross-field invariant"},
    {Code::kAuditCalibrationSuspect, "SL521",
     "calibrated value lies outside its physically plausible range"},
    {Code::kAuditUnknownDevice, "SL522",
     "device name not found in the registry (available names listed)"},
    {Code::kAuditDuplicateDevice, "SL523",
     "a device with this name is already registered"},
    {Code::kAuditRegistryJson, "SL524",
     "device descriptor / registry JSON is malformed"},
    {Code::kAuditDeadRegion, "SL530",
     "sweep sub-region certified infeasible (dead-region certificate)"},
    {Code::kAuditEmptySweep, "SL531",
     "sweep space is provably empty: no feasible tile size exists"},
    {Code::kPipeMalformed, "SL601",
     "pipeline JSON is malformed or carries an invalid field"},
    {Code::kPipeUnknownStencil, "SL602",
     "pipeline stage references an unknown catalogue stencil"},
    {Code::kPipeUnknownStage, "SL603",
     "duplicate stage id or dependency on an undeclared stage"},
    {Code::kPipeCycle, "SL604",
     "pipeline stage dependencies form a cycle"},
    {Code::kPipeLevelMismatch, "SL605",
     "stage problem size inconsistent with its stencil or level"},
}};

const CodeInfo& info(Code c) noexcept {
  for (const CodeInfo& ci : kCodeTable) {
    if (ci.code == c) return ci;
  }
  return kCodeTable[0];  // unreachable for valid codes
}

}  // namespace

std::string_view to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "error";
}

std::string_view code_name(Code c) noexcept { return info(c).name; }

std::string_view code_summary(Code c) noexcept { return info(c).summary; }

std::span<const Code> all_codes() noexcept {
  static const std::array<Code, kCodeTable.size()> codes = [] {
    std::array<Code, kCodeTable.size()> out{};
    for (std::size_t i = 0; i < kCodeTable.size(); ++i) {
      out[i] = kCodeTable[i].code;
    }
    return out;
  }();
  return codes;
}

void DiagnosticEngine::add(Diagnostic d) {
  // Dedup guard: the parser, the linter and the auditor can each
  // re-derive the same finding; one report per (code, location,
  // message) is enough. Linear scan — real passes emit a handful.
  for (const Diagnostic& prev : diags_) {
    if (prev.code == d.code && prev.line == d.line &&
        prev.message == d.message) {
      return;
    }
  }
  diags_.push_back(std::move(d));
}

std::size_t DiagnosticEngine::count(Severity s) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

bool DiagnosticEngine::has_code(Code c) const noexcept {
  return std::any_of(diags_.begin(), diags_.end(),
                     [c](const Diagnostic& d) { return d.code == c; });
}

std::string render_human(std::span<const Diagnostic> diags,
                         std::string_view source_name) {
  std::ostringstream os;
  for (const Diagnostic& d : diags) {
    if (d.line > 0) {
      os << source_name << ":" << d.line << ": ";
    }
    os << to_string(d.severity) << ": [" << code_name(d.code) << "] "
       << d.message << "\n";
    if (!d.hint.empty()) {
      os << "  hint: " << d.hint << "\n";
    }
  }
  return os.str();
}

std::string render_json(std::span<const Diagnostic> diags) {
  std::string out = "[";
  bool first = true;
  for (const Diagnostic& d : diags) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"severity\": \"";
    out += to_string(d.severity);
    out += "\", \"code\": \"";
    out += code_name(d.code);
    out += "\", \"line\": ";
    out += std::to_string(d.line);
    out += ", \"message\": ";
    json::escape_string(out, d.message);
    if (!d.hint.empty()) {
      out += ", \"hint\": ";
      json::escape_string(out, d.hint);
    }
    out += "}";
  }
  out += first ? "]" : "\n]";
  return out;
}

}  // namespace repro::analysis
