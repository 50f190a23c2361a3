// Structured diagnostics for the static-analysis subsystem.
//
// Everything the analyzers (and the refactored DSL parser) have to say
// about a stencil program or a tile configuration is a Diagnostic: a
// severity, a stable machine-readable code ("SL104"), a human message,
// and — when the complaint is tied to the DSL source text — a 1-based
// line number. Diagnostics are *collected*, not thrown, so a single
// lint pass can report every problem at once; callers decide whether
// errors are fatal. Two renderers are provided: a compiler-style
// human format and a JSON array for tooling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace repro::analysis {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

std::string_view to_string(Severity s) noexcept;

// Stable diagnostic codes. Groups follow the pipeline stages:
//   SL1xx — DSL parsing,
//   SL2xx — dependence analysis,
//   SL3xx — tiling / configuration legality (Eqn 31 and friends),
//   SL40x — tuned service protocol / admission control,
//   SL5xx — semantic audit (analysis/audit: tap ranges, resource
//           prediction, descriptor invariants, sweep certificates),
//   SL6xx — pipeline IR (src/pipeline: stage DAG structure and
//           level consistency).
// Codes are append-only: never renumber, the CLI and docs expose them.
enum class Code : std::uint16_t {
  // --- parse ---------------------------------------------------------
  kParseSyntax = 101,        // malformed token / structure
  kParseDim = 102,           // missing or out-of-range 'dim'
  kParseTapBeyondDim = 103,  // tap offset uses an undeclared dimension
  kParseAsymmetricTaps = 104,  // tap set not closed under negation
  kParseBodyArity = 105,     // body kind disagrees with the tap count
  kParseFlopsNonPositive = 106,
  kParseDuplicateTap = 107,  // warning: same offset listed twice
  kParseZeroWeightTap = 108,  // warning: tap contributes nothing
  // --- dependence analysis ------------------------------------------
  kDepNoTaps = 201,        // stencil has an empty tap set
  kDepBeyondDim = 202,     // tap uses a dimension beyond 'dim'
  kDepAsymmetric = 203,    // dependence cone not symmetric
  kDepAnisotropic = 204,   // note: per-dimension radii differ
  kDepNoCenter = 205,      // note: no (0,0,0) tap
  // --- tiling legality ----------------------------------------------
  kTileTimeOdd = 301,       // tT odd or < 2 (HHC hard requirement)
  kTileSlope = 302,         // tS1 < radius: slope violates the cone
  kTileBlockLimit = 303,    // footprint over the 48 KB per-block rule
  kTileSmCapacity = 304,    // footprint over M_SM entirely
  kTileWarpAlign = 305,     // tS2 (2D) / tS3 (3D) not a warp multiple
  kTileLowOccupancy = 306,  // warning: hyper-threading bound k < 2
  kTileRegisterPressure = 307,  // warning: register-file overflow likely
  kTilePartial = 308,       // warning: problem size leaves partial tiles
  kThreadConfig = 309,      // thread block shape illegal / divergent
  kEnumStep = 310,          // enumeration step not positive
  kTileExtent = 311,        // non-positive spatial tile extent
  kOptionRange = 312,       // tuning option out of range (Enum/CompareOptions)
  kSweepDelta = 313,        // model-sweep delta not a finite fraction >= 0
  kVariantResource = 314,   // kernel variant invalid or over the register file
  kIncumbentSeed = 315,     // incumbent seed NaN or negative (would poison CAS-min)
  // --- tuned service protocol (src/service) --------------------------
  kSvcMalformed = 401,   // request line is not a JSON object
  kSvcVersion = 402,     // unsupported protocol version
  kSvcUnknownKind = 403,  // unknown request kind
  kSvcMissingField = 404,  // required request field absent
  kSvcBadField = 405,    // field has the wrong type or an invalid value
  kSvcOverloaded = 406,  // admission control rejected the request
  kSvcInternal = 407,    // computation failed inside the service
  // 411-415 are retired: never reassign them.
  // --- semantic audit: tap/footprint range analysis -------------------
  kAuditTapBeyondRadius = 501,   // tap reaches beyond the declared radius
  kAuditRadiusOverdeclared = 502,  // declared radius exceeds the taps' reach
  kAuditDuplicateTap = 503,      // duplicate tap offset (semantic level)
  kAuditNonFiniteCoefficient = 504,  // NaN/inf weight or constant
  kAuditDeadTap = 505,           // zero-weight tap: load with no effect
  kAuditAmplification = 506,     // note: sum |w| > 1 (amplifying scheme)
  // --- semantic audit: static resource prediction ---------------------
  kAuditRegisterSpill = 510,     // predicted per-thread register spill
  kAuditOccupancyCliff = 511,    // too few warps to hide issue latency
  kAuditIdleThreads = 512,       // block wider than the widest tile row
  kAuditResidencyBelowModel = 513,  // k below the model's shared-mem bound
  // --- semantic audit: device / calibration descriptors ---------------
  kAuditDeviceInvariant = 520,   // cross-field descriptor invariant broken
  kAuditCalibrationSuspect = 521,  // calibration value outside sane range
  kAuditUnknownDevice = 522,     // registry lookup miss (names listed)
  kAuditDuplicateDevice = 523,   // registry already holds this name
  kAuditRegistryJson = 524,      // malformed descriptor/registry JSON
  // --- semantic audit: sweep-space certificates -----------------------
  kAuditDeadRegion = 530,        // note: sub-box certified infeasible
  kAuditEmptySweep = 531,        // the whole sweep space is infeasible
  // --- pipeline IR (src/pipeline) -------------------------------------
  kPipeMalformed = 601,       // pipeline JSON malformed / invalid field
  kPipeUnknownStencil = 602,  // stage references an unknown catalogue stencil
  kPipeUnknownStage = 603,    // duplicate stage id or edge to undeclared id
  kPipeCycle = 604,           // stage dependency graph has a cycle
  kPipeLevelMismatch = 605,   // problem inconsistent with stencil dim / level
};

// "SL104" etc. — the stable identifier used in output and tests.
std::string_view code_name(Code c) noexcept;

// One-line description of what the code means (the docs table).
std::string_view code_summary(Code c) noexcept;

// Every known code, in numeric order (for --list-codes and tests).
std::span<const Code> all_codes() noexcept;

struct Diagnostic {
  Severity severity = Severity::kError;
  Code code = Code::kParseSyntax;
  std::string message;
  int line = 0;  // 1-based DSL source line; 0 = not tied to source
  // Optional fix-it hint ("cap threads at <= 192"). Rendered only when
  // non-empty, so hint-less diagnostics keep their exact legacy bytes.
  std::string hint;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

// Collects diagnostics. Never throws on add; `has_errors()` is the
// pass/fail verdict a driver consults at the end of a pass.
// Identical findings — same (code, line, message) — reported from
// multiple entry points (e.g. the parser and the semantic auditor
// both flagging one tap) collapse to the first occurrence.
class DiagnosticEngine {
 public:
  void add(Diagnostic d);
  void note(Code c, std::string message, int line = 0) {
    add({Severity::kNote, c, std::move(message), line, {}});
  }
  void warn(Code c, std::string message, int line = 0) {
    add({Severity::kWarning, c, std::move(message), line, {}});
  }
  void error(Code c, std::string message, int line = 0) {
    add({Severity::kError, c, std::move(message), line, {}});
  }

  const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diags_;
  }
  bool empty() const noexcept { return diags_.empty(); }
  std::size_t size() const noexcept { return diags_.size(); }
  std::size_t count(Severity s) const noexcept;
  bool has_errors() const noexcept { return count(Severity::kError) > 0; }
  bool has_code(Code c) const noexcept;
  void clear() { diags_.clear(); }

 private:
  std::vector<Diagnostic> diags_;
};

// Compiler-style rendering, one diagnostic per line:
//   <source>:<line>: error: [SL104] tap (1,0) has no mirror tap (-1,0)
// `source_name` prefixes line-anchored diagnostics ("<config>" is used
// for line-less ones' positions being omitted entirely). A diagnostic
// carrying a fix-it hint gets one extra indented "  hint: ..." line.
std::string render_human(std::span<const Diagnostic> diags,
                         std::string_view source_name = "<input>");

// JSON array of {severity, code, message, line} objects, stable key
// order, suitable for tooling. Always valid JSON, even when empty.
// A non-empty hint adds a trailing "hint" key; hint-less diagnostics
// serialize exactly as before the audit pass existed.
std::string render_json(std::span<const Diagnostic> diags);

}  // namespace repro::analysis
