// The semantic audit pass: one driver over everything the static
// analyzers can prove about a stencil program and its optional
// (problem, tile, thread, device, calibration, sweep) context,
// emitting the SL5xx diagnostic family on top of the lint pipeline's
// SL1xx-SL3xx.
//
// Stages (each optional piece degrades gracefully when absent):
//   1. device-descriptor cross-field invariants        (SL520)
//   2. calibration sanity (hard + plausibility)        (SL520/SL521)
//   3. the full lint pipeline: parse, dependence cone,
//      Eqn 31 legality                                 (SL1xx-SL3xx)
//   4. tap/footprint range analysis                    (SL501-SL506)
//   5. static resource prediction                      (SL510-SL513)
//   6. sweep-space dead-region certificates            (SL530/SL531)
//
// The audit is observationally pure: it only reads its inputs and
// writes diagnostics. tuner::Session::audit() surfaces the findings
// but no tuning path ever consults them, so sweeps stay byte-identical
// with the audit on or off (pinned by tests).
#pragma once

#include <optional>
#include <string_view>

#include "analysis/dependence.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/ranges.hpp"
#include "analysis/resources.hpp"
#include "cpusim/device.hpp"
#include "device/descriptor.hpp"
#include "gpusim/device.hpp"
#include "hhc/tile_sizes.hpp"
#include "model/talg.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"

namespace repro::analysis {

struct AuditOptions {
  std::optional<hhc::TileSizes> ts;
  std::optional<hhc::ThreadConfig> thr;
  std::optional<stencil::ProblemSize> problem;
  // The full device descriptor (not just the model-visible subset):
  // enables the descriptor audit, Eqn 31 legality, sweep
  // certification and — for GPU descriptors — resource prediction.
  // Converts implicitly from gpusim::DeviceParams or
  // cpusim::CpuParams, so pre-redesign call sites read unchanged.
  std::optional<device::Descriptor> dev;
  // Calibrated model inputs, e.g. from tuner::CalibrationCache.
  std::optional<model::ModelInputs> calibration;
  // Enumeration grid to certify (requires `dev`).
  std::optional<SweepGrid> sweep;
  std::int64_t warp = 32;
  // SL511 fires only when the predicted issue-stall inflation exceeds
  // this fraction; most sub-40-warp configs inflate a little, and a
  // wall of warnings would drown the real cliffs.
  double stall_warn_fraction = 0.25;
  // At most this many SL530 region notes (plus one summary).
  std::size_t max_region_notes = 8;
};

struct AuditResult {
  std::optional<stencil::StencilDef> def;
  std::optional<DependenceCone> cone;
  std::optional<ResourcePrediction> resources;
  std::optional<SweepCertificate> certificate;
  bool ok = false;  // no error-severity diagnostics anywhere
};

// Audits an already-parsed or hand-built stencil definition.
AuditResult audit_stencil_def(const stencil::StencilDef& def,
                              const AuditOptions& opt,
                              DiagnosticEngine& diags);

// Audits a DSL program from source text (parse diagnostics come back
// line-anchored; the semantic stages run only when parsing succeeds).
AuditResult audit_stencil_text(std::string_view text,
                               const AuditOptions& opt,
                               DiagnosticEngine& diags);

// Cross-field invariants of a machine descriptor (SL520, errors):
// positive unit counts, per-block limits within per-SM capacities,
// finite positive physical rates. Returns true iff clean.
bool audit_device(const gpusim::DeviceParams& dev,
                  DiagnosticEngine& diags);

// CPU-descriptor invariants (SL520, errors): positive core/lane/SMT
// counts and physical rates, and per cache level a line size that
// divides the level size, capacities strictly increasing and
// latencies non-decreasing outward. Returns true iff clean.
bool audit_device(const cpusim::CpuParams& dev, DiagnosticEngine& diags);

// Kind dispatch over the tagged descriptor.
bool audit_device(const device::Descriptor& dev, DiagnosticEngine& diags);

// Calibrated model inputs: hard invariants as SL520 errors, values
// outside their physically plausible ranges as SL521 warnings (e.g.
// an intra-kernel sync priced above a kernel boundary — usually a
// swapped pair in a hand-edited calibration file). Returns true iff
// no error was added.
bool audit_calibration(const model::ModelInputs& in,
                       DiagnosticEngine& diags);

}  // namespace repro::analysis
