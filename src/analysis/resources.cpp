#include "analysis/resources.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "analysis/legality.hpp"
#include "gpusim/timing.hpp"

namespace repro::analysis {

namespace {

std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%%", fraction * 100.0);
  return buf;
}

}  // namespace

ResourcePrediction predict_resources(const gpusim::DeviceParams& dev,
                                     const stencil::StencilDef& def,
                                     const hhc::TileSizes& ts,
                                     const hhc::ThreadConfig& thr) {
  // One resolution with the simulator (default variant), so the
  // auditor can never promise an occupancy the simulator will not
  // deliver.
  const gpusim::ResolvedConfig rc =
      gpusim::resolve_config(dev, def, def.dim, ts, thr.total());
  ResourcePrediction rp;
  rp.shared_bytes = rc.shared_bytes;
  if (!rc.feasible) return rp;
  rp.regs_per_thread = rc.regs_per_thread;
  rp.spilled_regs = rc.spilled_regs;
  rp.k_shared = rc.k_shared;
  rp.k_regs = rc.k_regs;
  rp.k_threads = rc.k_threads;
  rp.k = rc.k;
  rp.resident_warps = rc.resident_warps;
  rp.stall_inflation = rc.stall_inflation;

  // Widest row of the hexagonal tile (the w_tile of Eqn 4): what one
  // wavefront of this tile actually offers the block to chew on.
  rp.widest_row_points = ts.tS1 + ts.tT - 2;
  if (def.dim >= 2) rp.widest_row_points *= ts.tS2;
  if (def.dim >= 3) rp.widest_row_points *= ts.tS3;

  rp.fits = true;
  return rp;
}

bool check_resources(const gpusim::DeviceParams& dev,
                     const stencil::StencilDef& def,
                     const hhc::TileSizes& ts,
                     const hhc::ThreadConfig& thr,
                     DiagnosticEngine& diags,
                     double stall_warn_fraction) {
  const std::size_t errors_before = diags.count(Severity::kError);
  const ResourcePrediction rp = predict_resources(dev, def, ts, thr);
  if (!rp.fits) return diags.count(Severity::kError) == errors_before;

  const int threads = thr.total();

  if (rp.spilled_regs > 0) {
    diags.add({Severity::kWarning, Code::kAuditRegisterSpill,
               "predicted " + std::to_string(rp.regs_per_thread) +
                   " registers/thread against a physical cap of " +
                   std::to_string(dev.max_regs_per_thread) + "; about " +
                   std::to_string(rp.spilled_regs) +
                   " values spill to local memory on every iteration — "
                   "the failure mode the optimistic model cannot see",
               0,
               "shrink the per-thread unrolled work (smaller tS "
               "extents or a shallower tT) or raise the thread count"});
  }

  if (rp.stall_inflation > stall_warn_fraction) {
    char warps[32];
    std::snprintf(warps, sizeof(warps), "%.0f", rp.resident_warps);
    std::string bound = "shared memory";
    if (rp.k_regs <= rp.k_shared && rp.k_regs <= rp.k_threads) {
      bound = "the register file";
    } else if (rp.k_threads <= rp.k_shared) {
      bound = "the SM thread capacity";
    }
    diags.add({Severity::kWarning, Code::kAuditOccupancyCliff,
               "occupancy cliff: only " + std::string(warps) +
                   " resident warps (full issue needs " +
                   std::to_string(
                       static_cast<int>(dev.warps_for_full_issue)) +
                   "), inflating per-iteration cost by about " +
                   pct(rp.stall_inflation) + "; residency k=" +
                   std::to_string(rp.k) + " is capped by " + bound,
               0,
               "prefer smaller tiles (higher k) or wider thread "
               "blocks to keep the issue pipeline fed"});
  }

  if (threads > rp.widest_row_points) {
    diags.add({Severity::kWarning, Code::kAuditIdleThreads,
               "thread block of " + std::to_string(threads) +
                   " threads exceeds the widest tile row of " +
                   std::to_string(rp.widest_row_points) +
                   " iteration points; " +
                   std::to_string(threads - rp.widest_row_points) +
                   " threads idle at every barrier",
               0,
               "cap the block at <= " +
                   std::to_string(rp.widest_row_points) + " threads"});
  }

  // The analytical model bounds residency by shared memory alone
  // (Eqn 11); when registers or thread capacity bind first, Talg is
  // optimistic for this point (Section 7's information asymmetry).
  const std::int64_t model_k = hyperthreading_bound(
      def.dim, ts, dev.to_model_hardware(),
      std::max<std::int64_t>(def.radius, 1));
  if (model_k >= 1 && rp.k < model_k) {
    const std::string bound =
        rp.k_regs < rp.k_threads ? "the register file"
                                 : "the SM thread capacity";
    diags.add({Severity::kWarning, Code::kAuditResidencyBelowModel,
               "the model's shared-memory bound admits k=" +
                   std::to_string(model_k) +
                   " resident tiles but " + bound + " caps residency at k=" +
                   std::to_string(rp.k) +
                   "; Talg over-estimates the hyper-threading this "
                   "point achieves",
               0, ""});
  }

  return diags.count(Severity::kError) == errors_before;
}

}  // namespace repro::analysis
