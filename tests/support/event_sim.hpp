// Event-level cross-check simulator.
//
// The aggregate timing engine (gpusim/timing.hpp) prices a kernel row
// by grouping congruent tiles and assuming balanced rounds. This
// module re-simulates the same machine as a discrete-event system:
// every tile is priced individually (exact clipped shape), thread
// blocks flow through SM residency slots, per-SM compute is a serial
// FCFS server (the lanes are shared), and all global transfers queue
// on one memory channel with finite bandwidth.
//
// It exists to validate the aggregate engine: tests assert the two
// agree within a modest tolerance across configurations, which pins
// down the aggregation approximations (representative tiles, balanced
// rounds, overlap formula) against a first-principles execution. It
// is a test-only oracle (library repro_test_support), not part of the
// production simulator.
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/device.hpp"
#include "hhc/tile_sizes.hpp"
#include "stencil/problem.hpp"
#include "stencil/stencil.hpp"

namespace repro::gpusim {

struct EventSimResult {
  bool feasible = false;
  std::string infeasible_reason;

  double seconds = 0.0;
  std::int64_t kernel_calls = 0;
  std::int64_t blocks = 0;

  // Resource utilization over the whole run.
  double mem_channel_busy = 0.0;  // fraction of wall time
  double sm_compute_busy = 0.0;   // average over SMs
};

struct EventSimOptions {
  // Price one representative interior tile per kernel row and reuse
  // its BlockWork for every other interior tile of that row (interior
  // tiles are congruent — see HexSchedule::is_interior). Boundary
  // tiles are still priced individually, so results are identical
  // with the option off; it only removes redundant geometry walks.
  bool reuse_congruent_tiles = true;
};

// Same machine parameters and resource resolution as simulate_time;
// no jitter (the event order is already deterministic).
EventSimResult simulate_time_event(const DeviceParams& dev,
                                   const stencil::StencilDef& def,
                                   const stencil::ProblemSize& p,
                                   const hhc::TileSizes& ts,
                                   const hhc::ThreadConfig& thr,
                                   const EventSimOptions& opt);

// Default options: congruent-tile reuse on.
EventSimResult simulate_time_event(const DeviceParams& dev,
                                   const stencil::StencilDef& def,
                                   const stencil::ProblemSize& p,
                                   const hhc::TileSizes& ts,
                                   const hhc::ThreadConfig& thr);

}  // namespace repro::gpusim
