// Umbrella header: everything a downstream user needs to predict,
// tune and run HHC-tiled stencils.
//
//   #include "repro.hpp"
//
//   using namespace repro;
//   const auto& def = stencil::get_stencil(stencil::StencilKind::kHeat2D);
//   const auto in = gpusim::calibrate_model(gpusim::gtx980(), def);
//   ... (see examples/quickstart.cpp)
#pragma once

#include "common/cli.hpp"          // IWYU pragma: export
#include "common/csv.hpp"          // IWYU pragma: export
#include "common/math_util.hpp"    // IWYU pragma: export
#include "common/rng.hpp"          // IWYU pragma: export
#include "common/stats.hpp"        // IWYU pragma: export
#include "common/table.hpp"        // IWYU pragma: export
#include "gpusim/device.hpp"       // IWYU pragma: export
#include "gpusim/microbench.hpp"   // IWYU pragma: export
#include "gpusim/registers.hpp"    // IWYU pragma: export
#include "gpusim/scheduling.hpp"   // IWYU pragma: export
#include "gpusim/timing.hpp"       // IWYU pragma: export
#include "hhc/bands.hpp"           // IWYU pragma: export
#include "hhc/footprint.hpp"       // IWYU pragma: export
#include "hhc/hex_schedule.hpp"    // IWYU pragma: export
#include "hhc/tile_sizes.hpp"      // IWYU pragma: export
#include "hhc/tiled_executor.hpp"  // IWYU pragma: export
#include "model/params.hpp"        // IWYU pragma: export
#include "model/talg.hpp"          // IWYU pragma: export
#include "overtile/ghost.hpp"      // IWYU pragma: export
#include "stencil/apply.hpp"       // IWYU pragma: export
#include "stencil/grid.hpp"        // IWYU pragma: export
#include "stencil/parser.hpp"      // IWYU pragma: export
#include "stencil/problem.hpp"     // IWYU pragma: export
#include "stencil/reference.hpp"   // IWYU pragma: export
#include "stencil/stencil.hpp"     // IWYU pragma: export
#include "tuner/optimizer.hpp"     // IWYU pragma: export
#include "tuner/space.hpp"         // IWYU pragma: export
