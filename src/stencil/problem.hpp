// Problem-size descriptors and the experiment grids of Section 5.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stencil/stencil.hpp"

namespace repro::stencil {

// A problem instance: spatial extents S_i (S2/S3 unused when dim < 3)
// and the number of time steps T.
struct ProblemSize {
  int dim = 2;
  std::array<std::int64_t, 3> S{0, 0, 0};
  std::int64_t T = 0;

  std::int64_t space_points() const noexcept {
    std::int64_t n = 1;
    for (int i = 0; i < dim; ++i) n *= S[static_cast<std::size_t>(i)];
    return n;
  }
  std::int64_t total_points() const noexcept { return space_points() * T; }

  std::string to_string() const;

  friend bool operator==(const ProblemSize&, const ProblemSize&) = default;
};

// Log-space distance between two problems of a's dimensionality:
// |ln(T_a/T_b)| + sum_i |ln(S_a,i/S_b,i)|, so a 256 -> 512 halving is
// as far as a 512 -> 1024 doubling. The warm-seed rankings of the
// service's similarity index and the pipeline planner both use it.
double log_distance(const ProblemSize& a, const ProblemSize& b);

// Total floating-point work of a full run, for GFLOPS reporting.
double total_flops(const StencilDef& def, const ProblemSize& p);

// Section 5: 2D experiments use S in {4096^2, 8192^2} and
// T in {1024, 2048, 4096, 8192, 16384} — 10 combinations.
std::vector<ProblemSize> paper_2d_problem_sizes();

// Section 5: 3D experiments use S in {384^3, 512^3, 640^3} and
// T in {128, 256, 384, 512, 640} restricted to T <= S — 12 combos.
std::vector<ProblemSize> paper_3d_problem_sizes();

}  // namespace repro::stencil
