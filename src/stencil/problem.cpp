#include "stencil/problem.hpp"

#include <cmath>
#include <sstream>

namespace repro::stencil {

std::string ProblemSize::to_string() const {
  std::ostringstream os;
  for (int i = 0; i < dim; ++i) {
    if (i) os << 'x';
    os << S[static_cast<std::size_t>(i)];
  }
  os << ",T=" << T;
  return os.str();
}

double log_distance(const ProblemSize& a, const ProblemSize& b) {
  double d = std::abs(
      std::log(static_cast<double>(a.T) / static_cast<double>(b.T)));
  for (int i = 0; i < a.dim; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    d += std::abs(std::log(static_cast<double>(a.S[idx]) /
                           static_cast<double>(b.S[idx])));
  }
  return d;
}

double total_flops(const StencilDef& def, const ProblemSize& p) {
  return def.flops_per_point * static_cast<double>(p.total_points());
}

std::vector<ProblemSize> paper_2d_problem_sizes() {
  std::vector<ProblemSize> out;
  for (const std::int64_t s : {4096LL, 8192LL}) {
    for (const std::int64_t t : {1024LL, 2048LL, 4096LL, 8192LL, 16384LL}) {
      out.push_back({.dim = 2, .S = {s, s, 0}, .T = t});
    }
  }
  return out;
}

std::vector<ProblemSize> paper_3d_problem_sizes() {
  std::vector<ProblemSize> out;
  for (const std::int64_t s : {384LL, 512LL, 640LL}) {
    for (const std::int64_t t : {128LL, 256LL, 384LL, 512LL, 640LL}) {
      if (t <= s) out.push_back({.dim = 3, .S = {s, s, s}, .T = t});
    }
  }
  return out;
}

}  // namespace repro::stencil
