#include "pipeline/stage_cache.hpp"

#include <bit>
#include <cstdint>

namespace repro::pipeline {

std::string problem_key(const stencil::ProblemSize& p) {
  std::string k = "S";
  for (int i = 0; i < p.dim; ++i) {
    k += ':';
    k += std::to_string(p.S[static_cast<std::size_t>(i)]);
  }
  k += "|T:";
  k += std::to_string(p.T);
  return k;
}

std::string stage_key(std::string_view dev_key, std::string_view stencil,
                      const stencil::ProblemSize& problem,
                      const stencil::KernelVariant& variant, double delta,
                      const tuner::EnumOptions& enumeration) {
  // The descriptor JSON holds no raw newline and no other field holds
  // one, so '\n' ends the device and the fixed fields unambiguously.
  std::string k(dev_key);
  k += '\n';
  k += problem_key(problem);
  k += '|';
  k += variant.to_string();
  k += "|d:";
  k += std::to_string(std::bit_cast<std::uint64_t>(delta));
  const tuner::EnumOptions& e = enumeration;
  for (const std::int64_t v : {e.tT_max, e.tT_step, e.tS1_max, e.tS1_step,
                               e.tS2_max, e.tS2_step, e.tS3_max, e.tS3_step}) {
    k += ':';
    k += std::to_string(v);
  }
  k += "|v";
  for (const stencil::KernelVariant& v : e.variants) {
    k += ':';
    k += v.to_string();
  }
  k += '\n';
  k += stencil;
  return k;
}

}  // namespace repro::pipeline
