#include "stencil/variant.hpp"

#include <array>

namespace repro::stencil {

std::string_view to_string(Staging s) noexcept {
  return s == Staging::kRegister ? "register" : "shared";
}

std::string KernelVariant::to_string() const {
  std::string out = "u";
  out += std::to_string(unroll);
  if (staging == Staging::kRegister) out += "+reg";
  return out;
}

bool valid_unroll(int unroll) noexcept {
  return unroll == 1 || unroll == 2 || unroll == 4;
}

std::span<const KernelVariant> all_kernel_variants() noexcept {
  static const std::array<KernelVariant, 6> kAll = {{
      {1, Staging::kShared},
      {1, Staging::kRegister},
      {2, Staging::kShared},
      {2, Staging::kRegister},
      {4, Staging::kShared},
      {4, Staging::kRegister},
  }};
  return kAll;
}

}  // namespace repro::stencil
