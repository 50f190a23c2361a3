#include "support/space_oracle.hpp"

#include "analysis/legality.hpp"

namespace repro::test {

std::vector<hhc::TileSizes> reference_enumerate_feasible(
    int dim, const model::HardwareParams& hw, const tuner::EnumOptions& opt,
    std::int64_t radius) {
  opt.validate();
  const auto feasible = [&](const hhc::TileSizes& ts) {
    return analysis::eqn31_feasible(dim, ts, hw, radius);
  };
  std::vector<hhc::TileSizes> out;
  for (std::int64_t tT = 2; tT <= opt.tT_max; tT += opt.tT_step) {
    if (tT % 2 != 0) continue;
    for (std::int64_t tS1 = radius; tS1 <= opt.tS1_max;
         tS1 += opt.tS1_step) {
      if (dim == 1) {
        hhc::TileSizes ts{.tT = tT, .tS1 = tS1, .tS2 = 1, .tS3 = 1};
        if (feasible(ts)) out.push_back(ts);
        continue;
      }
      for (std::int64_t tS2 = opt.tS2_step; tS2 <= opt.tS2_max;
           tS2 += opt.tS2_step) {
        if (dim == 2) {
          hhc::TileSizes ts{.tT = tT, .tS1 = tS1, .tS2 = tS2, .tS3 = 1};
          if (feasible(ts)) out.push_back(ts);
          continue;
        }
        for (std::int64_t tS3 = opt.tS3_step; tS3 <= opt.tS3_max;
             tS3 += opt.tS3_step) {
          hhc::TileSizes ts{.tT = tT, .tS1 = tS1, .tS2 = tS2, .tS3 = tS3};
          if (feasible(ts)) out.push_back(ts);
        }
      }
    }
  }
  return out;
}

}  // namespace repro::test
