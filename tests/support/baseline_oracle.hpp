// Reference for tuner::baseline_tile_set (the span form).
//
// The library computes each tile's shared-memory footprint once and
// sorts tile indices by it. This oracle is the form it replaced:
// it recomputes the footprint inside the bucket filter and the sort
// comparator. Both compare on the footprint alone, so std::sort must
// leave ties in the same order (tests/tuner/space_parity_test.cpp
// pins the two point for point).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "hhc/footprint.hpp"
#include "hhc/tile_sizes.hpp"
#include "model/params.hpp"

namespace repro::test {

inline std::vector<hhc::TileSizes> reference_baseline_tile_set(
    int dim, std::span<const hhc::TileSizes> space,
    const model::HardwareParams& hw, std::size_t max_count,
    std::int64_t radius) {
  std::vector<hhc::TileSizes> out;
  const std::int64_t m_sm = hw.shared_words_per_sm;
  for (const std::int64_t k : {2LL, 4LL, 8LL, 16LL}) {
    const std::int64_t target = m_sm / k;
    std::vector<hhc::TileSizes> bucket;
    for (const auto& ts : space) {
      const std::int64_t m = hhc::shared_words_per_tile(dim, ts, radius);
      if (m <= target && m >= (target * 7) / 10) bucket.push_back(ts);
    }
    std::sort(bucket.begin(), bucket.end(),
              [&](const hhc::TileSizes& a, const hhc::TileSizes& b) {
                return hhc::shared_words_per_tile(dim, a, radius) >
                       hhc::shared_words_per_tile(dim, b, radius);
              });
    const std::size_t take = std::min<std::size_t>(
        bucket.size(), std::max<std::size_t>(1, max_count / 4));
    out.insert(out.end(), bucket.begin(),
               bucket.begin() + static_cast<std::ptrdiff_t>(take));
  }
  std::sort(out.begin(), out.end(),
            [](const hhc::TileSizes& a, const hhc::TileSizes& b) {
              return std::tie(a.tT, a.tS1, a.tS2, a.tS3) <
                     std::tie(b.tT, b.tS1, b.tS2, b.tS3);
            });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (out.size() > max_count) out.resize(max_count);
  return out;
}

}  // namespace repro::test
