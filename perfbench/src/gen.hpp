// The benchmark's seeded input generator. Every workload's inputs are
// request lines of the `tuned` wire protocol (pipeline documents ride
// inside `pipeline` requests), produced from the seed alone: the same
// seed gives byte-identical lines, and the program under test only
// ever sees these lines.
//
// The generator has its own SplitMix64 stream, so inputs do not move
// when the program's own RNG changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) noexcept : s_(seed) {}
  std::uint64_t next() noexcept;
  // Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) noexcept;
  // Uniform in [0, 1).
  double unit() noexcept;

 private:
  std::uint64_t s_;
};

// `cold_tune`: best_tile (~80%) and compare_strategies (~20%)
// requests over the GPU and CPU descriptors, the 2D/3D catalogue
// stencils and the paper's problem sizes, each on a problem no earlier
// request touched except for deliberate follow-ups (see gen.cpp).
std::vector<std::string> cold_tune_lines(std::uint64_t seed, std::size_t n);

// `hot_mix`: the store pre-fill (distinct predict / best_tile / lint
// requests on small problems) and the served stream drawn against it.
struct HotMix {
  std::vector<std::string> prefill;
  // Zipfian repeats of prefill keys (~88%), near-miss best_tile
  // misses on problems no prefill line names (8%, a quarter of them
  // sent twice in a row), `stats` polls (2%). Each line carries its
  // own id.
  std::vector<std::string> stream;
};
HotMix hot_mix_lines(std::uint64_t seed, std::size_t prefill_n,
                     std::size_t stream_n);

// `vcycle_plan`: distinct multigrid V-cycle `pipeline` requests with
// 2-4 levels, varying base size, smoothing count and stencils.
std::vector<std::string> vcycle_lines(std::uint64_t seed, std::size_t n);

// `parallel_sweep`: Fig. 6-shaped compare_strategies / best_tile
// requests at the paper's 2D sizes. They are run on tuner::Session
// directly (no service), once at jobs = nproc and once at jobs = 1.
std::vector<std::string> sweep_lines(std::uint64_t seed, std::size_t n);

}  // namespace perfbench
