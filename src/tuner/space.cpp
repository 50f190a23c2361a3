#include "tuner/space.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <tuple>

#include "analysis/legality.hpp"
#include "hhc/footprint.hpp"

namespace repro::tuner {

void EnumOptions::validate(analysis::DiagnosticEngine& eng) const {
  const auto check_step = [&eng](const char* name, std::int64_t v) {
    if (v <= 0) {
      eng.error(analysis::Code::kEnumStep,
                std::string("EnumOptions.") + name +
                    " must be positive, got " + std::to_string(v) +
                    " (a non-positive step never advances the enumeration "
                    "and would loop forever)");
    }
  };
  check_step("tT_step", tT_step);
  check_step("tS1_step", tS1_step);
  check_step("tS2_step", tS2_step);
  check_step("tS3_step", tS3_step);
  const auto check_max = [&eng](const char* name, std::int64_t v) {
    if (v <= 0) {
      eng.error(analysis::Code::kOptionRange,
                std::string("EnumOptions.") + name +
                    " must be positive, got " + std::to_string(v) +
                    " (the bound admits no lattice point)");
    }
  };
  check_max("tT_max", tT_max);
  check_max("tS1_max", tS1_max);
  check_max("tS2_max", tS2_max);
  check_max("tS3_max", tS3_max);
  for (const stencil::KernelVariant& v : variants) {
    if (!stencil::valid_unroll(v.unroll)) {
      eng.error(analysis::Code::kOptionRange,
                "EnumOptions.variants contains unroll factor " +
                    std::to_string(v.unroll) +
                    " (the kernel generator only emits unroll 1, 2 or 4)");
    }
  }
}

void EnumOptions::validate() const {
  analysis::DiagnosticEngine eng;
  validate(eng);
  for (const analysis::Diagnostic& d : eng.diagnostics()) {
    if (d.severity == analysis::Severity::kError) {
      throw std::invalid_argument(
          std::string("[") + std::string(analysis::code_name(d.code)) + "] " +
          d.message);
    }
  }
}

analysis::SweepGrid to_sweep_grid(const EnumOptions& opt) noexcept {
  analysis::SweepGrid g;
  g.tT_max = opt.tT_max;
  g.tT_step = opt.tT_step;
  g.tS1_max = opt.tS1_max;
  g.tS1_step = opt.tS1_step;
  g.tS2_max = opt.tS2_max;
  g.tS2_step = opt.tS2_step;
  g.tS3_max = opt.tS3_max;
  g.tS3_step = opt.tS3_step;
  return g;
}

std::vector<hhc::TileSizes> enumerate_feasible(int dim,
                                               const model::HardwareParams& hw,
                                               const EnumOptions& opt,
                                               std::int64_t radius) {
  assert(dim >= 1 && dim <= 3);
  opt.validate();
  // Feasibility is delegated to the analysis subsystem so the
  // enumerator, the optimizer and stencil-lint share one definition
  // of Eqn 31 (the lattice below already guarantees the shape
  // constraints; the predicate re-checks them and adds the
  // shared-memory capacity bounds).
  const auto feasible = [&](const hhc::TileSizes& ts) {
    return analysis::eqn31_feasible(dim, ts, hw, radius);
  };
  // The lattice axes in loop order, outermost first: tT from 2 (even
  // values only), tS1 from the raw radius, tS2/tS3 from one step. A
  // dim-D lattice walks the first D + 1 of them; the others stay 1.
  struct Axis {
    std::int64_t hhc::TileSizes::*field;
    std::int64_t lo, step, hi;
  };
  const Axis axes[] = {{&hhc::TileSizes::tT, 2, opt.tT_step, opt.tT_max},
                       {&hhc::TileSizes::tS1, radius, opt.tS1_step,
                        opt.tS1_max},
                       {&hhc::TileSizes::tS2, opt.tS2_step, opt.tS2_step,
                        opt.tS2_max},
                       {&hhc::TileSizes::tS3, opt.tS3_step, opt.tS3_step,
                        opt.tS3_max}};
  // The lattice size bounds the result. Reserving it up front (capped
  // at 2^16 points) and handing the excess back at the end costs two
  // allocations; growing by doubling instead reallocates and copies
  // past the allocator's mmap threshold, which takes longer than the
  // walk itself.
  constexpr std::size_t kReserveCap = std::size_t{1} << 16;
  std::size_t bound = 1;
  for (int level = 0; level <= dim; ++level) {
    const Axis& ax = axes[level];
    const std::size_t n =
        ax.hi < ax.lo
            ? 0
            : static_cast<std::size_t>((ax.hi - ax.lo) / ax.step) + 1;
    bound = std::min(kReserveCap, bound * std::min(kReserveCap, n));
  }
  std::vector<hhc::TileSizes> out;
  out.reserve(bound);
  // Walks the sub-lattice below `ts` from axis `level` inward and
  // appends its feasible points in loop order. Returns true when the
  // sub-lattice's smallest point fails the capacity check: M_tile is
  // monotone in every extent (DESIGN.md, "Certificate semantics"), so
  // then every point of it fails, and so does every point of each
  // later sibling in the enclosing loop, which therefore stops. Only
  // capacity stops a loop; a shape or slope failure (tS1 = radius = 0)
  // does not. The points kept, and their order, are the full lattice
  // walk's.
  const auto walk = [&](const auto& self, hhc::TileSizes ts,
                        int level) -> bool {
    // (The size test is implied by dim <= 3; it lets the compiler see
    // that axes[level] below stays in bounds.)
    if (level > dim || level == static_cast<int>(std::size(axes))) {
      if (feasible(ts)) {
        out.push_back(ts);
        return false;
      }
      return !analysis::eqn31_capacity_ok(dim, ts, hw, radius);
    }
    const Axis& ax = axes[level];
    bool first = true;
    for (std::int64_t v = ax.lo; v <= ax.hi; v += ax.step) {
      if (level == 0 && v % 2 != 0) continue;
      ts.*ax.field = v;
      if (self(self, ts, level + 1)) return first;
      first = false;
    }
    return false;
  };
  walk(walk, hhc::TileSizes{.tT = 2, .tS1 = radius, .tS2 = 1, .tS3 = 1}, 0);
  out.shrink_to_fit();
  return out;
}

std::vector<hhc::TileSizes> baseline_tile_set(int dim,
                                              const model::HardwareParams& hw,
                                              std::size_t max_count,
                                              const EnumOptions& opt,
                                              std::int64_t radius) {
  return baseline_tile_set(dim, enumerate_feasible(dim, hw, opt, radius), hw,
                           max_count, radius);
}

std::vector<hhc::TileSizes> baseline_tile_set(
    int dim, std::span<const hhc::TileSizes> space,
    const model::HardwareParams& hw, std::size_t max_count,
    std::int64_t radius) {

  // For each hyperthreading target k, keep the tile sizes whose
  // footprint is as close as possible to M_SM / k from below
  // ("maximize the memory footprint of the tile subject to capacity
  // constraints", Section 5.1).
  //
  // Each footprint is computed once. The buckets sort tile indices on
  // the footprint alone, so std::sort makes the moves a sort of the
  // bare tiles by footprint would, ties included.
  std::vector<std::int64_t> words(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    words[i] = hhc::shared_words_per_tile(dim, space[i], radius);
  }
  std::vector<hhc::TileSizes> out;
  const std::int64_t m_sm = hw.shared_words_per_sm;
  std::vector<std::size_t> bucket;
  for (const std::int64_t k : {2LL, 4LL, 8LL, 16LL}) {
    const std::int64_t target = m_sm / k;
    bucket.clear();
    for (std::size_t i = 0; i < space.size(); ++i) {
      if (words[i] <= target && words[i] >= (target * 7) / 10) {
        bucket.push_back(i);
      }
    }
    std::sort(bucket.begin(), bucket.end(), [&](std::size_t a, std::size_t b) {
      return words[a] > words[b];
    });
    const std::size_t take = std::min<std::size_t>(
        bucket.size(), std::max<std::size_t>(1, max_count / 4));
    for (std::size_t i = 0; i < take; ++i) out.push_back(space[bucket[i]]);
  }
  // Deduplicate and cap.
  std::sort(out.begin(), out.end(),
            [](const hhc::TileSizes& a, const hhc::TileSizes& b) {
              return std::tie(a.tT, a.tS1, a.tS2, a.tS3) <
                     std::tie(b.tT, b.tS1, b.tS2, b.tS3);
            });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (out.size() > max_count) out.resize(max_count);
  return out;
}

hhc::TileSizes hhc_default_tiles(int dim) {
  // PPCG's untuned default is a 32-ish tile in every dimension with a
  // shallow time tile.
  switch (dim) {
    case 1:
      return {.tT = 4, .tS1 = 32, .tS2 = 1, .tS3 = 1};
    case 2:
      return {.tT = 4, .tS1 = 32, .tS2 = 32, .tS3 = 1};
    default:
      return {.tT = 4, .tS1 = 4, .tS2 = 8, .tS3 = 32};
  }
}

std::vector<hhc::ThreadConfig> default_thread_configs(int dim) {
  // HHC-generated kernels use at most 512 threads per block; larger
  // blocks blow the register budget of the unrolled code.
  if (dim == 1) {
    return {{32, 1, 1},  {64, 1, 1},  {96, 1, 1},  {128, 1, 1}, {160, 1, 1},
            {192, 1, 1}, {256, 1, 1}, {320, 1, 1}, {384, 1, 1}, {512, 1, 1}};
  }
  if (dim == 2) {
    return {{32, 1, 1}, {32, 2, 1}, {32, 4, 1},  {32, 8, 1},  {64, 2, 1},
            {64, 4, 1}, {64, 8, 1}, {128, 2, 1}, {128, 4, 1}, {256, 2, 1}};
  }
  return {{32, 1, 1}, {32, 2, 1}, {32, 2, 2}, {32, 4, 2}, {32, 4, 4},
          {64, 2, 1}, {64, 2, 2}, {64, 4, 2}, {128, 2, 2}, {128, 4, 1}};
}

std::vector<hhc::ThreadConfig> device_thread_configs(
    const device::Descriptor& dev, int dim) {
  if (dev.is_gpu()) return default_thread_configs(dim);
  // Per-tile strand counts for the CPU backend: from a single strand
  // (under-threaded: issue stalls) through the SMT sweet spot to
  // heavy oversubscription (context-switch penalties) — ten values,
  // mirroring the paper's 10-configs-per-tile protocol.
  return {{1, 1, 1},  {2, 1, 1},  {4, 1, 1},  {6, 1, 1},  {8, 1, 1},
          {12, 1, 1}, {16, 1, 1}, {24, 1, 1}, {32, 1, 1}, {48, 1, 1}};
}

}  // namespace repro::tuner
