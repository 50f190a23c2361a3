#include "analysis/ranges.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "hhc/footprint.hpp"

namespace repro::analysis {

namespace {

std::string tap_str(const stencil::Tap& t, int dim) {
  std::string s = "(";
  s += std::to_string(t.ds[0]);
  for (int d = 1; d < dim; ++d) {
    s += ',';
    s += std::to_string(t.ds[static_cast<std::size_t>(d)]);
  }
  s += ')';
  return s;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

TapRangeInfo analyze_tap_ranges(const stencil::StencilDef& def) {
  TapRangeInfo info;
  for (std::size_t i = 0; i < def.taps.size(); ++i) {
    const stencil::Tap& t = def.taps[i];
    for (std::size_t d = 0; d < 3; ++d) {
      info.reach[d] = std::max(info.reach[d], std::abs(t.ds[d]));
    }
    if (!std::isfinite(t.weight)) info.finite = false;
    if (t.weight == 0.0) ++info.zero_weight_taps;
    info.weight_sum += t.weight;
    info.abs_weight_sum += std::abs(t.weight);
    for (std::size_t j = 0; j < i; ++j) {
      if (def.taps[j].ds == t.ds) {
        ++info.duplicate_taps;
        break;
      }
    }
  }
  if (!std::isfinite(def.constant)) info.finite = false;
  info.max_reach =
      std::max({info.reach[0], info.reach[1], info.reach[2]});
  return info;
}

bool check_tap_ranges(const stencil::StencilDef& def,
                      DiagnosticEngine& diags) {
  const std::size_t errors_before = diags.count(Severity::kError);
  const TapRangeInfo info = analyze_tap_ranges(def);

  // SL501: a tap outside the declared radius reads cells the tile
  // halo was never allocated for — the generated kernel is wrong, not
  // merely slow. (Parsed programs derive the radius from the taps, so
  // this fires only on inconsistent hand-built defs.)
  for (const stencil::Tap& t : def.taps) {
    int reach = 0;
    for (std::size_t d = 0; d < 3; ++d) {
      reach = std::max(reach, std::abs(t.ds[d]));
    }
    if (reach > def.radius) {
      diags.add({Severity::kError, Code::kAuditTapBeyondRadius,
                 "tap " + tap_str(t, def.dim) + " reaches " +
                     std::to_string(reach) +
                     " cells but the declared radius is " +
                     std::to_string(def.radius) +
                     "; the tile halo is sized for the radius, so this "
                     "tap reads out of bounds",
                 0,
                 "declare radius >= " + std::to_string(reach) +
                     " or shrink the tap offset"});
    }
  }

  // SL502: the opposite inconsistency only wastes resources — every
  // tile carries halo words no tap ever reads.
  if (def.radius > info.max_reach && !def.taps.empty()) {
    diags.add({Severity::kWarning, Code::kAuditRadiusOverdeclared,
               "declared radius " + std::to_string(def.radius) +
                   " but the taps reach only " +
                   std::to_string(info.max_reach) +
                   "; every tile allocates unused halo words and the "
                   "slope constraint tS1 >= radius is tighter than it "
                   "needs to be",
               0,
               "declare radius " + std::to_string(info.max_reach)});
  }

  // SL503/SL505: duplicate and dead taps, at the semantic level so
  // hand-built defs are covered too (the parser's SL107/SL108 are
  // line-anchored twins for DSL text).
  for (std::size_t i = 0; i < def.taps.size(); ++i) {
    const stencil::Tap& t = def.taps[i];
    for (std::size_t j = 0; j < i; ++j) {
      if (def.taps[j].ds == t.ds) {
        diags.add({Severity::kWarning, Code::kAuditDuplicateTap,
                   "tap " + tap_str(t, def.dim) +
                       " loads the same cell as an earlier tap; the "
                       "weights are summed but the load is issued twice",
                   0, "merge the duplicate taps into one"});
        break;
      }
    }
    if (t.weight == 0.0 &&
        def.body != stencil::BodyKind::kGradientMagnitude) {
      diags.add({Severity::kWarning, Code::kAuditDeadTap,
                 "tap " + tap_str(t, def.dim) +
                     " has weight 0: it widens the halo and costs a "
                     "shared load but cannot affect the result",
                 0, "remove the tap"});
    }
  }

  // SL504: NaN/inf coefficients poison every grid point after one
  // step; no amount of tuning makes the result meaningful.
  if (!info.finite) {
    diags.add({Severity::kError, Code::kAuditNonFiniteCoefficient,
               "a tap weight or the stencil constant is NaN or "
               "infinite; every iterate is poisoned after one step",
               0, "replace the non-finite coefficient"});
  }

  // SL506: an amplifying weighted sum diverges over many time steps —
  // legal, occasionally intended (sharpening), so only a note. The
  // criterion applies to plain weighted sums; gradient-style bodies
  // use signed weights whose |.|-sum exceeding 1 is normal.
  if (info.finite && def.body == stencil::BodyKind::kWeightedSum &&
      info.abs_weight_sum > 1.0 + 1e-9) {
    diags.add({Severity::kNote, Code::kAuditAmplification,
               "sum of |weights| is " + num(info.abs_weight_sum) +
                   " > 1: the update amplifies and long time sweeps "
                   "may overflow",
               0, ""});
  }

  return diags.count(Severity::kError) == errors_before;
}

// --- sweep-space dead-region certificates ---------------------------

namespace {

std::vector<std::int64_t> axis_values(std::int64_t lo, std::int64_t step,
                                      std::int64_t max, bool even_only) {
  std::vector<std::int64_t> v;
  if (step <= 0) return v;
  for (std::int64_t x = lo; x <= max; x += step) {
    if (even_only && x % 2 != 0) continue;
    v.push_back(x);
  }
  return v;
}

std::string kib(std::int64_t words) {
  const std::int64_t bytes = words * hhc::kWordBytes;
  return std::to_string(bytes / 1024) + "." +
         std::to_string((bytes % 1024) * 10 / 1024) + " KiB";
}

}  // namespace

bool SweepCertificate::covers(const hhc::TileSizes& ts) const noexcept {
  if (ts.tS1 < slope_min_tS1) return true;
  for (const DeadRegion& d : dead) {
    if (ts.tT >= d.lo.tT && ts.tS1 >= d.lo.tS1 &&
        (dim < 2 || ts.tS2 >= d.lo.tS2) &&
        (dim < 3 || ts.tS3 >= d.lo.tS3)) {
      return true;
    }
  }
  return false;
}

SweepCertificate certify_sweep(int dim, const model::HardwareParams& hw,
                               const SweepGrid& grid,
                               std::int64_t radius) {
  SweepCertificate cert;
  cert.dim = dim;
  cert.radius = radius;
  cert.grid = grid;
  const std::int64_t r = std::max<std::int64_t>(radius, 1);
  cert.slope_min_tS1 = r;
  const std::int64_t limit =
      std::min(hw.max_shared_words_per_block, hw.shared_words_per_sm);

  // The lattice axes, exactly as enumerate_feasible walks them: tT
  // from 2 (even values only), tS1 from the raw radius, tS2/tS3 from
  // one step.
  const std::vector<std::int64_t> tTs =
      axis_values(2, grid.tT_step, grid.tT_max, /*even_only=*/true);
  const std::vector<std::int64_t> tS1s =
      axis_values(radius, grid.tS1_step, grid.tS1_max, false);
  const std::vector<std::int64_t> tS2s =
      dim >= 2 ? axis_values(grid.tS2_step, grid.tS2_step, grid.tS2_max,
                             false)
               : std::vector<std::int64_t>{1};
  const std::vector<std::int64_t> tS3s =
      dim >= 3 ? axis_values(grid.tS3_step, grid.tS3_step, grid.tS3_max,
                             false)
               : std::vector<std::int64_t>{1};

  cert.lattice_points =
      static_cast<std::int64_t>(tTs.size()) *
      static_cast<std::int64_t>(tS1s.size()) *
      static_cast<std::int64_t>(tS2s.size()) *
      static_cast<std::int64_t>(tS3s.size());
  if (cert.lattice_points == 0) return cert;

  // The innermost axis (the one the per-fiber binary search runs
  // over) is the deepest loop of the enumeration for this dim.
  const std::vector<std::int64_t>& inner =
      dim == 1 ? tS1s : (dim == 2 ? tS2s : tS3s);
  const std::int64_t n_inner = static_cast<std::int64_t>(inner.size());

  const auto make_ts = [&](std::size_t i, std::size_t j, std::size_t k,
                           std::int64_t inner_v) {
    hhc::TileSizes ts{.tT = tTs[i], .tS1 = 1, .tS2 = 1, .tS3 = 1};
    if (dim == 1) {
      ts.tS1 = inner_v;
    } else if (dim == 2) {
      ts.tS1 = tS1s[j];
      ts.tS2 = inner_v;
    } else {
      ts.tS1 = tS1s[j];
      ts.tS2 = tS2s[k];
      ts.tS3 = inner_v;
    }
    return ts;
  };
  const auto fails = [&](const hhc::TileSizes& ts) {
    return hhc::shared_words_per_tile(dim, ts, r) > limit;
  };

  // f(fiber) = first inner index whose tile violates capacity (or
  // n_inner when the whole fiber fits). Capacity is monotone in the
  // inner coordinate, so one binary search per fiber suffices; f is
  // non-increasing in every outer coordinate for the same reason.
  const std::size_t n0 = tTs.size();
  const std::size_t n1 = dim >= 2 ? tS1s.size() : 1;
  const std::size_t n2 = dim >= 3 ? tS2s.size() : 1;
  std::vector<std::int64_t> f(n0 * n1 * n2);
  const auto fidx = [&](std::size_t i, std::size_t j, std::size_t k)
      -> std::int64_t& { return f[(i * n1 + j) * n2 + k]; };

  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      for (std::size_t k = 0; k < n2; ++k) {
        std::int64_t lo = 0;
        std::int64_t hi = n_inner;
        while (lo < hi) {
          const std::int64_t mid = lo + (hi - lo) / 2;
          if (fails(make_ts(i, j, k, inner[static_cast<std::size_t>(mid)]))) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        fidx(i, j, k) = lo;
      }
    }
  }

  // Exact dead count, fiber by fiber. Capacity tail boxes can never
  // reach below a fiber's own f (every point of a box capacity-fails),
  // so within a fiber the dead set is (slope prefix) union (capacity
  // suffix) and the count is exact.
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      for (std::size_t k = 0; k < n2; ++k) {
        const std::int64_t cap_dead = n_inner - fidx(i, j, k);
        if (dim == 1) {
          std::int64_t lc = 0;
          while (lc < n_inner &&
                 inner[static_cast<std::size_t>(lc)] < r) {
            ++lc;
          }
          cert.dead_points +=
              lc + cap_dead - std::max<std::int64_t>(0, lc - fidx(i, j, k));
        } else if (tS1s[j] < r) {
          cert.dead_points += n_inner;
        } else {
          cert.dead_points += cap_dead;
        }
      }
    }
  }

  // Minimal infeasible corners: (i,j,k, f) is minimal iff the fiber
  // has a failing point at all and every immediate predecessor fiber
  // fails strictly later (f is non-increasing outward, so equality
  // means the predecessor's corner already dominates this one).
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      for (std::size_t k = 0; k < n2; ++k) {
        const std::int64_t fv = fidx(i, j, k);
        if (fv >= n_inner) continue;
        if (i > 0 && fidx(i - 1, j, k) <= fv) continue;
        if (j > 0 && fidx(i, j - 1, k) <= fv) continue;
        if (k > 0 && fidx(i, j, k - 1) <= fv) continue;
        DeadRegion region;
        region.lo = make_ts(i, j, k, inner[static_cast<std::size_t>(fv)]);
        const std::int64_t m =
            hhc::shared_words_per_tile(dim, region.lo, r);
        region.reason = m > hw.max_shared_words_per_block
                            ? Code::kTileBlockLimit
                            : Code::kTileSmCapacity;
        region.points = static_cast<std::int64_t>(n0 - i) * (n_inner - fv);
        if (dim >= 2) {
          region.points *= static_cast<std::int64_t>(n1 - j);
        }
        if (dim >= 3) {
          region.points *= static_cast<std::int64_t>(n2 - k);
        }
        cert.dead.push_back(region);
      }
    }
  }
  return cert;
}

std::vector<hhc::TileSizes> certified_live_points(
    const SweepCertificate& cert) {
  // enumerate_feasible's exact loop order, with the capacity predicate
  // replaced by certificate coverage.
  const SweepGrid& g = cert.grid;
  std::vector<hhc::TileSizes> out;
  if (g.tT_step <= 0 || g.tS1_step <= 0 || g.tS2_step <= 0 ||
      g.tS3_step <= 0) {
    return out;
  }
  for (std::int64_t tT = 2; tT <= g.tT_max; tT += g.tT_step) {
    if (tT % 2 != 0) continue;
    for (std::int64_t tS1 = cert.radius; tS1 <= g.tS1_max;
         tS1 += g.tS1_step) {
      if (cert.dim == 1) {
        const hhc::TileSizes ts{.tT = tT, .tS1 = tS1, .tS2 = 1, .tS3 = 1};
        if (!cert.covers(ts)) out.push_back(ts);
        continue;
      }
      for (std::int64_t tS2 = g.tS2_step; tS2 <= g.tS2_max;
           tS2 += g.tS2_step) {
        if (cert.dim == 2) {
          const hhc::TileSizes ts{
              .tT = tT, .tS1 = tS1, .tS2 = tS2, .tS3 = 1};
          if (!cert.covers(ts)) out.push_back(ts);
          continue;
        }
        for (std::int64_t tS3 = g.tS3_step; tS3 <= g.tS3_max;
             tS3 += g.tS3_step) {
          const hhc::TileSizes ts{
              .tT = tT, .tS1 = tS1, .tS2 = tS2, .tS3 = tS3};
          if (!cert.covers(ts)) out.push_back(ts);
        }
      }
    }
  }
  return out;
}

void audit_sweep(const SweepCertificate& cert, DiagnosticEngine& diags,
                 std::size_t max_region_notes) {
  if (cert.lattice_points == 0 || cert.empty()) {
    diags.add({Severity::kError, Code::kAuditEmptySweep,
               "the sweep space is provably empty: all " +
                   std::to_string(cert.lattice_points) +
                   " lattice points are infeasible (" +
                   std::to_string(cert.dead.size()) +
                   " dead-region certificates)",
               0,
               "relax the enumeration bounds, shrink the steps, or "
               "pick a device with more shared memory"});
    return;
  }
  if (cert.dead_points == 0) return;

  std::size_t shown = 0;
  for (const DeadRegion& d : cert.dead) {
    if (shown >= max_region_notes) break;
    ++shown;
    std::string box = "tT >= " + std::to_string(d.lo.tT) +
                      ", tS1 >= " + std::to_string(d.lo.tS1);
    if (cert.dim >= 2) box += ", tS2 >= " + std::to_string(d.lo.tS2);
    if (cert.dim >= 3) box += ", tS3 >= " + std::to_string(d.lo.tS3);
    const std::int64_t m = hhc::shared_words_per_tile(
        cert.dim, d.lo, std::max<std::int64_t>(cert.radius, 1));
    const std::string wall =
        d.reason == Code::kTileBlockLimit
            ? "the per-block shared-memory limit"
            : "the SM shared-memory capacity M_SM";
    diags.add({Severity::kNote, Code::kAuditDeadRegion,
               "certified dead region: every tile with " + box +
                   " needs at least " + kib(m) + " and exceeds " + wall +
                   " (" + std::to_string(d.points) +
                   " lattice points rejected by one corner check)",
               0, ""});
  }
  diags.add(
      {Severity::kNote, Code::kAuditDeadRegion,
       std::to_string(cert.dead.size()) +
           " dead-region certificate(s) cover " +
           std::to_string(cert.dead_points) + " of " +
           std::to_string(cert.lattice_points) + " lattice points; " +
           std::to_string(cert.lattice_points - cert.dead_points) +
           " remain live",
       0, ""});
}

}  // namespace repro::analysis
