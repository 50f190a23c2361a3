#include "support/event_sim.hpp"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "gpusim/cost_profile.hpp"
#include "gpusim/scheduling.hpp"
#include "gpusim/timing.hpp"
#include "hhc/hex_schedule.hpp"

namespace repro::gpusim {

namespace {

// Hard cap so an accidental paper-scale call cannot allocate and
// simulate hundreds of millions of block events.
constexpr std::int64_t kMaxEventBlocks = 1 << 21;

enum class Phase : std::uint8_t { kLoadDone, kComputeDone, kStoreDone };

struct Event {
  double time;
  std::int64_t seq;  // tie-breaker for determinism
  Phase phase;
  std::int32_t block;

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

struct BlockState {
  BlockWork work;
  std::int32_t sm = -1;
};

// Exact per-block work of one tile shape (compute seconds and raw
// global traffic in bytes, before coalescing derating): the event
// simulator prices every tile individually instead of aggregating
// congruent ones.
BlockWork tile_block_work(const DeviceParams& dev,
                          const stencil::ProblemSize& p,
                          const hhc::TileSizes& ts, int threads,
                          const hhc::TileShape& shape, double cyc_iter) {
  return price_block(dev, block_geometry(p, ts, shape), threads, cyc_iter);
}

// Simulates one kernel row; returns its wall time and accumulates
// busy time on the channel and the SMs.
double simulate_row(const DeviceParams& dev, std::vector<BlockState>& blocks,
                    std::int64_t k, double* channel_busy,
                    std::vector<double>* sm_busy) {
  const int n_sm = dev.n_sm;
  std::vector<int> resident(static_cast<std::size_t>(n_sm), 0);
  std::vector<double> sm_free(static_cast<std::size_t>(n_sm), 0.0);
  double channel_free = 0.0;
  std::int64_t seq = 0;

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;

  // Least-loaded SM selection as a lazy min-heap of (count, sm):
  // every count change pushes a fresh entry, stale entries (count no
  // longer current) are skipped on pop. Pair ordering reproduces the
  // old linear scan's tie-break exactly — minimum count, then minimum
  // SM index — at O(log n_sm) per admission instead of O(n_sm).
  using Slot = std::pair<int, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> slots;
  for (int sm = 0; sm < n_sm; ++sm) slots.push({0, sm});

  std::size_t next = 0;
  double end_time = 0.0;

  auto reserve_channel = [&](double now, double bytes) {
    // Bandwidth serializes on the channel; the DRAM latency overlaps
    // across outstanding requests (the memory system pipelines them),
    // so it delays the completion but does not occupy the channel.
    const double start = std::max(now, channel_free);
    const double dur = bytes / dev.mem_bandwidth_bps;
    channel_free = start + dur;
    *channel_busy += dur;
    return channel_free + dev.mem_latency_s;
  };

  auto admit = [&](double now) {
    while (next < blocks.size()) {
      while (!slots.empty() &&
             resident[static_cast<std::size_t>(slots.top().second)] !=
                 slots.top().first) {
        slots.pop();  // stale
      }
      // The freshest entry of each SM is always valid, so an empty or
      // >= k top means every SM is at capacity.
      if (slots.empty() || slots.top().first >= k) return;
      const int best = slots.top().second;
      slots.pop();
      BlockState& b = blocks[next];
      b.sm = best;
      ++resident[static_cast<std::size_t>(best)];
      slots.push({resident[static_cast<std::size_t>(best)], best});
      // Phase 1: load through the shared memory channel.
      const double done = reserve_channel(now, b.work.io_bytes / 2.0);
      heap.push({done, seq++, Phase::kLoadDone,
                 static_cast<std::int32_t>(next)});
      ++next;
    }
  };

  admit(0.0);
  while (!heap.empty()) {
    const Event ev = heap.top();
    heap.pop();
    BlockState& b = blocks[static_cast<std::size_t>(ev.block)];
    const auto sm = static_cast<std::size_t>(b.sm);
    switch (ev.phase) {
      case Phase::kLoadDone: {
        // Phase 2: compute on the block's SM (serial FCFS server —
        // the lanes are shared among resident blocks).
        const double start = std::max(ev.time, sm_free[sm]);
        sm_free[sm] = start + b.work.compute_s;
        (*sm_busy)[sm] += b.work.compute_s;
        heap.push({sm_free[sm], seq++, Phase::kComputeDone, ev.block});
        break;
      }
      case Phase::kComputeDone: {
        // Phase 3: write back through the channel.
        const double done = reserve_channel(ev.time, b.work.io_bytes / 2.0);
        heap.push({done, seq++, Phase::kStoreDone, ev.block});
        break;
      }
      case Phase::kStoreDone: {
        --resident[sm];
        slots.push({resident[sm], static_cast<int>(sm)});
        end_time = std::max(end_time, ev.time);
        admit(ev.time);
        break;
      }
    }
  }
  return end_time;
}

}  // namespace

EventSimResult simulate_time_event(const DeviceParams& dev,
                                   const stencil::StencilDef& def,
                                   const stencil::ProblemSize& p,
                                   const hhc::TileSizes& ts,
                                   const hhc::ThreadConfig& thr) {
  return simulate_time_event(dev, def, p, ts, thr, EventSimOptions{});
}

EventSimResult simulate_time_event(const DeviceParams& dev,
                                   const stencil::StencilDef& def,
                                   const stencil::ProblemSize& p,
                                   const hhc::TileSizes& ts,
                                   const hhc::ThreadConfig& thr,
                                   const EventSimOptions& opt) {
  EventSimResult res;
  const int threads = thr.total();
  const ResolvedConfig rc = resolve_config(dev, def, p.dim, ts, threads);
  if (!rc.feasible) {
    res.infeasible_reason = rc.infeasible_reason;
    return res;
  }

  const hhc::HexSchedule sched(p.T, p.S[0], ts.tT, ts.tS1, def.radius);

  // Pre-count blocks for the safety cap.
  std::int64_t total_blocks = 0;
  for (std::int64_t r = 0; r < sched.num_rows(); ++r) {
    total_blocks += sched.tiles_in_row(r);
  }
  if (total_blocks > kMaxEventBlocks) {
    res.infeasible_reason = "problem too large for event-level simulation";
    return res;
  }

  double total = 0.0;
  double channel_busy = 0.0;
  std::vector<double> sm_busy(static_cast<std::size_t>(dev.n_sm), 0.0);

  for (std::int64_t r = 0; r < sched.num_rows(); ++r) {
    ++res.kernel_calls;
    std::vector<BlockState> blocks;
    blocks.reserve(static_cast<std::size_t>(sched.tiles_in_row(r)));
    // Interior tiles whose read halo also clears the domain edges are
    // congruent within a row (pure translations, identical widths and
    // footprints) — price the first one and reuse its BlockWork for
    // the rest. is_interior alone is not enough: a tile flush against
    // the boundary keeps its full width but loses the halo cells the
    // footprint would otherwise read outside the domain.
    const auto halo_clear = [&](const hhc::TileShape& shape) {
      for (const auto& iv : shape.level_cols) {
        if (iv.empty()) continue;
        if (iv.lo - def.radius < 0 || iv.hi + def.radius > p.S[0]) {
          return false;
        }
      }
      return true;
    };
    bool have_interior = false;
    BlockWork interior_work;
    for (std::int64_t q = sched.q_begin(r); q < sched.q_end(r); ++q) {
      const hhc::TileShape shape = sched.shape(r, q);
      if (shape.empty()) continue;
      BlockState b;
      if (opt.reuse_congruent_tiles && sched.is_interior(r, q) &&
          halo_clear(shape)) {
        if (!have_interior) {
          interior_work =
              tile_block_work(dev, p, ts, threads, shape, rc.cyc_iter);
          interior_work.io_bytes /= rc.coalesce_eff;
          have_interior = true;
        }
        b.work = interior_work;
      } else {
        b.work = tile_block_work(dev, p, ts, threads, shape, rc.cyc_iter);
        b.work.io_bytes /= rc.coalesce_eff;
      }
      blocks.push_back(b);
    }
    res.blocks += static_cast<std::int64_t>(blocks.size());
    total += dev.kernel_launch_s;
    if (!blocks.empty()) {
      total += simulate_row(dev, blocks, rc.k, &channel_busy, &sm_busy);
      // Block dispatch overhead, as in the aggregate engine.
      total += static_cast<double>((static_cast<std::int64_t>(blocks.size()) +
                                    dev.n_sm - 1) /
                                   dev.n_sm) *
               dev.block_sched_s;
    }
  }

  res.feasible = true;
  res.seconds = total;
  if (total > 0.0) {
    res.mem_channel_busy = channel_busy / total;
    double avg = 0.0;
    for (const double b : sm_busy) avg += b;
    res.sm_compute_busy = avg / static_cast<double>(dev.n_sm) / total;
  }
  return res;
}

}  // namespace repro::gpusim
