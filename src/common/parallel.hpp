// The work-pool layer: a fixed thread pool plus deterministic
// parallel-for / map / chunked-reduce primitives for the tuner's hot
// sweeps (model sweep, machine evaluation, validation scatter), and
// the service's admission gate (AdmissionGate).
//
// Determinism contract: every primitive here produces results that are
// bitwise-identical for any worker count. parallel_map writes each
// element into its own slot; parallel_reduce folds fixed-size chunks
// (chunk boundaries depend only on `grain`, never on the number of
// workers) and merges the per-chunk accumulators in chunk order.
// Provided the merge operation is associative — true for every
// reduction in this codebase (first-strictly-better minimum
// selection) — the result equals the serial left fold.
//
// The worker count is resolved as: explicit request > REPRO_JOBS
// environment variable > std::thread::hardware_concurrency(). The
// bench binaries expose it as --jobs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace repro {

// Worker count used when none is requested: REPRO_JOBS if set to a
// positive integer, otherwise the hardware concurrency (at least 1).
int default_jobs() noexcept;

// A fixed pool of `jobs - 1` worker threads (the calling thread is
// the remaining worker). Workers are spawned lazily on the first
// parallel call, so constructing a pool — e.g. inside the serial
// compatibility wrappers — costs nothing until it is actually used.
// One parallel call runs at a time per pool; nested calls from inside
// a task are not supported.
class ThreadPool {
 public:
  // jobs <= 0 means default_jobs().
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int jobs() const noexcept { return jobs_; }

  // Invoke fn(i) for every i in [0, n), distributing chunks of
  // `grain` consecutive indices over the workers. Blocks until every
  // index has been processed; rethrows the first exception thrown by
  // a task (remaining chunks are skipped once a task has failed).
  void for_each_index(std::size_t n, std::size_t grain,
                      const std::function<void(std::size_t)>& fn);

 private:
  struct Batch {
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t num_chunks = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> chunks_done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // guarded by the pool mutex
    int active_workers = 0;    // guarded by the pool mutex
  };

  void start_workers();
  void worker_loop();
  void run_chunks(Batch& b);

  int jobs_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  Batch* batch_ = nullptr;     // current batch; one at a time
  std::uint64_t generation_ = 0;
  bool started_ = false;
  bool stop_ = false;
};

// Admission control for service computations, each run on the
// thread that asks for it: at most `workers` callers hold a slot at
// once, at most `depth` more wait in line for one, and they enter in
// arrival order. A caller that finds the line full waits up to `wait`
// for room and is then turned away, so an overloaded service answers
// with an error (the tuned daemon's SL406) instead of blocking its
// clients forever.
class AdmissionGate {
 public:
  // A held slot, given back when it goes out of scope; empty (false)
  // when the caller was turned away.
  class Slot {
   public:
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    ~Slot() {
      if (gate_ != nullptr) gate_->leave();
    }
    explicit operator bool() const noexcept { return gate_ != nullptr; }

   private:
    friend class AdmissionGate;
    explicit Slot(AdmissionGate* gate) noexcept : gate_(gate) {}
    AdmissionGate* gate_;
  };

  // workers <= 0 means default_jobs(); depth 0 means depth 1.
  AdmissionGate(int workers, std::size_t depth);

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  int workers() const noexcept { return workers_; }
  std::size_t depth() const noexcept { return depth_; }

  // Takes a place in line, waiting up to `wait` for one while the line
  // is full (an empty Slot if none frees up), then blocks until every
  // earlier caller has entered and a slot is free.
  [[nodiscard]] Slot enter(
      std::chrono::milliseconds wait = std::chrono::milliseconds(0));

  // Callers in line, not yet holding a slot.
  std::size_t waiting() const;

 private:
  void leave();

  int workers_;
  std::size_t depth_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Ticket t enters once t < finished_ + workers_: tickets issued and
  // slots given back, so at most workers_ are inside at once.
  std::uint64_t issued_ = 0;
  std::uint64_t finished_ = 0;
};

// out[i] = fn(i) for i in [0, n), computed in parallel. Element order
// (and therefore the result) is independent of the worker count.
template <typename T, typename Fn>
std::vector<T> parallel_map(ThreadPool& pool, std::size_t n,
                            std::size_t grain, Fn&& fn) {
  std::vector<T> out(n);
  pool.for_each_index(n, grain,
                      [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

// Deterministic chunked reduction over [0, n): `fold(acc, i)` folds
// element i into a chunk-local accumulator (initialized to `init`),
// and the per-chunk accumulators are merged with `merge` in ascending
// chunk order. Chunk boundaries are a pure function of (n, grain), so
// for an associative `merge` the result is bitwise-identical to the
// serial left fold regardless of the worker count.
template <typename Acc, typename Fold, typename Merge>
Acc parallel_reduce(ThreadPool& pool, std::size_t n, std::size_t grain,
                    Acc init, Fold&& fold, Merge&& merge) {
  if (n == 0) return init;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t num_chunks = (n + g - 1) / g;
  std::vector<Acc> partial(num_chunks, init);
  pool.for_each_index(num_chunks, 1, [&](std::size_t c) {
    Acc acc = init;
    const std::size_t lo = c * g;
    const std::size_t hi = lo + g < n ? lo + g : n;
    for (std::size_t i = lo; i < hi; ++i) fold(acc, i);
    partial[c] = std::move(acc);
  });
  Acc out = std::move(partial[0]);
  for (std::size_t c = 1; c < num_chunks; ++c) {
    out = merge(std::move(out), std::move(partial[c]));
  }
  return out;
}

}  // namespace repro
