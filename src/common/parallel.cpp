#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/env.hpp"

namespace repro {

int default_jobs() noexcept {
  // REPRO_JOBS follows the once-per-process contract of common/env.hpp.
  if (const std::optional<std::string> env = env_once("REPRO_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env->c_str(), &end, 10);
    if (end != env->c_str() && *end == '\0' && v > 0 && v <= 4096) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int jobs)
    : jobs_(jobs > 0 ? jobs : default_jobs()) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::start_workers() {
  // Called with mu_ held, once.
  workers_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 0; i < jobs_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  started_ = true;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] {
      return stop_ || (batch_ != nullptr && generation_ != seen);
    });
    if (stop_) return;
    seen = generation_;
    Batch* b = batch_;
    ++b->active_workers;
    lk.unlock();
    run_chunks(*b);
    lk.lock();
    --b->active_workers;
    cv_done_.notify_all();
  }
}

void ThreadPool::run_chunks(Batch& b) {
  for (;;) {
    const std::size_t c =
        b.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= b.num_chunks) return;
    if (!b.failed.load(std::memory_order_acquire)) {
      const std::size_t lo = c * b.grain;
      const std::size_t hi = std::min(b.n, lo + b.grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) (*b.fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!b.error) b.error = std::current_exception();
        b.failed.store(true, std::memory_order_release);
      }
    }
    if (b.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        b.num_chunks) {
      cv_done_.notify_all();
    }
  }
}

AdmissionGate::AdmissionGate(int workers, std::size_t depth)
    : workers_(workers > 0 ? workers : default_jobs()),
      depth_(depth == 0 ? 1 : depth) {}

AdmissionGate::Slot AdmissionGate::enter(std::chrono::milliseconds wait) {
  const std::uint64_t workers = static_cast<std::uint64_t>(workers_);
  std::unique_lock<std::mutex> lk(mu_);
  if (!cv_.wait_for(lk, wait,
                    [&] { return issued_ - finished_ < workers + depth_; })) {
    return Slot(nullptr);
  }
  const std::uint64_t ticket = issued_++;
  cv_.wait(lk, [&] { return ticket < finished_ + workers; });
  return Slot(this);
}

std::size_t AdmissionGate::waiting() const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t held = issued_ - finished_;
  const std::uint64_t workers = static_cast<std::uint64_t>(workers_);
  return static_cast<std::size_t>(held > workers ? held - workers : 0);
}

void AdmissionGate::leave() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++finished_;
  }
  cv_.notify_all();
}

void ThreadPool::for_each_index(std::size_t n, std::size_t grain,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  // Serial fast path: one worker, or a single chunk of work.
  if (jobs_ <= 1 || n <= g) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Batch b;
  b.n = n;
  b.grain = g;
  b.num_chunks = (n + g - 1) / g;
  b.fn = &fn;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!started_) start_workers();
    batch_ = &b;
    ++generation_;
  }
  cv_work_.notify_all();

  // The calling thread is one of the workers.
  run_chunks(b);

  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] {
    return b.chunks_done.load(std::memory_order_acquire) == b.num_chunks &&
           b.active_workers == 0;
  });
  batch_ = nullptr;
  lk.unlock();
  if (b.error) std::rethrow_exception(b.error);
}

}  // namespace repro
