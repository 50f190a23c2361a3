#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace repro {
namespace {

TEST(ThreadPool, JobsResolvesToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.jobs(), 1);
  ThreadPool pool_neg(-5);
  EXPECT_GE(pool_neg.jobs(), 1);
  ThreadPool pool4(4);
  EXPECT_EQ(pool4.jobs(), 4);
}

// Sets REPRO_JOBS to `value` (unsets it when null), prints the
// default_jobs() that follows and exits. Run as a death-test
// statement, so that read is the first of its process.
[[noreturn]] void print_default_jobs_and_exit(const char* value) {
  if (value != nullptr) {
    ::setenv("REPRO_JOBS", value, 1);
  } else {
    ::unsetenv("REPRO_JOBS");
  }
  std::fprintf(stderr, "default_jobs=%d\n", default_jobs());
  std::exit(0);
}

// env_once captures REPRO_JOBS at the process's first read, so each
// case runs in a child process of its own: the threadsafe death-test
// style re-executes the test binary for it, and nothing an earlier
// test in this process read can leak in.
TEST(ThreadPool, DefaultJobsHonorsEnvVar) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const unsigned hw = std::thread::hardware_concurrency();
  std::string fallback = "default_jobs=";
  fallback += std::to_string(hw == 0 ? 1u : hw);
  fallback += "\n";
  EXPECT_EXIT(print_default_jobs_and_exit("3"), ::testing::ExitedWithCode(0),
              "default_jobs=3\n");
  // Not a number and non-positive are rejected: the hardware count.
  EXPECT_EXIT(print_default_jobs_and_exit("not-a-number"),
              ::testing::ExitedWithCode(0), fallback);
  EXPECT_EXIT(print_default_jobs_and_exit("0"), ::testing::ExitedWithCode(0),
              fallback);
  EXPECT_EXIT(print_default_jobs_and_exit(nullptr),
              ::testing::ExitedWithCode(0), fallback);
}

TEST(ThreadPool, ForEachIndexVisitsEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 4, 8}) {
    for (const std::size_t grain : {std::size_t{1}, std::size_t{3},
                                    std::size_t{64}, std::size_t{1000}}) {
      ThreadPool pool(jobs);
      constexpr std::size_t kN = 237;
      std::vector<std::atomic<int>> visits(kN);
      pool.for_each_index(kN, grain,
                          [&](std::size_t i) { visits[i].fetch_add(1); });
      for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "index " << i << " jobs=" << jobs << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPool, ForEachIndexEmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.for_each_index(0, 16, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PoolIsReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.for_each_index(100, 7, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u);
  }
}

TEST(ThreadPool, TaskExceptionIsRethrownToCaller) {
  for (const int jobs : {1, 4}) {
    ThreadPool pool(jobs);
    EXPECT_THROW(
        pool.for_each_index(64, 1,
                            [&](std::size_t i) {
                              if (i == 13) throw std::runtime_error("boom");
                            }),
        std::runtime_error);
    // The pool must still work after a failed batch.
    std::atomic<int> count{0};
    pool.for_each_index(10, 2, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(ParallelMap, MatchesSerialComputation) {
  std::vector<double> expected(501);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<double>(i) * 1.5 + 1.0;
  }
  for (const int jobs : {1, 2, 7}) {
    ThreadPool pool(jobs);
    const auto got = parallel_map<double>(
        pool, expected.size(), 16,
        [](std::size_t i) { return static_cast<double>(i) * 1.5 + 1.0; });
    EXPECT_EQ(got, expected) << "jobs=" << jobs;
  }
}

// String concatenation is associative but NOT commutative: if chunks
// were merged in completion order instead of index order, the result
// would vary run to run. This pins the determinism contract.
TEST(ParallelReduce, MergesChunksInIndexOrder) {
  constexpr std::size_t kN = 199;
  std::string expected;
  for (std::size_t i = 0; i < kN; ++i) expected += std::to_string(i) + ",";
  for (const int jobs : {1, 2, 5, 16}) {
    for (const std::size_t grain : {std::size_t{1}, std::size_t{8},
                                    std::size_t{300}}) {
      ThreadPool pool(jobs);
      const std::string got = parallel_reduce<std::string>(
          pool, kN, grain, std::string{},
          [](std::string& acc, std::size_t i) {
            acc += std::to_string(i) + ",";
          },
          [](std::string a, std::string b) { return a + b; });
      EXPECT_EQ(got, expected) << "jobs=" << jobs << " grain=" << grain;
    }
  }
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  ThreadPool pool(4);
  const int got = parallel_reduce<int>(
      pool, 0, 8, 42, [](int& acc, std::size_t) { ++acc; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(got, 42);
}

TEST(ParallelReduce, SumMatchesSerialAtAnyJobCount) {
  constexpr std::size_t kN = 1000;
  const long long expected = static_cast<long long>(kN) * (kN - 1) / 2;
  for (const int jobs : {1, 3, 8}) {
    ThreadPool pool(jobs);
    const long long got = parallel_reduce<long long>(
        pool, kN, 13, 0LL,
        [](long long& acc, std::size_t i) {
          acc += static_cast<long long>(i);
        },
        [](long long a, long long b) { return a + b; });
    EXPECT_EQ(got, expected) << "jobs=" << jobs;
  }
}

// Callers that each take a place at one AdmissionGate and, once
// inside, hold their slot until release(); entry order is recorded.
class GateClients {
 public:
  explicit GateClients(AdmissionGate& gate) : gate_(gate) {}
  ~GateClients() {
    release();
    for (std::thread& t : threads_) t.join();
  }

  // Starts client `id` and returns once it is inside or in line.
  void start(int id) {
    const std::size_t in_line = gate_.waiting();
    const std::size_t inside = entered();
    threads_.emplace_back([this, id] {
      const AdmissionGate::Slot slot = gate_.enter(std::chrono::seconds(30));
      std::unique_lock<std::mutex> lk(mu_);
      ASSERT_TRUE(slot) << "client " << id;
      order_.push_back(id);
      cv_.wait(lk, [&] { return released_; });
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (gate_.waiting() == in_line && entered() == inside &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  // Joins every client; the ids in the order they entered.
  std::vector<int> finish() {
    release();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    return order_;
  }

  std::size_t entered() {
    std::lock_guard<std::mutex> lk(mu_);
    return order_.size();
  }

 private:
  AdmissionGate& gate_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::vector<int> order_;
  std::vector<std::thread> threads_;
};

TEST(AdmissionGate, AdmitsEveryCallerWithAtMostWorkersInside) {
  AdmissionGate gate(2, 8);
  EXPECT_EQ(gate.workers(), 2);
  EXPECT_EQ(gate.depth(), 8u);
  std::atomic<int> inside{0};
  std::atomic<int> most{0};
  std::atomic<int> ran{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < 10; ++i) {  // workers + depth: every caller has room
    callers.emplace_back([&] {
      const AdmissionGate::Slot slot = gate.enter(std::chrono::seconds(30));
      ASSERT_TRUE(slot);
      const int now = inside.fetch_add(1) + 1;
      int m = most.load();
      while (now > m && !most.compare_exchange_weak(m, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      inside.fetch_sub(1);
      ran.fetch_add(1);
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(ran.load(), 10);
  EXPECT_GE(most.load(), 1);
  EXPECT_LE(most.load(), 2);
  EXPECT_EQ(gate.waiting(), 0u);
  EXPECT_TRUE(gate.enter());  // every slot was given back
}

TEST(AdmissionGate, HoldsAtMostDepthInLineAndRejectsAfterItsWait) {
  AdmissionGate gate(2, 2);
  GateClients clients(gate);
  clients.start(0);
  clients.start(1);
  ASSERT_EQ(clients.entered(), 2u);
  clients.start(2);
  clients.start(3);
  ASSERT_EQ(gate.waiting(), 2u);
  EXPECT_EQ(clients.entered(), 2u);  // no third caller inside

  // A full line turns a caller away at once with no wait...
  EXPECT_FALSE(gate.enter());
  // ...and after its wait with one.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(gate.enter(std::chrono::milliseconds(50)));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(50));
  EXPECT_EQ(gate.waiting(), 2u);

  // Both waiters enter once both slots free up, in either order.
  std::vector<int> order = clients.finish();
  std::sort(order.begin() + 2, order.end());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(gate.waiting(), 0u);
}

TEST(AdmissionGate, EntersInArrivalOrder) {
  AdmissionGate gate(1, 6);
  GateClients clients(gate);
  for (int id = 0; id < 7; ++id) clients.start(id);
  EXPECT_EQ(clients.entered(), 1u);
  EXPECT_EQ(gate.waiting(), 6u);
  EXPECT_EQ(clients.finish(), (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(AdmissionGate, DepthZeroIsClampedToOne) {
  AdmissionGate gate(1, 0);
  EXPECT_EQ(gate.depth(), 1u);
  GateClients clients(gate);
  clients.start(0);
  clients.start(1);
  EXPECT_EQ(clients.entered(), 1u);
  EXPECT_EQ(gate.waiting(), 1u);
  EXPECT_FALSE(gate.enter());
  EXPECT_EQ(clients.finish(), (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace repro
