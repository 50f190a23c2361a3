#include "service/core.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "device/registry.hpp"
#include "stencil/stencil.hpp"
#include "support/temp_dir.hpp"

namespace repro::service {
namespace {

namespace fs = std::filesystem;

constexpr const char* kPredict =
    R"({"v":1,"id":"p1","kind":"predict","stencil":"Heat2D",)"
    R"("problem":{"S":[512,512],"T":64},"tile":{"tT":6,"tS1":8,"tS2":160},)"
    R"("threads":{"n1":32,"n2":4}})";

constexpr const char* kBestTile =
    R"({"v":1,"id":"b1","kind":"best_tile","stencil":"Heat2D",)"
    R"("problem":{"S":[512,512],"T":64},)"
    R"("enum":{"tT_max":8,"tS1_max":12,"tS2_max":192}})";

constexpr const char* kLint =
    R"({"v":1,"id":"l1","kind":"lint","stencil":"Heat2D",)"
    R"("problem":{"S":[512,512],"T":64},"tile":{"tT":6,"tS1":8,"tS2":160}})";

std::string predict_with_tT(int tT, const std::string& id) {
  return R"({"v":1,"id":")" + id +
         R"(","kind":"predict","stencil":"Heat2D",)"
         R"("problem":{"S":[512,512],"T":64},"tile":{"tT":)" +
         std::to_string(tT) + R"(,"tS1":8,"tS2":160},)"
         R"("threads":{"n1":32,"n2":4}})";
}

// A replay trace: predict points around the Heat2D optimum, one
// best_tile and one lint, the whole list twice so the cold pass
// already meets repeats.
std::vector<std::string> replay_trace() {
  std::vector<std::string> base;
  for (const int tT : {4, 6, 8}) {
    for (const int tS2 : {96, 160, 224}) {
      base.push_back(
          R"({"v":1,"id":"q","kind":"predict","stencil":"Heat2D",)"
          R"("problem":{"S":[512,512],"T":64},"tile":{"tT":)" +
          std::to_string(tT) + R"(,"tS1":8,"tS2":)" + std::to_string(tS2) +
          R"(},"threads":{"n1":32,"n2":4}})");
    }
  }
  base.push_back(kBestTile);
  base.push_back(kLint);
  std::vector<std::string> trace = base;
  trace.insert(trace.end(), base.begin(), base.end());
  return trace;
}

// The near-miss trace: 24 best_tile requests over a lattice of
// adjacent problem sizes, drawn zipfian (rank r with weight 1/(r+1))
// from a fixed seed. Popular sizes repeat (store hits); the tail is
// one lattice step from an already-tuned neighbor, which is what the
// warm-start similarity index is for.
std::vector<std::string> near_miss_trace() {
  const std::vector<int> lattice = {512, 480, 544, 448, 576, 416, 608};
  std::vector<double> cum;
  double total = 0.0;
  for (std::size_t r = 0; r < lattice.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cum.push_back(total);
  }
  Rng rng(0x5eedULL);
  std::vector<std::string> trace;
  for (int i = 0; i < 24; ++i) {
    const double u = rng.next_double() * total;
    std::size_t pick = 0;
    while (pick + 1 < cum.size() && u > cum[pick]) ++pick;
    const std::string s = std::to_string(lattice[pick]);
    trace.push_back(
        R"({"v":1,"id":"q","kind":"best_tile","stencil":"Heat2D",)"
        R"("problem":{"S":[)" + s + "," + s + R"(],"T":64},)"
        R"("enum":{"tT_max":8,"tS1_max":12,"tS2_max":192}})");
  }
  return trace;
}

// Two compute workers, room for a whole trace, one job per session.
ServiceOptions replay_options() {
  ServiceOptions opt;
  opt.workers = 2;
  opt.queue_depth = 64;
  opt.session_jobs = 1;
  return opt;
}

class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_dir_ = test::unique_temp_dir("repro_core_test_store");
  }
  void TearDown() override { fs::remove_all(store_dir_); }

  fs::path store_dir_;
};

// The central determinism pin: a cold computation, a warm-store hit
// from a brand-new core, and a direct tuner::Session computation all
// serve byte-identical responses.
TEST_F(CoreTest, ColdWarmAndDirectSessionAreByteIdentical) {
  const std::vector<std::string> lines = {kPredict, kBestTile, kLint};

  std::vector<std::string> cold;
  {
    ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
    for (const std::string& line : lines) cold.push_back(core.handle(line));
    const ServiceStats s = core.stats();
    EXPECT_EQ(s.computed, lines.size());
    EXPECT_EQ(s.store_writes, lines.size());
    EXPECT_EQ(s.store_hits, 0u);
    EXPECT_EQ(s.errors, 0u);
  }

  // Warm: a NEW core over the same store directory never recomputes.
  {
    ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(core.handle(lines[i]), cold[i]);
    }
    const ServiceStats s = core.stats();
    EXPECT_EQ(s.computed, 0u);
    EXPECT_EQ(s.store_hits, lines.size());
  }

  // Direct: compute_payload against a fresh Session, no service stack.
  analysis::DiagnosticEngine diags;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    diags.clear();
    const auto req = parse_request(lines[i], diags);
    ASSERT_TRUE(req);
    std::unique_ptr<tuner::Session> session;
    if (req->kind != RequestKind::kLint &&
        req->kind != RequestKind::kDevices) {
      session = std::make_unique<tuner::Session>(
          *device::registry().find(req->device), req->def, *req->problem,
          tuner::SessionOptions{}.with_jobs(1));
    }
    EXPECT_EQ(render_result(req->id, req->kind,
                            compute_payload(*req, session.get())),
              cold[i]);
  }
}

TEST_F(CoreTest, AuditLintReturnsStructuredSL5xxFindings) {
  ServiceCore core{ServiceOptions{}};
  // 1024 threads against a tile whose widest row has 128 iteration
  // points: the audit predicts idle threads (SL512) with a fix-it hint.
  const std::string audited = core.handle(
      R"({"v":1,"id":"a1","kind":"lint","stencil":"Heat2D",)"
      R"("tile":{"tT":2,"tS1":4,"tS2":32},"threads":{"n1":1024},)"
      R"("audit":true})");
  EXPECT_NE(audited.find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(audited.find("SL512"), std::string::npos);
  EXPECT_NE(audited.find(R"("hint")"), std::string::npos);
  EXPECT_TRUE(json::parse(audited).has_value()) << audited;
}

TEST_F(CoreTest, AuditOffPayloadIsByteIdenticalToLegacyLint) {
  // The explicit "audit":false spelling and the pre-audit request
  // shape must serve the same bytes (same canonical key, same payload:
  // warm-store entries written before the audit existed stay valid).
  ServiceCore core{ServiceOptions{}};
  const std::string legacy = core.handle(kLint);
  const std::string explicit_off = core.handle(
      R"({"v":1,"id":"l1","kind":"lint","stencil":"Heat2D",)"
      R"("problem":{"S":[512,512],"T":64},"tile":{"tT":6,"tS1":8,"tS2":160},)"
      R"("audit":false})");
  EXPECT_EQ(legacy, explicit_off);
  // No SL5xx family codes and no hint keys on the legacy path.
  EXPECT_EQ(legacy.find("SL5"), std::string::npos);
  EXPECT_EQ(legacy.find(R"("hint")"), std::string::npos);
}

TEST_F(CoreTest, RepeatedRequestsRecomputeIdenticallyWithoutStore) {
  ServiceCore core{ServiceOptions{}};  // no store, serial traffic
  const std::string first = core.handle(kPredict);
  const std::string second = core.handle(kPredict);
  EXPECT_EQ(first, second);
  EXPECT_EQ(core.stats().computed, 2u);  // no store, no coalescing window
}

TEST_F(CoreTest, ParseErrorsProduceStructuredResponses) {
  ServiceCore core{ServiceOptions{}};
  const std::string bad = core.handle("{broken");
  EXPECT_NE(bad.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(bad.find("SL401"), std::string::npos);
  const std::string unknown =
      core.handle(R"({"v":1,"id":"x","kind":"nope","stencil":"Heat2D"})");
  EXPECT_NE(unknown.find(R"("id":"x")"), std::string::npos);
  EXPECT_NE(unknown.find("SL403"), std::string::npos);
  EXPECT_EQ(core.stats().errors, 2u);
  EXPECT_EQ(core.stats().computed, 0u);
}

// Concurrent identical requests coalesce onto one computation and all
// receive the same bytes.
TEST_F(CoreTest, ConcurrentIdenticalRequestsCoalesce) {
  ServiceCore core(ServiceOptions{}.with_workers(2));

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  core.set_compute_hook([&] {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
  });

  constexpr int kClients = 4;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back(
        [&core, &responses, i] { responses[static_cast<std::size_t>(i)] = core.handle(kPredict); });
  }

  // Wait until every non-leader joined the in-flight computation,
  // then let the single compute proceed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (core.stats().coalesced < kClients - 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(core.stats().coalesced, static_cast<std::uint64_t>(kClients - 1));
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();

  const ServiceStats s = core.stats();
  EXPECT_EQ(s.computed, 1u);  // singleflight: one computation, N answers
  EXPECT_EQ(s.errors, 0u);
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(responses[static_cast<std::size_t>(i)], responses[0]);
  }
  // The shared answer is the one a fresh core computes serially.
  ServiceCore serial{ServiceOptions{}};
  EXPECT_EQ(responses[0], serial.handle(kPredict));
}

// Admission control: with the queue full, a new request fails fast
// with a structured SL406 error instead of blocking forever.
TEST_F(CoreTest, FullQueueReturnsStructuredOverloadError) {
  ServiceCore core(
      ServiceOptions{}.with_workers(1).with_queue_depth(1));

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  core.set_compute_hook([&] {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
  });

  // r1 occupies the single worker (blocked in the hook); r2 fills the
  // depth-1 queue.
  std::thread t1([&core] { core.handle(predict_with_tT(4, "r1")); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (entered.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(entered.load(), 1);
  std::thread t2([&core] { core.handle(predict_with_tT(6, "r2")); });
  // Give r2 time to land in the queue before probing.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // r3 must be rejected immediately with SL406, while the daemon is
  // still busy.
  const auto t0 = std::chrono::steady_clock::now();
  const std::string rejected = core.handle(predict_with_tT(8, "r3"));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_NE(rejected.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(rejected.find("SL406"), std::string::npos);
  EXPECT_NE(rejected.find(R"("id":"r3")"), std::string::npos);
  EXPECT_LT(elapsed, 5.0);  // fail-fast, not blocked behind the queue

  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  t1.join();
  t2.join();

  const ServiceStats s = core.stats();
  EXPECT_EQ(s.overloaded, 1u);
  EXPECT_EQ(s.computed, 2u);  // r1 and r2 still completed
}

TEST_F(CoreTest, DevicesListingEnumeratesRegistryAndBypassesStore) {
  ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
  const std::string out =
      core.handle(R"({"v":1,"id":"d1","kind":"devices"})");
  const auto doc = json::parse(out);
  ASSERT_TRUE(doc && doc->is_object()) << out;
  EXPECT_TRUE(doc->find("ok")->as_bool());
  const json::Value* result = doc->find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("count")->as_int(),
            static_cast<std::int64_t>(device::registry().size()));
  const json::Value* devices = result->find("devices");
  ASSERT_TRUE(devices != nullptr && devices->is_array());
  // Registration order, both backends, with a capability summary.
  const auto& items = devices->items();
  ASSERT_EQ(items.size(), device::registry().size());
  EXPECT_EQ(items[0].find("name")->as_string(), "GTX 980");
  EXPECT_EQ(items[0].find("kind")->as_string(), "gpu");
  EXPECT_EQ(items[2].find("name")->as_string(), "Xeon E5-2690 v4");
  EXPECT_EQ(items[2].find("kind")->as_string(), "cpu");
  EXPECT_FALSE(items[2].find("summary")->as_string().empty());
  // The listing reflects process-local registry state, so it is never
  // persisted: a second core over the same store recomputes it.
  EXPECT_EQ(core.stats().store_writes, 0u);
  EXPECT_EQ(core.stats().devices, 1u);
  ServiceCore warm(ServiceOptions{}.with_store_dir(store_dir_.string()));
  EXPECT_EQ(warm.handle(R"({"v":1,"id":"d1","kind":"devices"})"), out);
  EXPECT_EQ(warm.stats().store_hits, 0u);
  EXPECT_EQ(warm.stats().computed, 1u);
}

TEST_F(CoreTest, UnknownDeviceIsSL522WithNearestCandidates) {
  ServiceCore core{ServiceOptions{}};
  const std::string out = core.handle(
      R"({"v":1,"id":"u1","kind":"predict","device":"GTX 908",)"
      R"("stencil":"Heat2D","problem":{"S":[512,512],"T":64},)"
      R"("tile":{"tT":6,"tS1":8,"tS2":160}})");
  EXPECT_NE(out.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(out.find("SL522"), std::string::npos);
  // The structured error lists the registered names and suggests the
  // nearest one.
  EXPECT_NE(out.find("Xeon E5-2690 v4"), std::string::npos);
  EXPECT_NE(out.find("did you mean"), std::string::npos);
  EXPECT_NE(out.find("GTX 980"), std::string::npos);
  EXPECT_EQ(core.stats().errors, 1u);
  EXPECT_EQ(core.stats().computed, 0u);
}

TEST_F(CoreTest, StatsJsonIsValidAndComplete) {
  ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
  core.handle(kPredict);
  core.handle(kPredict);  // store hit
  const auto doc = json::parse(core.stats_json());
  ASSERT_TRUE(doc && doc->is_object());
  EXPECT_EQ(doc->find("requests")->as_int(), 2);
  EXPECT_EQ(doc->find("computed")->as_int(), 1);
  EXPECT_EQ(doc->find("store_hits")->as_int(), 1);
  EXPECT_EQ(doc->find("kinds")->find("predict")->as_int(), 2);
  EXPECT_TRUE(doc->find("latency_seconds")->is_number());
}

TEST_F(CoreTest, StatsKindReportsLiveCountersAndBypassesStore) {
  ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
  core.handle(kPredict);
  const std::string out = core.handle(R"({"v":1,"id":"s1","kind":"stats"})");
  const auto doc = json::parse(out);
  ASSERT_TRUE(doc && doc->is_object()) << out;
  EXPECT_TRUE(doc->find("ok")->as_bool());
  const json::Value* r = doc->find("result");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->find("requests")->as_int(), 2);  // itself included
  EXPECT_EQ(r->find("computed")->as_int(), 1);
  EXPECT_EQ(r->find("kinds")->find("stats")->as_int(), 1);
  // The store scan and session aggregation are live.
  EXPECT_EQ(r->find("store_entries")->as_int(), 1);
  EXPECT_GT(r->find("store_bytes")->as_int(), 0);
  EXPECT_GE(r->find("session_machine_points")->as_int(), 1);
  EXPECT_TRUE(r->find("store_oldest_age_s")->is_number());
  // Instance state: answered inline, never computed, never stored.
  EXPECT_EQ(core.stats().computed, 1u);
  EXPECT_EQ(core.stats().store_writes, 1u);
  EXPECT_EQ(core.stats().stats_kind, 1u);
  // Strict schema still applies: stats takes no computation fields.
  const std::string bad = core.handle(
      R"({"v":1,"id":"s2","kind":"stats","problem":{"S":[8],"T":1}})");
  EXPECT_NE(bad.find("SL405"), std::string::npos);
}

TEST_F(CoreTest, WarmStartSeedingKeepsBestTileBytesIdentical) {
  // A donor problem then an adjacent one, served by a seeding core
  // and a non-seeding core over separate stores: the similarity index
  // must be consulted, and must not change a single served byte.
  const std::string donor = kBestTile;
  const std::string near_miss =
      R"({"v":1,"id":"b2","kind":"best_tile","stencil":"Heat2D",)"
      R"("problem":{"S":[480,480],"T":64},)"
      R"("enum":{"tT_max":8,"tS1_max":12,"tS2_max":192}})";

  ServiceCore off(ServiceOptions{}
                      .with_store_dir((store_dir_ / "off").string())
                      .with_warm_start(false));
  ServiceCore on(ServiceOptions{}
                     .with_store_dir((store_dir_ / "on").string()));
  for (const std::string& line : {donor, near_miss}) {
    EXPECT_EQ(on.handle(line), off.handle(line));
  }
  EXPECT_EQ(off.stats().warm_lookups, 0u);
  EXPECT_EQ(on.stats().warm_lookups, 2u);
  EXPECT_GE(on.stats().warm_seeds, 1u);  // the near miss found the donor
}

// A 22-request trace replayed cold, then through a new core over the
// same store: every warm request is a store hit, byte for byte.
TEST_F(CoreTest, ReplayedTraceIsServedEntirelyFromTheStore) {
  const std::vector<std::string> trace = replay_trace();
  const std::string dir = store_dir_.string();
  std::vector<std::string> cold;
  {
    ServiceCore core(replay_options().with_store_dir(dir));
    for (const std::string& line : trace) cold.push_back(core.handle(line));
    EXPECT_EQ(core.stats().errors, 0u);
  }
  ServiceCore warm(replay_options().with_store_dir(dir));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(warm.handle(trace[i]), cold[i]) << "request " << i;
  }
  const ServiceStats s = warm.stats();
  EXPECT_EQ(s.requests, trace.size());
  EXPECT_EQ(s.store_hits, s.requests);
  EXPECT_EQ(s.computed, 0u);
}

// The near-miss trace through a core with warm start on and one with
// it off, each over its own fresh store: identical bytes, and the
// seeded core prices strictly fewer points (252 -> 250 when this test
// was written).
TEST_F(CoreTest, NearMissTraceWarmStartPricesFewerPointsIdentically) {
  const std::vector<std::string> trace = near_miss_trace();
  ServiceCore off(replay_options()
                      .with_store_dir((store_dir_ / "off").string())
                      .with_warm_start(false));
  ServiceCore on(replay_options().with_store_dir((store_dir_ / "on").string()));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(on.handle(trace[i]), off.handle(trace[i])) << "request " << i;
  }
  const ServiceStats cold = off.stats();
  const ServiceStats warm = on.stats();
  EXPECT_EQ(cold.errors, 0u);
  EXPECT_EQ(warm.requests, cold.requests);
  EXPECT_GE(warm.warm_seeds, 1u);
  EXPECT_LT(warm.session_machine_points, cold.session_machine_points);
}

// The near-miss trace served by one core, and by two cores in turn
// over one store: the second core's index starts from a scan of what
// the first saved, so it seeds exactly as the uninterrupted core did.
TEST_F(CoreTest, RestartedCoreSeedsLikeAnUninterruptedOne) {
  const std::vector<std::string> trace = near_miss_trace();
  const std::size_t half = trace.size() / 2;
  ServiceCore whole(
      replay_options().with_store_dir((store_dir_ / "whole").string()));
  std::vector<std::string> expected;
  for (const std::string& line : trace) expected.push_back(whole.handle(line));

  const std::string dir = (store_dir_ / "restart").string();
  std::vector<std::string> served;
  ServiceStats first_stats;
  {
    ServiceCore first(replay_options().with_store_dir(dir));
    for (std::size_t i = 0; i < half; ++i) {
      served.push_back(first.handle(trace[i]));
    }
    first_stats = first.stats();
  }
  ServiceCore second(replay_options().with_store_dir(dir));
  for (std::size_t i = half; i < trace.size(); ++i) {
    served.push_back(second.handle(trace[i]));
  }
  EXPECT_EQ(served, expected);
  const ServiceStats w = whole.stats();
  const ServiceStats s = second.stats();
  EXPECT_EQ(first_stats.warm_lookups + s.warm_lookups, w.warm_lookups);
  EXPECT_EQ(first_stats.warm_seeds + s.warm_seeds, w.warm_seeds);
  EXPECT_GE(s.warm_seeds, 1u);  // seeds drawn from the first core's saves
}

TEST_F(CoreTest, InternalFailuresBecomeSL407) {
  ServiceCore core{ServiceOptions{}};
  core.set_compute_hook([] { throw std::runtime_error("injected failure"); });
  const std::string out = core.handle(kPredict);
  EXPECT_NE(out.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(out.find("SL407"), std::string::npos);
  EXPECT_NE(out.find("injected failure"), std::string::npos);
  EXPECT_EQ(core.stats().errors, 1u);
}

}  // namespace
}  // namespace repro::service
