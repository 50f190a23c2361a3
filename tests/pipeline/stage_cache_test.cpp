// pipeline::StageCache and the LruCache behind it: the entry and byte
// bounds with their eviction count, a key per distinct stage input,
// and plans that read the same with the cache as without it.
#include "pipeline/stage_cache.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "device/registry.hpp"
#include "pipeline/planner.hpp"
#include "tuner/calibration_cache.hpp"

namespace repro::pipeline {
namespace {

int lookup(LruCache<int>& cache, const std::string& key, int value) {
  return cache.get_or_make(key, [&] { return value; });
}

TEST(StageCache, TheEntryCapEvictsTheLeastRecentlyUsedEntry) {
  LruCache<int> cache(2);
  lookup(cache, "a", 1);
  lookup(cache, "b", 2);
  EXPECT_EQ(lookup(cache, "a", 99), 1);  // hit: "b" is now the oldest
  lookup(cache, "c", 3);                 // evicts "b"
  LruCache<int>::Counters c = cache.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 3u);
  EXPECT_EQ(c.evictions, 1u);

  EXPECT_EQ(lookup(cache, "a", 99), 1);  // still held
  EXPECT_EQ(lookup(cache, "b", 4), 4);   // recomputed, evicts "c"
  c = cache.counters();
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 4u);
  EXPECT_EQ(c.evictions, 2u);
  EXPECT_EQ(lookup(cache, "a", 99), 1);
}

TEST(StageCache, TheByteBoundEvictsAndRefusesOversizeEntries) {
  // An entry is charged its key's length plus sizeof(int).
  const std::size_t charge = 10 + sizeof(int);
  LruCache<int> cache(100, 3 * charge);
  for (const char c : std::string("abcd")) {
    lookup(cache, std::string(10, c), c);
  }
  LruCache<int>::Counters n = cache.counters();
  EXPECT_EQ(n.entries, 3u);
  EXPECT_EQ(n.bytes, 3 * charge);
  EXPECT_EQ(n.evictions, 1u);
  EXPECT_EQ(lookup(cache, std::string(10, 'a'), 0), 0);  // evicted first

  // A longer key takes the room of two short ones.
  lookup(cache, std::string(10 + charge, 'e'), 5);
  n = cache.counters();
  EXPECT_EQ(n.entries, 2u);
  EXPECT_LE(n.bytes, 3 * charge);
  EXPECT_EQ(n.evictions, 4u);

  // A key over the whole bound is computed but never stored, and the
  // entries already held stay.
  EXPECT_EQ(lookup(cache, std::string(3 * charge, 'f'), 6), 6);
  EXPECT_EQ(cache.counters().entries, 2u);
  EXPECT_EQ(cache.counters().evictions, 5u);
  EXPECT_EQ(lookup(cache, std::string(3 * charge, 'f'), 7), 7);
}

// Racing lookups from several threads over more keys than the cache
// holds: every lookup returns its key's value and counts once.
TEST(StageCache, ConcurrentLookupsStayConsistent) {
  LruCache<int> cache(4);
  constexpr int kThreads = 4;
  constexpr int kLookups = 500;
  std::vector<std::thread> threads;
  std::vector<int> wrong(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &wrong, t] {
      for (int i = 0; i < kLookups; ++i) {
        const int k = (i * 7 + t) % 9;
        std::string key = "key";
        key += std::to_string(k);
        if (lookup(cache, key, k) != k) ++wrong[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong, std::vector<int>(kThreads, 0));
  const LruCache<int>::Counters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, std::uint64_t{kThreads * kLookups});
  EXPECT_LE(c.entries, 4u);
}

// Every input a stage's answer depends on separates two keys.
TEST(StageCache, EveryStageInputGetsItsOwnKey) {
  const device::Descriptor& gtx = *device::registry().find("GTX 980");
  gpusim::DeviceParams other = gtx.gpu();
  other.n_sm += 4;
  const device::Descriptor renamed(other);
  ASSERT_EQ(renamed.name(), gtx.name());

  const std::string dev = tuner::device_key(gtx);
  const std::string by_name = tuner::stencil_identity("Heat2D", "");
  const stencil::ProblemSize p{.dim = 2, .S = {256, 256, 0}, .T = 8};
  const stencil::KernelVariant def{};
  const tuner::EnumOptions e;
  const auto key = [&](const tuner::EnumOptions& opt) {
    return stage_key(dev, by_name, p, def, 0.10, opt);
  };

  std::vector<std::string> keys = {
      key(e),
      // A descriptor that reuses a registry name with other parameters.
      stage_key(tuner::device_key(renamed), by_name, p, def, 0.10, e),
      // DSL text named like the catalogue stencil.
      stage_key(dev,
                tuner::stencil_identity(
                    "Heat2D", "stencil Heat2D {\n dim 2\n tap (0,0) 1\n}\n"),
                p, def, 0.10, e),
      // Deltas that agree to six decimals (std::to_string's).
      stage_key(dev, by_name, p, def, 0.10 + 1e-9, e),
      // The problem and the stage's variant.
      stage_key(dev, by_name, {.dim = 2, .S = {256, 128, 0}, .T = 8}, def,
                0.10, e),
      stage_key(dev, by_name, {.dim = 2, .S = {256, 256, 0}, .T = 16}, def,
                0.10, e),
      stage_key(dev, by_name, p, {.unroll = 2}, 0.10, e),
      stage_key(dev, by_name, p, {.staging = stencil::Staging::kRegister},
                0.10, e),
      // Each EnumOptions field, the variant list included.
      key(tuner::EnumOptions{}.with_tT_max(e.tT_max + 2)),
      key(tuner::EnumOptions{}.with_tT_step(e.tT_step + 2)),
      key(tuner::EnumOptions{}.with_tS1_max(e.tS1_max + 1)),
      key(tuner::EnumOptions{}.with_tS1_step(e.tS1_step + 1)),
      key(tuner::EnumOptions{}.with_tS2_max(e.tS2_max + 32)),
      key(tuner::EnumOptions{}.with_tS2_step(e.tS2_step + 32)),
      key(tuner::EnumOptions{}.with_tS3_max(e.tS3_max + 32)),
      key(tuner::EnumOptions{}.with_tS3_step(e.tS3_step + 32)),
      key(tuner::EnumOptions{}.with_variants({def})),
      key(tuner::EnumOptions{}.with_variants({def, {.unroll = 2}})),
  };
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
            keys.size());
  // And the same inputs give the same key.
  EXPECT_EQ(key(e), keys.front());
}

PlanOptions test_options() {
  PlanOptions opt;
  opt.enumeration =
      tuner::EnumOptions{}.with_tT_max(8).with_tS1_max(12).with_tS2_max(192);
  opt.session = tuner::SessionOptions{}.with_jobs(1);
  return opt;
}

Pipeline parse(const std::string& text) {
  analysis::DiagnosticEngine diags;
  auto p = parse_pipeline_text(text, diags);
  EXPECT_TRUE(p) << analysis::render_human(diags.diagnostics());
  return *p;
}

// A DSL program named like a catalogue stencil is planned as its own
// stage, and a plan served from the cache reads as a fresh one: the
// same JSON, `reused` only on the in-plan repeat.
TEST(StageCache, PlansServedFromTheCacheReadAsFreshOnes) {
  const Pipeline by_name = parse(
      R"({"pipeline_version":1,"name":"n","stages":[
           {"id":"a","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4}},
           {"id":"b","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},
            "after":["a"]}]})");
  const Pipeline by_text = parse(
      R"({"pipeline_version":1,"name":"t","stages":[
           {"id":"a","text":"stencil Jacobi2D {\n dim 2\n tap (0,0) 0.5\n tap (1,0) 0.25\n tap (-1,0) 0.25\n}\n",
            "problem":{"S":[256,256],"T":4}}]})");
  const device::Descriptor& gtx = *device::registry().find("GTX 980");

  StageCache stages;
  tuner::CalibrationCache calibrations;
  Planner shared(gtx, test_options(), &calibrations, &stages);
  for (const Pipeline* p : {&by_name, &by_text, &by_name, &by_text}) {
    const PipelinePlan fresh = Planner(gtx, test_options()).plan(*p);
    const PipelinePlan got = shared.plan(*p);
    EXPECT_EQ(render_plan(got), render_plan(fresh));
    EXPECT_EQ(got.distinct_tasks, fresh.distinct_tasks);
  }
  const StageCache::Counters c = stages.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.evictions, 0u);
}

}  // namespace
}  // namespace repro::pipeline
