// The warm-start similarity index: entry extraction from stored
// payloads, appends visible without a rescan, the store scan it is
// derived from (which skips exactly the records the store would not
// serve), and the log-distance neighbor ranking the service seeds
// sweeps from.
#include "service/index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "service/store.hpp"
#include "support/store_log.hpp"
#include "support/temp_dir.hpp"

namespace repro::service {
namespace {

namespace fs = std::filesystem;

std::string best_tile_key(int s, std::int64_t t = 64) {
  const std::string ss = std::to_string(s);
  return "{\"device\":\"GTX 980\",\"kind\":\"best_tile\",\"problem\":"
         "{\"S\":[" + ss + "," + ss + "],\"T\":" + std::to_string(t) +
         "},\"stencil\":\"Heat2D\",\"v\":1}";
}

std::string best_tile_payload(double texec = 1.5e-4) {
  return "{\"space_size\":10,\"candidates_tried\":3,\"talg_min\":1e-4,"
         "\"argmin\":{\"tT\":8,\"tS1\":4,\"tS2\":64,\"tS3\":1},"
         "\"best\":{\"tile\":{\"tT\":8,\"tS1\":4,\"tS2\":64,\"tS3\":1},"
         "\"threads\":{\"n1\":32,\"n2\":4,\"n3\":1},\"feasible\":true,"
         "\"talg\":1e-4,\"texec\":" + std::to_string(texec) +
         ",\"gflops\":350.0}}";
}

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("repro_index_test");
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Index entries describe the store, so a live entry needs a backing
  // store file under the same key.
  void back(const std::string& key, const std::string& payload) {
    ResultStore store(dir_.string());
    ASSERT_TRUE(store.save(key, payload));
  }

  fs::path dir_;
};

TEST_F(IndexTest, EntryFromBestTilePayload) {
  const std::optional<IndexEntry> e =
      SimilarityIndex::entry_from(best_tile_key(512), best_tile_payload());
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, "best_tile");
  EXPECT_EQ(e->device, "GTX 980");
  EXPECT_EQ(e->stencil_name, "Heat2D");
  EXPECT_TRUE(e->stencil_text.empty());
  EXPECT_EQ(e->problem.dim, 2);
  EXPECT_EQ(e->problem.S[0], 512);
  EXPECT_EQ(e->problem.T, 64);
  EXPECT_EQ(e->tile.tT, 8);
  EXPECT_EQ(e->tile.tS2, 64);
  EXPECT_EQ(e->threads.n1, 32);
  EXPECT_EQ(e->variant, stencil::KernelVariant{});
  EXPECT_DOUBLE_EQ(e->texec, 1.5e-4);
}

TEST_F(IndexTest, EntryFromPredictPayloadCarriesVariant) {
  const std::string key =
      "{\"device\":\"GTX 980\",\"kind\":\"predict\",\"problem\":"
      "{\"S\":[512,512],\"T\":64},\"stencil\":\"Heat2D\","
      "\"tile\":{\"tT\":6,\"tS1\":8,\"tS2\":160},\"v\":1}";
  const std::string payload =
      "{\"tile\":{\"tT\":6,\"tS1\":8,\"tS2\":160,\"tS3\":1},"
      "\"threads\":{\"n1\":32,\"n2\":4,\"n3\":1},"
      "\"variant\":{\"unroll\":2,\"staging\":\"register\"},"
      "\"feasible\":true,\"talg\":1e-4,\"texec\":2e-4,\"gflops\":300.0}";
  const std::optional<IndexEntry> e = SimilarityIndex::entry_from(key, payload);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, "predict");
  EXPECT_EQ(e->variant.unroll, 2);
  EXPECT_EQ(e->variant.staging, stencil::Staging::kRegister);
}

TEST_F(IndexTest, UnseedablePayloadsYieldNoEntry) {
  // A lint result has no tuned point.
  const std::string lint_key =
      "{\"audit\":false,\"device\":\"GTX 980\",\"kind\":\"lint\","
      "\"problem\":{\"S\":[512,512],\"T\":64},\"stencil\":\"Heat2D\",\"v\":1}";
  EXPECT_FALSE(SimilarityIndex::entry_from(
                   lint_key, "{\"ok\":true,\"diagnostics\":[]}")
                   .has_value());
  // A best_tile whose space produced no feasible point.
  EXPECT_FALSE(SimilarityIndex::entry_from(
                   best_tile_key(512),
                   "{\"space_size\":0,\"candidates_tried\":0,"
                   "\"talg_min\":null,\"argmin\":null,\"best\":null}")
                   .has_value());
  // An infeasible predict.
  const std::string pkey =
      "{\"device\":\"GTX 980\",\"kind\":\"predict\",\"problem\":"
      "{\"S\":[512,512],\"T\":64},\"stencil\":\"Heat2D\","
      "\"tile\":{\"tT\":6,\"tS1\":8,\"tS2\":160},\"v\":1}";
  EXPECT_FALSE(SimilarityIndex::entry_from(
                   pkey,
                   "{\"tile\":{\"tT\":6,\"tS1\":8,\"tS2\":160,\"tS3\":1},"
                   "\"feasible\":false,\"talg\":null}")
                   .has_value());
  // Garbage in either half.
  EXPECT_FALSE(SimilarityIndex::entry_from("not json", "{}").has_value());
  EXPECT_FALSE(
      SimilarityIndex::entry_from(best_tile_key(512), "not json").has_value());
}

TEST_F(IndexTest, AppendLoadRoundTrip) {
  const std::string key = best_tile_key(512);
  const std::string payload = best_tile_payload();
  SimilarityIndex index(dir_.string());
  EXPECT_TRUE(index.entries().empty());

  back(key, payload);
  const std::optional<IndexEntry> e = SimilarityIndex::entry_from(key, payload);
  ASSERT_TRUE(e.has_value());
  ASSERT_TRUE(index.append(*e));

  const std::vector<IndexEntry> live = index.entries();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].key, key);
  EXPECT_EQ(live[0].problem, e->problem);
  EXPECT_EQ(live[0].tile, e->tile);
  EXPECT_EQ(live[0].threads, e->threads);
  EXPECT_EQ(live[0].variant, e->variant);
  EXPECT_DOUBLE_EQ(live[0].texec, e->texec);
}

TEST_F(IndexTest, LaterLineSupersedesEarlierForSameKey) {
  const std::string key = best_tile_key(512);
  SimilarityIndex index(dir_.string());
  back(key, best_tile_payload(1.0e-4));
  EXPECT_TRUE(index.append(
      *SimilarityIndex::entry_from(key, best_tile_payload(1.0e-4))));
  back(key, best_tile_payload(9.0e-5));
  EXPECT_FALSE(index.append(
      *SimilarityIndex::entry_from(key, best_tile_payload(9.0e-5))));

  const std::vector<IndexEntry> live = index.entries();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_DOUBLE_EQ(live[0].texec, 9.0e-5);
  const stencil::ProblemSize q{.dim = 2, .S = {500, 500, 0}, .T = 64};
  const std::vector<SimilarityIndex::Neighbor> near = index.neighbors(
      "GTX 980", "Heat2D", "", q, stencil::KernelVariant{}, 8);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_DOUBLE_EQ(near[0].entry.texec, 9.0e-5);
}

// After the first lookup has scanned the store, a saved-then-appended
// result is served from memory: it stays visible even once the store's
// log is gone, which only a fresh scan notices.
TEST_F(IndexTest, AppendIsVisibleToNeighborsWithoutRescan) {
  SimilarityIndex index(dir_.string());
  const stencil::ProblemSize q{.dim = 2, .S = {500, 500, 0}, .T = 64};
  EXPECT_TRUE(index
                  .neighbors("GTX 980", "Heat2D", "", q,
                             stencil::KernelVariant{}, 8)
                  .empty());

  const std::string key = best_tile_key(512);
  {
    ResultStore store(dir_.string());
    ASSERT_TRUE(store.save(key, best_tile_payload()));
    ASSERT_TRUE(
        index.append(*SimilarityIndex::entry_from(key, best_tile_payload())));
    ASSERT_TRUE(fs::remove(store.log_path()));
  }

  const std::vector<SimilarityIndex::Neighbor> near = index.neighbors(
      "GTX 980", "Heat2D", "", q, stencil::KernelVariant{}, 8);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0].entry.key, key);
  EXPECT_TRUE(SimilarityIndex(dir_.string()).entries().empty());
  EXPECT_EQ(index.rebuild(), std::optional<std::size_t>(0));
}

// The scan indexes every seedable record the store would serve, and
// skips exactly the records load() misses: another version's, a
// damaged one, one torn mid-log and one re-keyed to another key; files
// beside the log are not records.
TEST_F(IndexTest, ScanIndexesEverySeedableStoreEntry) {
  const std::string lint_key =
      "{\"audit\":false,\"device\":\"GTX 980\",\"kind\":\"lint\","
      "\"problem\":{\"S\":[512,512],\"T\":64},\"stencil\":\"Heat2D\",\"v\":1}";
  const std::string lint_payload = "{\"ok\":true,\"diagnostics\":[]}";
  std::vector<std::string> keys;
  for (const int s : {256, 416, 448, 480, 512, 544, 576}) {
    keys.push_back(best_tile_key(s));
  }
  // Where each best_tile record starts in the log; they are all the
  // same size.
  const std::size_t len = test::record_size(keys[0], best_tile_payload());
  const auto at = [&](std::size_t i) {
    return test::record_size(lint_key, lint_payload) + i * len;
  };
  {
    ResultStore store(dir_.string());
    ASSERT_TRUE(store.save(lint_key, lint_payload));
    for (const std::string& key : keys) {
      ASSERT_TRUE(store.save(key, best_tile_payload()));
    }
  }
  std::string log = test::read_bytes(dir_ / "store.log");
  ASSERT_EQ(log.size(), at(keys.size()));
  // keys[0]: another store version, checksum intact.
  const std::uint32_t version = 3;
  std::memcpy(log.data() + at(0) + test::kVersionAt, &version, sizeof version);
  test::reseal(log, at(0), len);
  // keys[1]: one payload byte flipped.
  log[at(2) - 5] ^= 0x01;
  // keys[3]: re-keyed to keys[4], checksum intact; keys[4]'s own, later
  // record stays its newest.
  log.replace(at(3) + ResultStore::kHeaderBytes, keys[4].size(), keys[4]);
  test::reseal(log, at(3), len);
  // keys[2]: torn mid-log, its last 9 bytes gone.
  log.erase(at(3) - 9, 9);
  test::write_bytes(dir_ / "store.log", log);
  // Files beside the log: an entry file of the per-file format and the
  // sidecar older versions kept.
  test::write_bytes(dir_ / (fnv1a_hex(keys[6]) + ".json"), "{}");
  test::write_bytes(dir_ / "index.jsonl", "{}\n");

  SimilarityIndex index(dir_.string());
  std::vector<std::string> indexed;
  for (const IndexEntry& e : index.entries()) indexed.push_back(e.key);
  ResultStore store(dir_.string());
  std::vector<std::string> served;
  for (const std::string& key : keys) {
    if (store.load(key)) served.push_back(key);
  }
  EXPECT_TRUE(store.load(lint_key).has_value());
  std::sort(served.begin(), served.end());
  EXPECT_EQ(indexed, served);
  EXPECT_EQ(indexed, (std::vector<std::string>{keys[4], keys[5], keys[6]}));
  EXPECT_EQ(index.rebuild(), std::optional<std::size_t>(3));
}

// A fresh index over a store another index followed, append by
// append, holds the same entries and ranks the same neighbors.
TEST_F(IndexTest, FreshIndexMatchesAppendingIndex) {
  SimilarityIndex appended(dir_.string());
  ResultStore store(dir_.string());
  const auto save = [&](const std::string& key, const std::string& payload) {
    ASSERT_TRUE(store.save(key, payload));
    if (const std::optional<IndexEntry> e =
            SimilarityIndex::entry_from(key, payload)) {
      appended.append(*e);
    }
  };
  for (const int s : {1024, 256, 512, 480, 544}) {
    save(best_tile_key(s), best_tile_payload(1e-4 * s));
  }
  save(best_tile_key(512), best_tile_payload(5e-5));  // re-tuned result
  save(best_tile_key(300, 32), best_tile_payload());
  save("{\"device\":\"GTX 980\",\"kind\":\"predict\",\"problem\":"
       "{\"S\":[500,500],\"T\":64},\"stencil\":\"Heat2D\","
       "\"tile\":{\"tT\":6,\"tS1\":8,\"tS2\":160},"
       "\"variant\":{\"unroll\":2,\"staging\":\"register\"},\"v\":1}",
       "{\"tile\":{\"tT\":6,\"tS1\":8,\"tS2\":160,\"tS3\":1},"
       "\"threads\":{\"n1\":32,\"n2\":4,\"n3\":1},"
       "\"variant\":{\"unroll\":2,\"staging\":\"register\"},"
       "\"feasible\":true,\"talg\":1e-4,\"texec\":2e-4,\"gflops\":300.0}");

  SimilarityIndex fresh(dir_.string());
  const std::vector<IndexEntry> a = appended.entries();
  const std::vector<IndexEntry> b = fresh.entries();
  ASSERT_EQ(a.size(), 7u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(b[i].key, a[i].key);
    EXPECT_EQ(b[i].problem, a[i].problem);
    EXPECT_EQ(b[i].tile, a[i].tile);
    EXPECT_EQ(b[i].threads, a[i].threads);
    EXPECT_EQ(b[i].variant, a[i].variant);
    EXPECT_EQ(b[i].texec, a[i].texec);
  }
  const stencil::KernelVariant reg{2, stencil::Staging::kRegister};
  for (const stencil::ProblemSize& q :
       {stencil::ProblemSize{.dim = 2, .S = {500, 500, 0}, .T = 64},
        stencil::ProblemSize{.dim = 2, .S = {700, 300, 0}, .T = 48}}) {
    for (const stencil::KernelVariant& v : {stencil::KernelVariant{}, reg}) {
      const auto near_a = appended.neighbors("GTX 980", "Heat2D", "", q, v, 4);
      const auto near_b = fresh.neighbors("GTX 980", "Heat2D", "", q, v, 4);
      ASSERT_EQ(near_a.size(), 4u);
      ASSERT_EQ(near_b.size(), near_a.size());
      for (std::size_t i = 0; i < near_a.size(); ++i) {
        EXPECT_EQ(near_b[i].entry.key, near_a[i].entry.key);
        EXPECT_EQ(near_b[i].distance, near_a[i].distance);
      }
    }
  }
}

TEST_F(IndexTest, NeighborsRankByLogDistanceAndFilterIdentity) {
  SimilarityIndex index(dir_.string());
  for (const int s : {256, 512, 1024}) {
    const std::string key = best_tile_key(s);
    back(key, best_tile_payload());
    const std::optional<IndexEntry> e =
        SimilarityIndex::entry_from(key, best_tile_payload());
    ASSERT_TRUE(index.append(*e));
  }
  // A different device and a different stencil must never seed.
  {
    std::string other =
        "{\"device\":\"Tesla K40\",\"kind\":\"best_tile\",\"problem\":"
        "{\"S\":[500,500],\"T\":64},\"stencil\":\"Heat2D\",\"v\":1}";
    back(other, best_tile_payload());
    ASSERT_TRUE(index.append(
        *SimilarityIndex::entry_from(other, best_tile_payload())));
    other =
        "{\"device\":\"GTX 980\",\"kind\":\"best_tile\",\"problem\":"
        "{\"S\":[500,500],\"T\":64},\"stencil\":\"Jacobi2D\",\"v\":1}";
    back(other, best_tile_payload());
    ASSERT_TRUE(index.append(
        *SimilarityIndex::entry_from(other, best_tile_payload())));
  }

  // Query 500^2: |ln(500/512)| < |ln(500/256)| < |ln(500/1024)|.
  const stencil::ProblemSize q{.dim = 2, .S = {500, 500, 0}, .T = 64};
  const std::vector<SimilarityIndex::Neighbor> near = index.neighbors(
      "GTX 980", "Heat2D", "", q, stencil::KernelVariant{}, 8);
  ASSERT_EQ(near.size(), 3u);
  EXPECT_EQ(near[0].entry.problem.S[0], 512);
  EXPECT_EQ(near[1].entry.problem.S[0], 256);
  EXPECT_EQ(near[2].entry.problem.S[0], 1024);
  EXPECT_LT(near[0].distance, near[1].distance);
  EXPECT_LT(near[1].distance, near[2].distance);
  // The ranking is stencil::log_distance's, the metric the planner's
  // seed order uses too (planner_test ranks this pool the same way).
  for (const SimilarityIndex::Neighbor& n : near) {
    EXPECT_EQ(n.distance, stencil::log_distance(q, n.entry.problem));
  }

  // The cap truncates after ranking; an identical problem is a
  // legitimate distance-0 neighbor.
  const std::vector<SimilarityIndex::Neighbor> capped = index.neighbors(
      "GTX 980", "Heat2D", "", q, stencil::KernelVariant{}, 1);
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped[0].entry.problem.S[0], 512);
  const stencil::ProblemSize exact{.dim = 2, .S = {512, 512, 0}, .T = 64};
  const std::vector<SimilarityIndex::Neighbor> self = index.neighbors(
      "GTX 980", "Heat2D", "", exact, stencil::KernelVariant{}, 1);
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0].distance, 0.0);

  // Dimensionality is part of the identity: a 1D query sees nothing.
  const stencil::ProblemSize q1{.dim = 1, .S = {500, 0, 0}, .T = 64};
  EXPECT_TRUE(index
                  .neighbors("GTX 980", "Heat2D", "", q1,
                             stencil::KernelVariant{}, 8)
                  .empty());
}

TEST_F(IndexTest, NeighborsPreferSameVariantBeforeDistance) {
  SimilarityIndex index(dir_.string());
  // A default-variant best_tile at 256^2 (far from the 500^2 query)
  // and a register-staged predict at 512^2 (near).
  {
    const std::string key = best_tile_key(256);
    back(key, best_tile_payload());
    ASSERT_TRUE(
        index.append(*SimilarityIndex::entry_from(key, best_tile_payload())));
  }
  const std::string pkey =
      "{\"device\":\"GTX 980\",\"kind\":\"predict\",\"problem\":"
      "{\"S\":[512,512],\"T\":64},\"stencil\":\"Heat2D\","
      "\"tile\":{\"tT\":6,\"tS1\":8,\"tS2\":160},"
      "\"variant\":{\"unroll\":2,\"staging\":\"register\"},\"v\":1}";
  const std::string ppayload =
      "{\"tile\":{\"tT\":6,\"tS1\":8,\"tS2\":160,\"tS3\":1},"
      "\"threads\":{\"n1\":32,\"n2\":4,\"n3\":1},"
      "\"variant\":{\"unroll\":2,\"staging\":\"register\"},"
      "\"feasible\":true,\"talg\":1e-4,\"texec\":2e-4,\"gflops\":300.0}";
  back(pkey, ppayload);
  ASSERT_TRUE(index.append(*SimilarityIndex::entry_from(pkey, ppayload)));

  // A default-variant query ranks the matching (default) entry first
  // even though the register-staged one is nearer in problem space —
  // an out-of-span seed would be rejected in-space and waste its
  // slot. The other-variant entry still ranks as the fallback.
  const stencil::ProblemSize q{.dim = 2, .S = {500, 500, 0}, .T = 64};
  const std::vector<SimilarityIndex::Neighbor> def = index.neighbors(
      "GTX 980", "Heat2D", "", q, stencil::KernelVariant{}, 8);
  ASSERT_EQ(def.size(), 2u);
  EXPECT_EQ(def[0].entry.problem.S[0], 256);
  EXPECT_EQ(def[0].entry.variant, stencil::KernelVariant{});
  EXPECT_EQ(def[1].entry.problem.S[0], 512);
  EXPECT_GT(def[0].distance, def[1].distance);  // variant outranks distance

  // Querying for the register-staged variant flips the order.
  const stencil::KernelVariant reg{2, stencil::Staging::kRegister};
  const std::vector<SimilarityIndex::Neighbor> rv =
      index.neighbors("GTX 980", "Heat2D", "", q, reg, 8);
  ASSERT_EQ(rv.size(), 2u);
  EXPECT_EQ(rv[0].entry.problem.S[0], 512);
  EXPECT_EQ(rv[0].entry.variant, reg);
  EXPECT_EQ(rv[1].entry.problem.S[0], 256);

  // With the cap at 1, only the same-variant entry survives.
  const std::vector<SimilarityIndex::Neighbor> capped = index.neighbors(
      "GTX 980", "Heat2D", "", q, stencil::KernelVariant{}, 1);
  ASSERT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped[0].entry.variant, stencil::KernelVariant{});
}

}  // namespace
}  // namespace repro::service
