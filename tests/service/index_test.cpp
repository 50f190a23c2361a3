// The warm-start similarity index: entry extraction from stored
// payloads, append/load round-trips, corruption tolerance (truncated
// and wrong-version lines skipped, entries without a backing store
// file dropped), rebuild from the store directory alone, and the
// log-distance neighbor ranking the service seeds sweeps from.
#include "service/index.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "service/store.hpp"
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
  back(key, payload);

  SimilarityIndex index(dir_.string());
  const std::optional<IndexEntry> e = SimilarityIndex::entry_from(key, payload);
  ASSERT_TRUE(e.has_value());
  ASSERT_TRUE(index.append(*e));

  const std::vector<IndexEntry> live = index.load();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].key, key);
  EXPECT_EQ(live[0].tile, e->tile);
  EXPECT_EQ(live[0].threads, e->threads);
  EXPECT_EQ(live[0].variant, e->variant);
  EXPECT_DOUBLE_EQ(live[0].texec, e->texec);
  EXPECT_EQ(index.counters().appends, 1u);
  EXPECT_EQ(index.counters().skipped, 0u);
  EXPECT_EQ(index.counters().stale, 0u);
}

TEST_F(IndexTest, LaterLineSupersedesEarlierForSameKey) {
  const std::string key = best_tile_key(512);
  back(key, best_tile_payload());
  SimilarityIndex index(dir_.string());
  std::optional<IndexEntry> e =
      SimilarityIndex::entry_from(key, best_tile_payload(1.0e-4));
  ASSERT_TRUE(index.append(*e));
  e = SimilarityIndex::entry_from(key, best_tile_payload(9.0e-5));
  ASSERT_TRUE(index.append(*e));

  const std::vector<IndexEntry> live = index.load();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_DOUBLE_EQ(live[0].texec, 9.0e-5);
}

TEST_F(IndexTest, StaleEntryWithoutStoreFileIsDropped) {
  // Appended, but the backing store file never existed.
  SimilarityIndex index(dir_.string());
  const std::optional<IndexEntry> e =
      SimilarityIndex::entry_from(best_tile_key(512), best_tile_payload());
  ASSERT_TRUE(index.append(*e));
  EXPECT_TRUE(index.load().empty());
  EXPECT_EQ(index.counters().stale, 1u);
}

TEST_F(IndexTest, CorruptAndWrongVersionLinesAreSkipped) {
  const std::string key = best_tile_key(512);
  back(key, best_tile_payload());
  SimilarityIndex index(dir_.string());
  const std::optional<IndexEntry> e =
      SimilarityIndex::entry_from(key, best_tile_payload());
  ASSERT_TRUE(index.append(*e));

  std::string line;
  {
    std::ifstream in(index.path(), std::ios::binary);
    ASSERT_TRUE(std::getline(in, line));
  }
  {
    // Simulated tail corruption and a future-version line.
    std::ofstream out(index.path(), std::ios::binary | std::ios::app);
    out << "{\"index_version\":99,\"key\":\"k\"}\n"
        << "not json at all\n";
    // Well-formed lines whose fragments do not decode (the fragments
    // follow the key, so rfind edits them, not the key's copy).
    const auto corrupt = [&](const std::string& from, const std::string& to) {
      std::string bad = line;
      bad.replace(bad.rfind(from), from.size(), to);
      out << bad << "\n";
    };
    corrupt("\"tT\":8", "\"tT\":0");
    corrupt("\"n1\":32", "\"n1\":4096");
    corrupt("\"T\":64", "\"T\":64,\"R\":1");
    corrupt("\"unroll\":1", "\"unroll\":3");
    out << "{\"index_version\":1,\"key\":\"trunc";  // no newline: torn write
  }

  const std::vector<IndexEntry> live = index.load();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].key, key);
  EXPECT_EQ(index.counters().skipped, 7u);
}

TEST_F(IndexTest, MissingIndexLoadsEmptyAndRebuildRecreatesIt) {
  // Two seedable results plus one unseedable, written only via the
  // store — the index file does not exist yet.
  ResultStore store(dir_.string());
  ASSERT_TRUE(store.save(best_tile_key(512), best_tile_payload(1.0e-4)));
  ASSERT_TRUE(store.save(best_tile_key(480), best_tile_payload(2.0e-4)));
  const std::string lint_key =
      "{\"audit\":false,\"device\":\"GTX 980\",\"kind\":\"lint\","
      "\"problem\":{\"S\":[512,512],\"T\":64},\"stencil\":\"Heat2D\",\"v\":1}";
  ASSERT_TRUE(store.save(lint_key, "{\"ok\":true,\"diagnostics\":[]}"));

  SimilarityIndex index(dir_.string());
  EXPECT_TRUE(index.load().empty());

  const std::optional<std::size_t> n = index.rebuild();
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 2u);
  const std::vector<IndexEntry> live = index.load();
  ASSERT_EQ(live.size(), 2u);
  // And a second rebuild round-trips to the same file.
  SimilarityIndex again(dir_.string());
  ASSERT_TRUE(again.rebuild().has_value());
  EXPECT_EQ(again.load().size(), 2u);
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
