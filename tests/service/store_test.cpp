#include "service/store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "support/temp_dir.hpp"

namespace repro::service {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("repro_store_test");
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(StoreTest, MissThenRoundTrip) {
  ResultStore store(dir_.string());
  EXPECT_EQ(store.load("k1"), std::nullopt);
  ASSERT_TRUE(store.save("k1", R"({"talg":0.5})"));
  EXPECT_EQ(store.load("k1"), R"({"talg":0.5})");

  const ResultStore::Counters c = store.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.errors, 0u);
}

TEST_F(StoreTest, PayloadBytesAreServedVerbatim) {
  ResultStore store(dir_.string());
  // Bytes that would break a sloppy re-serialization: escapes, UTF-8,
  // shortest-form doubles.
  const std::string payload =
      "{\"msg\":\"a\\\"b\\\\c\\nd\",\"x\":0.0007004603049460344,\"u\":\"é\"}";
  ASSERT_TRUE(store.save("k", payload));
  EXPECT_EQ(store.load("k"), payload);
}

TEST_F(StoreTest, EntriesSurviveReopen) {
  {
    ResultStore store(dir_.string());
    ASSERT_TRUE(store.save("persist", "42"));
  }
  ResultStore reopened(dir_.string());
  EXPECT_EQ(reopened.load("persist"), "42");
}

TEST_F(StoreTest, CorruptEntryIsAMissNotACrash) {
  ResultStore store(dir_.string());
  ASSERT_TRUE(store.save("k", "payload"));
  {
    std::ofstream out(store.path_for("k"), std::ios::trunc);
    out << "NOT JSON AT ALL {{{";
  }
  EXPECT_EQ(store.load("k"), std::nullopt);
  EXPECT_GE(store.counters().errors, 1u);
  // A fresh save repairs the entry.
  ASSERT_TRUE(store.save("k", "payload"));
  EXPECT_EQ(store.load("k"), "payload");
}

TEST_F(StoreTest, TruncatedEntryIsAMiss) {
  ResultStore store(dir_.string());
  ASSERT_TRUE(store.save("k", "some payload"));
  std::string contents;
  {
    std::ifstream in(store.path_for("k"));
    std::getline(in, contents);
  }
  {
    std::ofstream out(store.path_for("k"), std::ios::trunc);
    out << contents.substr(0, contents.size() / 2);  // torn write
  }
  EXPECT_EQ(store.load("k"), std::nullopt);
}

TEST_F(StoreTest, WrongVersionIsAMiss) {
  ResultStore store(dir_.string());
  ASSERT_TRUE(store.save("k", "p"));
  {
    std::ofstream out(store.path_for("k"), std::ios::trunc);
    out << R"({"store_version":999,"key":"k","payload":"p"})" << "\n";
  }
  EXPECT_EQ(store.load("k"), std::nullopt);
  EXPECT_GE(store.counters().errors, 1u);
}

TEST_F(StoreTest, KeyMismatchIsAMissNeverAWrongAnswer) {
  ResultStore store(dir_.string());
  ASSERT_TRUE(store.save("k1", "answer-for-k1"));
  // Simulate a hash collision / copied file: the entry under k2's
  // filename holds k1's record.
  fs::copy_file(store.path_for("k1"), store.path_for("k2"));
  EXPECT_EQ(store.load("k2"), std::nullopt);
  EXPECT_EQ(store.load("k1"), "answer-for-k1");
}

TEST_F(StoreTest, NoTempFilesLeftBehind) {
  ResultStore store(dir_.string());
  ASSERT_TRUE(store.save("a", "1"));
  ASSERT_TRUE(store.save("b", "2"));
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
  }
}

TEST_F(StoreTest, UnwritableDirectoryDegradesGracefully) {
  ResultStore store("/proc/no-such-dir/store");
  EXPECT_FALSE(store.save("k", "p"));
  EXPECT_EQ(store.load("k"), std::nullopt);
  EXPECT_GE(store.counters().errors, 1u);
}

TEST(Fnv1aHex, MatchesReferenceVectors) {
  // FNV-1a 64-bit reference values.
  EXPECT_EQ(fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a_hex("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(fnv1a_hex("foobar"), "85944171f73967e8");
  EXPECT_EQ(fnv1a_hex("a").size(), 16u);
}

}  // namespace
}  // namespace repro::service
