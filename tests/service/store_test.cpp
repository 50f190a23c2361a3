#include "service/store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "support/store_log.hpp"
#include "support/temp_dir.hpp"

namespace repro::service {
namespace {

namespace fs = std::filesystem;
using test::read_bytes;
using test::record_size;
using test::write_bytes;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("repro_store_test");
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path log() const { return dir_ / "store.log"; }

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
  // Stored raw: the log holds the payload's bytes as they are.
  EXPECT_NE(read_bytes(log()).find(payload), std::string::npos);
}

TEST_F(StoreTest, EntriesSurviveReopen) {
  {
    ResultStore store(dir_.string());
    ASSERT_TRUE(store.save("persist", "42"));
  }
  ResultStore reopened(dir_.string());
  EXPECT_EQ(reopened.load("persist"), "42");
}

// Construction opens nothing; the first lookup creates the directory
// and the log.
TEST_F(StoreTest, ConstructionTouchesNothing) {
  ResultStore store((dir_ / "sub").string());
  EXPECT_FALSE(fs::exists(dir_));
  EXPECT_EQ(store.load("k"), std::nullopt);
  EXPECT_TRUE(fs::exists(dir_ / "sub" / "store.log"));
}

// A log overwritten with garbage serves nothing and crashes nothing,
// whether the store read it before or after; a fresh save repairs it.
TEST_F(StoreTest, CorruptEntryIsAMissNotACrash) {
  ResultStore store(dir_.string());
  ASSERT_TRUE(store.save("k", "payload"));
  write_bytes(log(), "NOT A LOG AT ALL {{{ not a record header either }}}");
  EXPECT_EQ(store.load("k"), std::nullopt);
  EXPECT_GE(store.counters().errors, 1u);
  ResultStore fresh(dir_.string());
  EXPECT_EQ(fresh.load("k"), std::nullopt);
  EXPECT_GE(fresh.counters().errors, 1u);

  ASSERT_TRUE(store.save("k", "payload"));
  EXPECT_EQ(store.load("k"), "payload");
  EXPECT_EQ(ResultStore(dir_.string()).load("k"), "payload");
}

// A log cut at every byte offset inside its last record (a save torn
// by a crash) still serves every earlier record; the torn one is a
// miss, and a record appended after it is served after reopening.
TEST_F(StoreTest, TruncatedEntryIsAMiss) {
  // Longer than the record appended after the tear, so most cuts leave
  // a header whose record runs past the new end of the log.
  const std::string torn(64, 't');
  const std::vector<std::pair<std::string, std::string>> saved = {
      {"k1", "first payload"}, {"k2", "second"}, {"k3", torn}};
  {
    ResultStore store(dir_.string());
    for (const auto& [k, p] : saved) ASSERT_TRUE(store.save(k, p));
  }
  const std::string pristine = read_bytes(log());
  const std::size_t last = pristine.size() - record_size("k3", torn);
  for (std::size_t cut = last; cut < pristine.size(); ++cut) {
    SCOPED_TRACE(cut);
    write_bytes(log(), pristine);
    ResultStore live(dir_.string());
    ASSERT_EQ(live.load("k3"), torn);
    write_bytes(log(), pristine.substr(0, cut));
    // A store that read the record before the cut misses it too, and
    // reads the shorter log again on its next miss.
    EXPECT_EQ(live.load("k3"), std::nullopt);
    EXPECT_EQ(live.load("k9"), std::nullopt);
    EXPECT_EQ(live.load("k2"), "second");
    EXPECT_EQ(live.dir_stats().entries, 2u);
    {
      ResultStore store(dir_.string());
      EXPECT_EQ(store.load("k1"), "first payload");
      EXPECT_EQ(store.load("k2"), "second");
      EXPECT_EQ(store.load("k3"), std::nullopt);
      ASSERT_TRUE(store.save("k4", "after"));
      EXPECT_EQ(store.load("k4"), "after");
    }
    ResultStore reopened(dir_.string());
    EXPECT_EQ(reopened.load("k1"), "first payload");
    EXPECT_EQ(reopened.load("k2"), "second");
    EXPECT_EQ(reopened.load("k3"), std::nullopt);
    EXPECT_EQ(reopened.load("k4"), "after");
    EXPECT_EQ(reopened.dir_stats().entries, 3u);
  }
}

// A record of another store version is a miss even with a valid
// checksum, and entry files of the per-file format are ignored.
TEST_F(StoreTest, WrongVersionIsAMiss) {
  write_bytes(dir_ / (fnv1a_hex("old") + ".json"),
              R"({"store_version":1,"key":"old","payload":"p"})");
  ResultStore live(dir_.string());
  EXPECT_EQ(live.load("old"), std::nullopt);
  ASSERT_TRUE(live.save("k", "p"));

  std::string bytes = read_bytes(log());
  const std::uint32_t version = 999;
  std::memcpy(bytes.data() + test::kVersionAt, &version, sizeof version);
  test::reseal(bytes, 0, bytes.size());
  write_bytes(log(), bytes);

  EXPECT_EQ(live.load("k"), std::nullopt);
  EXPECT_GE(live.counters().errors, 1u);
  ResultStore fresh(dir_.string());
  EXPECT_EQ(fresh.load("k"), std::nullopt);
  EXPECT_EQ(fresh.load("old"), std::nullopt);
  EXPECT_GE(fresh.counters().errors, 1u);
  EXPECT_EQ(fresh.dir_stats().entries, 0u);
}

// An intact record of one key sitting where the store expects
// another's (as a hash collision would leave it) is never served for
// the other key.
TEST_F(StoreTest, KeyMismatchIsAMissNeverAWrongAnswer) {
  ResultStore store(dir_.string());
  ASSERT_TRUE(store.save("k1", "answer-for-k1"));
  ASSERT_TRUE(store.save("k2", "answer-for-k2"));
  std::string bytes = read_bytes(log());
  const std::size_t len = record_size("k1", "answer-for-k1");
  ASSERT_EQ(bytes.size(), 2 * len);
  bytes.replace(len, len, bytes.substr(0, len));
  write_bytes(log(), bytes);

  EXPECT_EQ(store.load("k2"), std::nullopt);
  EXPECT_GE(store.counters().errors, 1u);
  EXPECT_EQ(store.load("k1"), "answer-for-k1");
}

// Saves append to one log and nothing else: no temp files, and the log
// is exactly the records written.
TEST_F(StoreTest, NoTempFilesLeftBehind) {
  ResultStore store(dir_.string());
  ASSERT_TRUE(store.save("a", "1"));
  ASSERT_TRUE(store.save("b", "22"));
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    files.push_back(entry.path());
  }
  EXPECT_EQ(files, std::vector<fs::path>{log()});
  EXPECT_EQ(fs::file_size(log()),
            record_size("a", "1") + record_size("b", "22"));
}

TEST_F(StoreTest, UnwritableDirectoryDegradesGracefully) {
  ResultStore store("/proc/no-such-dir/store");
  EXPECT_FALSE(store.save("k", "p"));
  EXPECT_EQ(store.load("k"), std::nullopt);
  EXPECT_GE(store.counters().errors, 1u);
  EXPECT_FALSE(store.scan([](const std::string&, const std::string&) {}));
  EXPECT_EQ(store.dir_stats().entries, 0u);
}

// One flipped byte anywhere in a record, header, key or payload, is a
// miss counted in `errors`, never a wrong answer: for a store that
// read the record before, and for one opened after.
TEST_F(StoreTest, FlippedByteIsAMissNeverAWrongAnswer) {
  const std::map<std::string, std::string> saved = {
      {"key-1", "payload one"}, {"key-2", "payload two"},
      {"key-3", "payload three"}};
  {
    ResultStore store(dir_.string());
    for (const auto& [k, p] : saved) ASSERT_TRUE(store.save(k, p));
  }
  const std::string pristine = read_bytes(log());
  const std::size_t first = record_size("key-1", "payload one");
  const std::size_t len = record_size("key-2", "payload two");
  for (std::size_t at = first; at < first + len; ++at) {
    SCOPED_TRACE(at);
    ResultStore live(dir_.string());
    ASSERT_EQ(live.load("key-2"), "payload two");
    std::string bytes = pristine;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x20);
    write_bytes(log(), bytes);

    ResultStore fresh(dir_.string());
    for (ResultStore* store : {&live, &fresh}) {
      const std::uint64_t errors = store->counters().errors;
      EXPECT_EQ(store->load("key-2"), std::nullopt);
      EXPECT_GT(store->counters().errors, errors);
      EXPECT_EQ(store->load("key-1"), "payload one");
      EXPECT_EQ(store->load("key-3"), "payload three");
    }
    write_bytes(log(), pristine);
  }
}

// A key saved twice serves and scans its latest payload, once.
TEST_F(StoreTest, LatestSaveWins) {
  ResultStore store(dir_.string());
  ASSERT_TRUE(store.save("k", "old"));
  ASSERT_TRUE(store.save("other", "x"));
  ASSERT_TRUE(store.save("k", "new"));
  EXPECT_EQ(store.load("k"), "new");
  ResultStore fresh(dir_.string());
  EXPECT_EQ(fresh.load("k"), "new");
  std::vector<std::pair<std::string, std::string>> seen;
  ASSERT_TRUE(fresh.scan([&](const std::string& k, const std::string& p) {
    seen.emplace_back(k, p);
  }));
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, std::string>>{
                      {"other", "x"}, {"k", "new"}}));
}

// Two stores on one directory see each other's saves, in either order.
TEST_F(StoreTest, TwoStoresShareOneLog) {
  ResultStore a(dir_.string());
  ResultStore b(dir_.string());
  EXPECT_EQ(b.load("from-a"), std::nullopt);
  ASSERT_TRUE(a.save("from-a", "1"));
  EXPECT_EQ(b.load("from-a"), "1");
  ASSERT_TRUE(b.save("from-b", "2"));
  ASSERT_TRUE(a.save("from-a-again", "3"));  // lands after b's record
  EXPECT_EQ(a.load("from-b"), "2");
  EXPECT_EQ(b.load("from-a-again"), "3");
  EXPECT_EQ(a.dir_stats().entries, 3u);
  EXPECT_EQ(a.dir_stats().bytes, fs::file_size(log()));
  EXPECT_EQ(a.counters().errors + b.counters().errors, 0u);
}

// dir_stats reads the table: distinct keys, the log's length, ages.
TEST_F(StoreTest, DirStatsCountsDistinctKeys) {
  ResultStore store(dir_.string());
  EXPECT_EQ(store.dir_stats().entries, 0u);
  EXPECT_EQ(store.dir_stats().bytes, 0u);
  for (const char* k : {"a", "b", "a", "c", "b"}) {
    ASSERT_TRUE(store.save(k, "payload"));
  }
  const ResultStore::DirStats d = store.dir_stats();
  EXPECT_EQ(d.entries, 3u);
  EXPECT_EQ(d.bytes, fs::file_size(log()));
  EXPECT_EQ(d.bytes, 5 * record_size("a", "payload"));
  EXPECT_GE(d.newest_age_seconds, 0.0);
  EXPECT_GE(d.oldest_age_seconds, d.newest_age_seconds);
  const ResultStore::DirStats reopened = ResultStore(dir_.string()).dir_stats();
  EXPECT_EQ(reopened.entries, d.entries);
  EXPECT_EQ(reopened.bytes, d.bytes);
}

TEST(Fnv1aHex, MatchesReferenceVectors) {
  // FNV-1a 64-bit reference values.
  EXPECT_EQ(fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(fnv1a_hex("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(fnv1a_hex("foobar"), "85944171f73967e8");
  EXPECT_EQ(fnv1a_hex("a").size(), 16u);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace repro::service
