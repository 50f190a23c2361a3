// Canonical keys pinned byte for byte, and every JSON writer site
// checked for a repeated key.
//
// The result log is keyed on Request::canonical_key(): a key that
// changes makes every stored result miss. tests/golden/keys/ holds one
// <set>_keys.txt per request set, the keys the service wrote for those
// lines, one per line: the payload goldens' requests
// (tests/golden/payloads/), 20 seed-1 `perfbench gen` lines each of
// cold_tune and vcycle_plan, and hand-written lines covering every
// optional key (DSL text with control and non-ASCII bytes, variants,
// audit, caps, pipelines with levels, variants and text stages).
// Regenerate a key file only for an intended key change, and say so:
// it invalidates every stored result.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "device/registry.hpp"
#include "service/core.hpp"
#include "service/protocol.hpp"
#include "support/json_oracle.hpp"

namespace repro::service {
namespace {

namespace fs = std::filesystem;
using json::test::first_duplicate_key;

const fs::path kGolden = fs::path(REPRO_SOURCE_DIR) / "tests" / "golden";

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// The request lines of a key set: the payload goldens' own for
// "service" and "pipeline", tests/golden/keys/<set>_requests.jsonl
// otherwise.
std::vector<std::string> requests_of(const std::string& set) {
  const std::string file = set + "_requests.jsonl";
  if (set == "service" || set == "pipeline") {
    return read_lines(kGolden / "payloads" / file);
  }
  return read_lines(kGolden / "keys" / file);
}

std::string key_of(const std::string& line) {
  analysis::DiagnosticEngine diags;
  const std::optional<Request> req = parse_request(line, diags);
  if (!req) return "parse error";
  return req->canonical_key();
}

class CanonicalKeyGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(CanonicalKeyGolden, KeysMatchCommittedBytes) {
  const std::string set = GetParam();
  const std::vector<std::string> requests = requests_of(set);
  const std::vector<std::string> keys =
      read_lines(kGolden / "keys" / (set + "_keys.txt"));
  ASSERT_FALSE(requests.empty());
  ASSERT_EQ(requests.size(), keys.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(key_of(requests[i]), keys[i]) << set << " line " << i + 1;
  }
}

// A key is written in sorted order, never sorted afterwards: it must
// equal the sorting serializer's rendering of its own parse, and name
// no key twice.
TEST_P(CanonicalKeyGolden, KeysAreWrittenSorted) {
  const std::string set = GetParam();
  for (const std::string& line : requests_of(set)) {
    const std::string key = key_of(line);
    const std::optional<json::Value> doc = json::parse(key);
    ASSERT_TRUE(doc.has_value()) << key;
    EXPECT_EQ(json::test::dump_canonical(*doc), key);
    EXPECT_EQ(first_duplicate_key(key), std::nullopt) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Payloads, CanonicalKeyGolden,
                         ::testing::Values("service", "pipeline"));
INSTANTIATE_TEST_SUITE_P(Generated, CanonicalKeyGolden,
                         ::testing::Values("cold_tune", "vcycle_plan"));
INSTANTIATE_TEST_SUITE_P(Shapes, CanonicalKeyGolden,
                         ::testing::Values("shapes"));

// No writer site names a key twice in one object (the Writer writes
// whatever it is given; parse() would keep only one of the two). The
// payload goldens hold what compute_payload and render_result write
// for every kind but stats and devices (PayloadGolden pins them to
// the live output); the rest, and the device registry, is written
// here.
TEST(WriterSites, NoObjectNamesAKeyTwice) {
  std::vector<std::string> texts;
  for (const std::string set : {"service", "pipeline"}) {
    const fs::path file = kGolden / "payloads" / (set + "_responses.jsonl");
    for (const std::string& line : read_lines(file)) texts.push_back(line);
  }
  ServiceStats stats;
  stats.predict = 1;
  texts.push_back(stats.to_json());
  texts.push_back(device::registry().dump());
  ServiceCore core;
  texts.push_back(core.handle(R"({"v":1,"id":"d","kind":"devices"})"));
  texts.push_back(core.handle(R"({"v":1,"id":"s","kind":"stats"})"));
  // Error responses: two diagnostics, and one with a hint.
  texts.push_back(core.handle(R"({"v":1,"kind":"lint","x":1,"y":2})"));
  texts.push_back(core.handle(R"({"v":1,"kind":"lint","device":"GTX 98O"})"));
  ASSERT_GT(texts.size(), 25u);
  for (const std::string& text : texts) {
    ASSERT_TRUE(json::parse(text).has_value()) << text;
    EXPECT_EQ(first_duplicate_key(text), std::nullopt) << text;
  }
}

}  // namespace
}  // namespace repro::service
