#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "support/json_oracle.hpp"

namespace repro::json {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null")->is_null());
  EXPECT_EQ(parse("true")->as_bool(), true);
  EXPECT_EQ(parse("false")->as_bool(), false);
  EXPECT_EQ(parse("42")->as_int(), 42);
  EXPECT_EQ(parse("-7")->as_int(), -7);
  EXPECT_TRUE(parse("42")->is_int());
  EXPECT_TRUE(parse("42.5")->is_double());
  EXPECT_DOUBLE_EQ(parse("42.5")->as_double(), 42.5);
  EXPECT_DOUBLE_EQ(parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\te")")->as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse(R"("Aé")")->as_string(), "A\xc3\xa9");
}

TEST(JsonParse, Containers) {
  const auto v = parse(R"({"a":[1,2,3],"b":{"c":true}})");
  ASSERT_TRUE(v && v->is_object());
  const Value* a = v->find("a");
  ASSERT_TRUE(a && a->is_array());
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(a->items()[2].as_int(), 3);
  const Value* b = v->find("b");
  ASSERT_TRUE(b && b->is_object());
  EXPECT_TRUE(b->find("c")->as_bool());
}

TEST(JsonParse, RejectsMalformedInput) {
  std::string err;
  EXPECT_EQ(parse("", &err), std::nullopt);
  EXPECT_EQ(parse("{", &err), std::nullopt);
  EXPECT_EQ(parse("[1,]", &err), std::nullopt);
  EXPECT_EQ(parse("{\"a\":}", &err), std::nullopt);
  EXPECT_EQ(parse("tru", &err), std::nullopt);
  EXPECT_EQ(parse("1.5.2", &err), std::nullopt);
  // Trailing garbage after a complete document is an error, not a
  // silent truncation.
  EXPECT_EQ(parse("{} x", &err), std::nullopt);
  EXPECT_NE(err.find("offset"), std::string::npos);
}

TEST(JsonParse, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_EQ(parse(deep), std::nullopt);
}

TEST(JsonDump, IsByteStableAndCompact) {
  Value o = Value::object();
  o.set("b", 2);
  o.set("a", Value::array());
  o.set("s", "x\"y");
  EXPECT_EQ(o.dump(), R"({"b":2,"a":[],"s":"x\"y"})");  // insertion order
  // Sorted: the canonical oracle (tests/support/json_oracle.hpp).
  EXPECT_EQ(test::dump_canonical(o), R"({"a":[],"b":2,"s":"x\"y"})");
}

TEST(JsonDump, DoublesRoundTripShortest) {
  EXPECT_EQ(Value(0.1).dump(), "0.1");
  EXPECT_EQ(Value(1e300).dump(), "1e+300");
  EXPECT_EQ(Value(2.0).dump(), "2");
  // Round trip: shortest form parses back to the identical bits.
  const double x = 0.0007004603049460344;
  EXPECT_EQ(parse(Value(x).dump())->as_double(), x);
}

TEST(JsonDump, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Value(std::nan("")).dump(), "null");
}

TEST(JsonValue, SetReplacesInPlace) {
  Value o = Value::object();
  o.set("a", 1);
  o.set("b", 2);
  o.set("a", 3);  // replaced, keeps its slot
  EXPECT_EQ(o.dump(), R"({"a":3,"b":2})");
  EXPECT_EQ(o.find("a")->as_int(), 3);
  EXPECT_EQ(o.find("missing"), nullptr);
}

TEST(JsonRoundTrip, ParseDumpParseIsStable) {
  const std::string text =
      R"({"v":1,"id":"r1","nested":{"xs":[1,2.5,"three",null,true]}})";
  const auto v = parse(text);
  ASSERT_TRUE(v);
  const std::string dumped = v->dump();
  EXPECT_EQ(dumped, text);
  EXPECT_EQ(parse(dumped)->dump(), dumped);
}

}  // namespace
}  // namespace repro::json
