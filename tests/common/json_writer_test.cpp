// json::Writer against the independent tree serializer in
// tests/support/json_oracle.hpp: byte for byte on every string byte
// class, on the number edge cases and on seeded generated documents,
// written in insertion order (Value::dump) and with sorted keys
// (dump_canonical), and parse() reads every written document back.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "support/json_oracle.hpp"

namespace repro::json {
namespace {

using test::first_duplicate_key;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
constexpr double kMaxDenormal = 2.2250738585072009e-308;
constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

// The doubles whose shortest form has an edge: signed zeros,
// denormals, exponent thresholds, the extremes and the non-finites
// (rendered as null).
std::vector<double> edge_doubles() {
  std::vector<double> d = {0.0, -0.0, kDenormMin, kMaxDenormal, DBL_MIN};
  d.insert(d.end(), {1e-7, 0.1, 1.0 / 3.0, 2.0, -1.5, 123456789012345678.0});
  d.insert(d.end(), {1e21, DBL_MAX, -DBL_MAX, kNaN, kInf, -kInf});
  return d;
}

const std::int64_t kInts[] = {kInt64Min, kInt64Max, -1, 0, 1, 1 << 20};

// Bytes from every class the escaper treats apart: control bytes,
// '"' and '\\', printable ASCII, and bytes >= 0x80.
std::string random_string(Rng& rng) {
  std::string s;
  const std::uint64_t n = rng.next_below(12);
  for (std::uint64_t i = 0; i < n; ++i) {
    switch (rng.next_below(4)) {
      case 0:
        s.push_back(static_cast<char>(rng.next_below(0x20)));
        break;
      case 1:
        s.push_back(rng.next_below(2) == 0 ? '"' : '\\');
        break;
      case 2:
        s.push_back(static_cast<char>(0x20 + rng.next_below(0x5f)));
        break;
      default:
        s.push_back(static_cast<char>(0x80 + rng.next_below(0x80)));
    }
  }
  return s;
}

// A document of at most `depth` more levels; object keys are distinct.
Value random_value(Rng& rng, int depth) {
  switch (rng.next_below(depth > 0 ? 7 : 5)) {
    case 0:
      return Value();
    case 1:
      return Value(rng.next_below(2) == 1);
    case 2:
      if (rng.next_below(2) == 0) {
        return Value(kInts[rng.next_below(std::size(kInts))]);
      }
      return Value(static_cast<std::int64_t>(rng.next_u64()));
    case 3:
      if (rng.next_below(2) == 0) {
        static const std::vector<double> edges = edge_doubles();
        return Value(edges[rng.next_below(edges.size())]);
      }
      // Any bit pattern: denormals, NaNs and infinities included.
      return Value(std::bit_cast<double>(rng.next_u64()));
    case 4:
      return Value(random_string(rng));
    case 5: {
      Value a = Value::array();
      const std::uint64_t n = rng.next_below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        a.push_back(random_value(rng, depth - 1));
      }
      return a;
    }
    default: {
      Value o = Value::object();
      const std::uint64_t n = rng.next_below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string key = random_string(rng);
        if (o.find(key) == nullptr) {
          o.set(std::move(key), random_value(rng, depth - 1));
        }
      }
      return o;
    }
  }
}

// Drives a Writer through `v` the way the library's writers do, each
// object's members in insertion order or sorted by key.
void write_through(Writer& w, const Value& v, bool sorted) {
  switch (v.type()) {
    case Value::Type::kNull:
      w.null();
      return;
    case Value::Type::kBool:
      w.value(v.as_bool());
      return;
    case Value::Type::kInt:
      w.value(v.as_int());
      return;
    case Value::Type::kDouble:
      w.value(v.as_double());
      return;
    case Value::Type::kString:
      w.value(v.as_string());
      return;
    case Value::Type::kArray:
      w.begin_array();
      for (const Value& e : v.items()) write_through(w, e, sorted);
      w.end_array();
      return;
    case Value::Type::kObject: {
      std::vector<const Member*> members;
      for (const Member& m : v.members()) members.push_back(&m);
      if (sorted) {
        std::sort(members.begin(), members.end(),
                  [](const Member* a, const Member* b) {
                    return a->first < b->first;
                  });
      }
      w.begin_object();
      for (const Member* m : members) {
        w.key(m->first);
        write_through(w, m->second, sorted);
      }
      w.end_object();
      return;
    }
  }
}

std::string written(const Value& v, bool sorted) {
  Writer w;
  write_through(w, v, sorted);
  return w.take();
}

// Whether `back`, parsed from written text, is `v`. Numbers compare by
// value: an integral double's text (and -0's) reads back as an
// integer, and a non-finite double as null.
bool same(const Value& v, const Value& back) {
  if (v.is_double() && !std::isfinite(v.as_double())) return back.is_null();
  if (v.is_number()) {
    if (!back.is_number()) return false;
    if (v.is_int()) return back.is_int() && back.as_int() == v.as_int();
    return back.as_double() == v.as_double();
  }
  if (v.type() != back.type()) return false;
  switch (v.type()) {
    case Value::Type::kBool:
      return v.as_bool() == back.as_bool();
    case Value::Type::kString:
      return v.as_string() == back.as_string();
    case Value::Type::kArray:
      if (v.size() != back.size()) return false;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (!same(v.items()[i], back.items()[i])) return false;
      }
      return true;
    case Value::Type::kObject:
      if (v.size() != back.size()) return false;
      for (std::size_t i = 0; i < v.size(); ++i) {
        const Member& a = v.members()[i];
        const Member& b = back.members()[i];
        if (a.first != b.first || !same(a.second, b.second)) return false;
      }
      return true;
    default:
      return true;  // null
  }
}

TEST(JsonWriter, EscapesEveryByteLikeTheReference) {
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  std::string want;
  test::reference_escape(want, all);
  Writer w;
  w.begin_object().key(all).value(all).end_object();
  EXPECT_EQ(w.str(), "{" + want + ":" + want + "}");
  // Escapes for the named control bytes, \u00XX for the rest, every
  // byte >= 0x20 but '"' and '\\' verbatim.
  const std::string_view head =
      R"("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n)";
  EXPECT_EQ(want.substr(0, head.size()), head);
  const std::optional<Value> back = parse(w.str());
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ(back->members()[0].first, all);
  EXPECT_EQ(back->members()[0].second.as_string(), all);
}

TEST(JsonWriter, NumbersMatchTheReference) {
  for (const double d : edge_doubles()) {
    EXPECT_EQ(Writer().value(d).str(), test::dump_reference(Value(d))) << d;
    EXPECT_EQ(format_double(d), test::dump_reference(Value(d))) << d;
  }
  for (const std::int64_t i : kInts) {
    EXPECT_EQ(Writer().value(i).str(), std::to_string(i));
  }
  EXPECT_EQ(Writer().value(kInt64Min).str(), "-9223372036854775808");
  EXPECT_EQ(Writer().value(kInt64Max).str(), "9223372036854775807");
  EXPECT_EQ(Writer().value(std::size_t{7}).str(), "7");
  EXPECT_EQ(Writer().value(-0.0).str(), "-0");
  EXPECT_EQ(Writer().value(kDenormMin).str(), "5e-324");
  EXPECT_EQ(Writer().value(1e-7).str(), "1e-07");
  EXPECT_EQ(Writer().value(1e21).str(), "1e+21");
  EXPECT_EQ(Writer().value(DBL_MAX).str(), "1.7976931348623157e+308");
  EXPECT_EQ(Writer().value(kNaN).str(), "null");
  EXPECT_EQ(Writer().value(kInf).str(), "null");
  EXPECT_EQ(Writer().value(-kInf).str(), "null");
}

TEST(JsonWriter, PlacesCommasAroundRawValuesAndEmptyContainers) {
  Writer w;
  w.begin_array().raw(R"({"a":1})").begin_object().end_object();
  w.begin_array().end_array().value("x").null().raw("[]").end_array();
  EXPECT_EQ(w.str(), R"([{"a":1},{},[],"x",null,[]])");
}

TEST(JsonWriter, DeeplyNestedEmptyContainers) {
  // 30 arrays around 30 objects, each object holding the next level
  // under the key "k", around [{}]: 62 levels, within parse()'s depth
  // guard.
  Writer w;
  std::string want;
  for (int i = 0; i < 30; ++i) {
    w.begin_array();
    want += "[";
  }
  for (int i = 0; i < 30; ++i) {
    w.begin_object().key("k");
    want += R"({"k":)";
  }
  w.begin_array().begin_object().end_object().end_array();
  want += "[{}]";
  for (int i = 0; i < 30; ++i) {
    w.end_object();
    want += "}";
  }
  for (int i = 0; i < 30; ++i) {
    w.end_array();
    want += "]";
  }
  EXPECT_EQ(w.str(), want);
  const std::optional<Value> back = parse(w.str());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), want);
  EXPECT_EQ(test::dump_reference(*back), want);
}

TEST(JsonWriterProperty, MatchesTheTreeSerializerOnGeneratedDocuments) {
  Rng rng(20170204);
  for (int i = 0; i < 3000; ++i) {
    const Value v = random_value(rng, 4);
    const std::string text = written(v, /*sorted=*/false);
    ASSERT_EQ(text, test::dump_reference(v)) << "document " << i;
    ASSERT_EQ(v.dump(), text) << "document " << i;
    const std::string sorted = written(v, /*sorted=*/true);
    ASSERT_EQ(sorted, test::dump_canonical(v)) << "document " << i;
    const std::optional<Value> back = parse(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_TRUE(same(v, *back)) << text;
    EXPECT_EQ(first_duplicate_key(text), std::nullopt) << text;
  }
}

TEST(JsonWriterOracle, FindsARepeatedKeyAtAnyDepth) {
  EXPECT_EQ(first_duplicate_key(R"({"a":1,"b":{"a":2}})"), std::nullopt);
  EXPECT_EQ(first_duplicate_key(R"([{"a":1},{"a":2}])"), std::nullopt);
  EXPECT_EQ(first_duplicate_key(R"({"s":"a:","a":"\"a\":"})"), std::nullopt);
  EXPECT_EQ(first_duplicate_key(R"({"x":[{"k":1,"k":2}]})"), "k");
  EXPECT_EQ(first_duplicate_key(R"({"a\"":1, "a\"": 2})"), R"(a\")");
}

}  // namespace
}  // namespace repro::json
