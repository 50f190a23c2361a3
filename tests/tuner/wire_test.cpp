// The one wire codec (tuner/wire.hpp): decode(encode(x)) == x over
// seeded generated values of every type, and the codes each entry
// point emits for malformed fragments — the protocol's SL404/SL405/
// SL314 and the pipeline IR's SL601.
#include "tuner/wire.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "pipeline/pipeline.hpp"
#include "service/protocol.hpp"

namespace repro::tuner::wire {
namespace {

using analysis::Code;

// One encoded fragment as text.
template <class T, class... Args>
std::string to_json(const T& x, Args... args) {
  json::Writer w;
  write(w, x, args...);
  return w.take();
}

// Encode to text (in `order` where the fragment has one), parse the
// text back, decode.
template <class T, class... Order>
std::optional<T> round_trip(const T& x, Decoder<T> parse, Order... order) {
  const std::optional<json::Value> doc = json::parse(to_json(x, order...));
  EXPECT_TRUE(doc.has_value());
  analysis::DiagnosticEngine diags;
  std::optional<T> out = parse(*doc, service::kRequestCodes, diags);
  EXPECT_TRUE(diags.empty()) << analysis::render_human(diags.diagnostics());
  return out;
}

TEST(Wire, DecodeInvertsEncodeOnGeneratedValues) {
  Rng rng(20170204);
  for (int i = 0; i < 300; ++i) {
    stencil::ProblemSize p;
    p.dim = static_cast<int>(rng.uniform_int(1, 3));  // 1-D to 3-D
    for (int d = 0; d < p.dim; ++d) {
      p.S[static_cast<std::size_t>(d)] = rng.uniform_int(1, 1 << 20);
    }
    p.T = rng.uniform_int(1, std::int64_t{1} << 40);
    EXPECT_EQ(round_trip(p, &parse_problem), p) << p.to_string();

    const hhc::TileSizes ts{.tT = rng.uniform_int(1, 1 << 20),
                            .tS1 = rng.uniform_int(1, 1 << 20),
                            .tS2 = rng.uniform_int(1, 1 << 20),
                            .tS3 = rng.uniform_int(1, 1 << 20)};
    EXPECT_EQ(round_trip(ts, &parse_tile), ts) << ts.to_string();
    EXPECT_EQ(round_trip(ts, &parse_tile, Order::kSorted), ts);

    const hhc::ThreadConfig thr{
        .n1 = static_cast<int>(rng.uniform_int(1, 1024)),
        .n2 = static_cast<int>(rng.uniform_int(1, 1024)),
        .n3 = static_cast<int>(rng.uniform_int(1, 1024))};
    EXPECT_EQ(round_trip(thr, &parse_threads), thr);

    EnumOptions e;
    e.tT_max = rng.uniform_int(1, 1 << 20);
    e.tT_step = rng.uniform_int(1, 1 << 20);
    e.tS1_max = rng.uniform_int(1, 1 << 20);
    e.tS1_step = rng.uniform_int(1, 1 << 20);
    e.tS2_max = rng.uniform_int(1, 1 << 20);
    e.tS2_step = rng.uniform_int(1, 1 << 20);
    e.tS3_max = rng.uniform_int(1, 1 << 20);
    e.tS3_step = rng.uniform_int(1, 1 << 20);
    for (const Order order : {Order::kWire, Order::kSorted}) {
      const std::optional<EnumOptions> back = round_trip(e, &parse_enum, order);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(back->tT_max, e.tT_max);
      EXPECT_EQ(back->tT_step, e.tT_step);
      EXPECT_EQ(back->tS1_max, e.tS1_max);
      EXPECT_EQ(back->tS1_step, e.tS1_step);
      EXPECT_EQ(back->tS2_max, e.tS2_max);
      EXPECT_EQ(back->tS2_step, e.tS2_step);
      EXPECT_EQ(back->tS3_max, e.tS3_max);
      EXPECT_EQ(back->tS3_step, e.tS3_step);
      EXPECT_TRUE(back->variants.empty());
    }
  }
  for (const stencil::KernelVariant& var : stencil::all_kernel_variants()) {
    EXPECT_EQ(round_trip(var, &parse_variant), var) << var.to_string();
    EXPECT_EQ(round_trip(var, &parse_variant, Order::kSorted), var);
  }
}

// A tuned point is built from the same fragments: each decodes back
// to the point's own tile, threads and variant.
TEST(Wire, PointFragmentsDecodeToThePoint) {
  EvaluatedPoint ep;
  ep.dp = {{.tT = 6, .tS1 = 8, .tS2 = 160, .tS3 = 1},
           {.n1 = 32, .n2 = 4, .n3 = 1},
           {2, stencil::Staging::kRegister}};
  ep.feasible = true;
  ep.talg = 1e-4;
  ep.texec = 2e-4;
  ep.gflops = 300.0;
  const Codes& codes = service::kRequestCodes;
  analysis::DiagnosticEngine diags;
  const std::optional<json::Value> with = json::parse(to_json(ep, true));
  ASSERT_TRUE(with.has_value());
  EXPECT_EQ(parse_tile(*with->find("tile"), codes, diags), ep.dp.ts);
  EXPECT_EQ(parse_threads(*with->find("threads"), codes, diags), ep.dp.thr);
  EXPECT_EQ(parse_variant(*with->find("variant"), codes, diags), ep.dp.var);
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(to_json(ep, false).find("variant"), std::string::npos);
}

// One malformed fragment and the first error code each entry point
// reports for it. `pipeline` is unset for fragments a stage cannot
// carry (tile, threads, enum).
struct Malformed {
  std::string_view field;
  std::string_view json;
  Code request;
  std::optional<Code> pipeline;
};

const Malformed kMalformed[] = {
    {"problem", "[]", Code::kSvcBadField, Code::kPipeMalformed},
    {"problem", R"({"S":[64,64]})", Code::kSvcMissingField,
     Code::kPipeMalformed},
    {"problem", R"({"S":[64,64],"T":0})", Code::kSvcBadField,
     Code::kPipeMalformed},
    {"problem", R"({"S":[64,64],"T":"4"})", Code::kSvcBadField,
     Code::kPipeMalformed},
    {"problem", R"({"S":[64,64],"T":2199023255552})", Code::kSvcBadField,
     Code::kPipeMalformed},
    {"problem", R"({"S":[],"T":4})", Code::kSvcBadField, Code::kPipeMalformed},
    {"problem", R"({"S":[1,2,3,4],"T":4})", Code::kSvcBadField,
     Code::kPipeMalformed},
    {"problem", R"({"S":[64,0],"T":4})", Code::kSvcBadField,
     Code::kPipeMalformed},
    {"problem", R"({"T":4})", Code::kSvcBadField, Code::kPipeMalformed},
    {"problem", R"({"S":[64,64],"T":4,"R":1})", Code::kSvcBadField,
     Code::kPipeMalformed},
    {"tile", "3", Code::kSvcBadField, std::nullopt},
    {"tile", "{}", Code::kSvcMissingField, std::nullopt},
    {"tile", R"({"tT":6})", Code::kSvcMissingField, std::nullopt},
    {"tile", R"({"tT":0,"tS1":8})", Code::kSvcBadField, std::nullopt},
    {"tile", R"({"tT":"6"})", Code::kSvcBadField, std::nullopt},
    {"tile", R"({"tT":6,"tS1":8,"tS2":0})", Code::kSvcBadField, std::nullopt},
    {"tile", R"({"tT":6,"tS1":2097152})", Code::kSvcBadField, std::nullopt},
    {"tile", R"({"tT":6,"tS1":8,"tS4":1})", Code::kSvcBadField, std::nullopt},
    {"threads", "[]", Code::kSvcBadField, std::nullopt},
    {"threads", "{}", Code::kSvcMissingField, std::nullopt},
    {"threads", R"({"n2":4})", Code::kSvcMissingField, std::nullopt},
    {"threads", R"({"n1":2000})", Code::kSvcBadField, std::nullopt},
    {"threads", R"({"n1":32,"n3":"1"})", Code::kSvcBadField, std::nullopt},
    {"threads", R"({"n1":32,"n4":1})", Code::kSvcBadField, std::nullopt},
    {"variant", R"("u2")", Code::kSvcBadField, Code::kPipeMalformed},
    {"variant", R"({"unroll":3})", Code::kVariantResource,
     Code::kPipeMalformed},
    {"variant", R"({"unroll":"2"})", Code::kVariantResource,
     Code::kPipeMalformed},
    {"variant", R"({"unroll":4294967298})", Code::kVariantResource,
     Code::kPipeMalformed},
    {"variant", R"({"staging":"global"})", Code::kSvcBadField,
     Code::kPipeMalformed},
    {"variant", R"({"unroll":2,"tiling":1})", Code::kSvcBadField,
     Code::kPipeMalformed},
    {"enum", "[]", Code::kSvcBadField, std::nullopt},
    {"enum", R"({"tT_max":0})", Code::kSvcBadField, std::nullopt},
    {"enum", R"({"tS2_step":"32"})", Code::kSvcBadField, std::nullopt},
    {"enum", R"({"tS4_max":8})", Code::kSvcBadField, std::nullopt},
};

std::optional<Code> first_error(const analysis::DiagnosticEngine& diags) {
  for (const analysis::Diagnostic& d : diags.diagnostics()) {
    if (d.severity == analysis::Severity::kError) return d.code;
  }
  return std::nullopt;
}

TEST(Wire, MalformedFragmentsKeepEachEntryPointsCodes) {
  for (const Malformed& m : kMalformed) {
    const std::string field(m.field);
    const std::string frag(m.json);
    // A valid request with one fragment replaced.
    json::Value req = *json::parse(
        field == "enum"
            ? R"({"v":1,"kind":"best_tile","stencil":"Heat2D",
                 "problem":{"S":[64,64],"T":4},"enum":{}})"
            : R"({"v":1,"kind":"predict","stencil":"Heat2D",
                 "problem":{"S":[64,64],"T":4},"tile":{"tT":6,"tS1":8},
                 "threads":{"n1":32},"variant":{"unroll":1}})");
    req.set(field, *json::parse(frag));
    analysis::DiagnosticEngine rdiags;
    EXPECT_FALSE(service::parse_request(req.dump(), rdiags).has_value())
        << field << " " << frag;
    EXPECT_EQ(first_error(rdiags), m.request) << field << " " << frag;

    if (!m.pipeline) continue;
    json::Value st = *json::parse(
        R"({"id":"a","stencil":"Heat2D","problem":{"S":[64,64],"T":4}})");
    st.set(field, *json::parse(frag));
    std::string text = R"({"pipeline_version":1,"stages":[)";
    text += st.dump();
    text += "]}";
    analysis::DiagnosticEngine pdiags;
    EXPECT_FALSE(pipeline::parse_pipeline_text(text, pdiags).has_value())
        << field << " " << frag;
    EXPECT_EQ(first_error(pdiags), m.pipeline) << field << " " << frag;
  }
}

}  // namespace
}  // namespace repro::tuner::wire
