#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <string>

namespace repro::pipeline {
namespace {

using analysis::Code;

constexpr const char* kVcycle = R"({
  "pipeline_version": 1,
  "name": "mini_vcycle",
  "stages": [
    {"id": "smooth", "stencil": "Jacobi2D",
     "problem": {"S": [256, 256], "T": 4}, "repeat": 2, "level": 0},
    {"id": "restrict", "stencil": "Gradient2D",
     "problem": {"S": [128, 128], "T": 2}, "after": ["smooth"],
     "level": 1},
    {"id": "solve", "stencil": "Jacobi2D",
     "problem": {"S": [128, 128], "T": 8}, "after": ["restrict"],
     "level": 1,
     "variant": {"unroll": 2, "staging": "register"}}
  ]
})";

// The normalized form Pipeline::write emits, as text.
std::string normalized(const Pipeline& p) {
  json::Writer w;
  p.write(w);
  return w.take();
}

std::optional<Pipeline> parse_ok(const std::string& text) {
  analysis::DiagnosticEngine diags;
  auto p = parse_pipeline_text(text, diags);
  EXPECT_TRUE(diags.empty()) << text;
  return p;
}

// Every failure test: parse must return nullopt AND emit the exact
// SL6xx code the header documents.
void expect_code(const std::string& text, Code code) {
  analysis::DiagnosticEngine diags;
  const auto p = parse_pipeline_text(text, diags);
  EXPECT_FALSE(p.has_value()) << text;
  EXPECT_TRUE(diags.has_code(code)) << text;
}

TEST(PipelineIr, ParsesVcycleAndResolvesStages) {
  const auto p = parse_ok(kVcycle);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->name, "mini_vcycle");
  ASSERT_EQ(p->stages.size(), 3u);
  EXPECT_EQ(p->stages[0].id, "smooth");
  EXPECT_EQ(p->stages[0].stencil_name, "Jacobi2D");
  EXPECT_EQ(p->stages[0].repeat, 2);
  EXPECT_EQ(p->stages[0].problem.dim, 2);
  EXPECT_EQ(p->stages[0].problem.S[0], 256);
  EXPECT_FALSE(p->stages[0].variant.has_value());
  ASSERT_EQ(p->stages[1].after.size(), 1u);
  EXPECT_EQ(p->stages[1].after[0], "smooth");
  ASSERT_TRUE(p->stages[2].variant.has_value());
  EXPECT_EQ(p->stages[2].variant->unroll, 2);
  EXPECT_EQ(p->stages[2].variant->staging, stencil::Staging::kRegister);
  // The stencil definition is resolved from the catalogue at parse
  // time: downstream consumers never re-look anything up.
  EXPECT_EQ(p->stages[0].def.dim, 2);
}

TEST(PipelineIr, ToJsonRoundTripsByteStably) {
  const auto p = parse_ok(kVcycle);
  ASSERT_TRUE(p);
  const std::string once = normalized(*p);
  const auto again = parse_ok(once);
  ASSERT_TRUE(again);
  EXPECT_EQ(normalized(*again), once);
}

TEST(PipelineIr, TwoSpellingsNormalizeToIdenticalBytes) {
  // Same DAG: defaults spelled out + shuffled member order vs the
  // terse spelling. The normalized form is what the service keys on.
  const auto terse = parse_ok(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[64,64],"T":2}}]})");
  const auto verbose = parse_ok(
      R"({"stages":[
           {"problem":{"T":2,"S":[64,64]},"repeat":1,"after":[],
            "stencil":"Heat2D","id":"a"}],
          "name":"","pipeline_version":1})");
  ASSERT_TRUE(terse);
  ASSERT_TRUE(verbose);
  EXPECT_EQ(normalized(*terse), normalized(*verbose));
}

TEST(PipelineIr, InlineDslTextStageParses) {
  const auto p = parse_ok(
      R"({"pipeline_version":1,"stages":[
           {"id":"custom",
            "text":"stencil J {\n dim 1\n tap (0) 0.5\n tap (1) 0.25\n tap (-1) 0.25\n}",
            "problem":{"S":[1024],"T":4}}]})");
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->stages[0].stencil_name.empty());
  EXPECT_FALSE(p->stages[0].stencil_text.empty());
  EXPECT_EQ(p->stages[0].def.dim, 1);
}

TEST(PipelineIr, TopoOrderFollowsEdgesThenDeclarationIndex) {
  // b has no predecessor but is declared after a; with no edges
  // between them the order is declaration order. c waits for both.
  const auto p = parse_ok(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Jacobi1D","problem":{"S":[512],"T":2}},
           {"id":"b","stencil":"Jacobi1D","problem":{"S":[256],"T":2}},
           {"id":"c","stencil":"Jacobi1D","problem":{"S":[128],"T":2},
            "after":["b","a"]}]})");
  ASSERT_TRUE(p);
  const auto order = topo_order(*p);
  ASSERT_TRUE(order);
  EXPECT_EQ(*order, (std::vector<std::size_t>{0, 1, 2}));

  // An edge inverting declaration order is honored.
  const auto q = parse_ok(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Jacobi1D","problem":{"S":[512],"T":2},
            "after":["b"]},
           {"id":"b","stencil":"Jacobi1D","problem":{"S":[256],"T":2}}]})");
  ASSERT_TRUE(q);
  const auto order2 = topo_order(*q);
  ASSERT_TRUE(order2);
  EXPECT_EQ(*order2, (std::vector<std::size_t>{1, 0}));
}

TEST(PipelineIr, MalformedDocumentsAreSL601) {
  // Not an object.
  expect_code(R"([1,2,3])", Code::kPipeMalformed);
  // Unparseable text.
  expect_code("{nope", Code::kPipeMalformed);
  // Missing/wrong version.
  expect_code(R"({"stages":[]})", Code::kPipeMalformed);
  expect_code(R"({"pipeline_version":2,"stages":[]})", Code::kPipeMalformed);
  // Unknown top-level and stage-level fields.
  expect_code(
      R"({"pipeline_version":1,"bogus":1,"stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[64,64],"T":2}}]})",
      Code::kPipeMalformed);
  expect_code(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[64,64],"T":2},
            "bogus":1}]})",
      Code::kPipeMalformed);
  // Empty stages, bad repeat, bad problem.
  expect_code(R"({"pipeline_version":1,"stages":[]})", Code::kPipeMalformed);
  expect_code(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[64,64],"T":2},
            "repeat":0}]})",
      Code::kPipeMalformed);
  expect_code(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[64,-4],"T":2}}]})",
      Code::kPipeMalformed);
}

TEST(PipelineIr, UnknownCatalogueStencilIsSL602) {
  expect_code(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"NoSuchStencil",
            "problem":{"S":[64,64],"T":2}}]})",
      Code::kPipeUnknownStencil);
}

TEST(PipelineIr, DuplicateIdAndUndeclaredEdgeAreSL603) {
  expect_code(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[64,64],"T":2}},
           {"id":"a","stencil":"Heat2D","problem":{"S":[64,64],"T":2}}]})",
      Code::kPipeUnknownStage);
  expect_code(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[64,64],"T":2},
            "after":["ghost"]}]})",
      Code::kPipeUnknownStage);
}

TEST(PipelineIr, DependencyCycleIsSL604) {
  expect_code(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[64,64],"T":2},
            "after":["b"]},
           {"id":"b","stencil":"Heat2D","problem":{"S":[64,64],"T":2},
            "after":["a"]}]})",
      Code::kPipeCycle);
}

TEST(PipelineIr, DimAndLevelMismatchesAreSL605) {
  // 1D problem against a 2D stencil.
  expect_code(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[64],"T":2}}]})",
      Code::kPipeLevelMismatch);
  // Two stages on level 0 disagreeing on spatial extents.
  expect_code(
      R"({"pipeline_version":1,"stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[64,64],"T":2},
            "level":0},
           {"id":"b","stencil":"Heat2D","problem":{"S":[32,32],"T":2},
            "level":0}]})",
      Code::kPipeLevelMismatch);
}

}  // namespace
}  // namespace repro::pipeline
