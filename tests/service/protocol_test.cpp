#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace repro::service {
namespace {

using analysis::Code;
using analysis::DiagnosticEngine;

constexpr const char* kPredictLine =
    R"({"v":1,"id":"r1","kind":"predict","stencil":"Heat2D",)"
    R"("problem":{"S":[512,512],"T":64},"tile":{"tT":6,"tS1":8,"tS2":160},)"
    R"("threads":{"n1":32,"n2":4}})";

TEST(Protocol, ParsesPredictRequest) {
  DiagnosticEngine diags;
  const auto req = parse_request(kPredictLine, diags);
  ASSERT_TRUE(req) << analysis::render_human(diags.diagnostics());
  EXPECT_EQ(req->id, "r1");
  EXPECT_EQ(req->kind, RequestKind::kPredict);
  EXPECT_EQ(req->device, "GTX 980");
  EXPECT_EQ(req->def.name, "Heat2D");
  ASSERT_TRUE(req->problem);
  EXPECT_EQ(req->problem->dim, 2);
  EXPECT_EQ(req->problem->T, 64);
  ASSERT_TRUE(req->tile);
  EXPECT_EQ(req->tile->tT, 6);
  EXPECT_EQ(req->tile->tS2, 160);
  EXPECT_EQ(req->tile->tS3, 1);  // defaulted
  ASSERT_TRUE(req->threads);
  EXPECT_EQ(req->threads->n1, 32);
}

TEST(Protocol, ParsesInlineDslText) {
  DiagnosticEngine diags;
  const auto req = parse_request(
      R"({"v":1,"kind":"lint","text":)"
      R"("stencil S {\n dim 1\n tap (0) 0.5\n tap (1) 0.25\n tap (-1) 0.25\n}"})",
      diags);
  ASSERT_TRUE(req) << analysis::render_human(diags.diagnostics());
  EXPECT_EQ(req->def.dim, 1);
  EXPECT_EQ(req->def.taps.size(), 3u);
}

TEST(Protocol, InvalidJsonIsSL401) {
  DiagnosticEngine diags;
  std::string id;
  EXPECT_EQ(parse_request("{not json", diags, &id), std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcMalformed));
}

TEST(Protocol, IdIsRecoveredEvenWhenParsingFails) {
  DiagnosticEngine diags;
  std::string id;
  EXPECT_EQ(parse_request(R"({"v":7,"id":"r9","kind":"predict"})", diags, &id),
            std::nullopt);
  EXPECT_EQ(id, "r9");
  EXPECT_TRUE(diags.has_code(Code::kSvcVersion));
}

TEST(Protocol, UnknownKindIsSL403) {
  DiagnosticEngine diags;
  EXPECT_EQ(
      parse_request(R"({"v":1,"kind":"frobnicate","stencil":"Heat2D"})", diags),
      std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcUnknownKind));
}

TEST(Protocol, MissingRequiredFieldIsSL404) {
  DiagnosticEngine diags;
  EXPECT_EQ(parse_request(R"({"v":1,"kind":"predict","stencil":"Heat2D"})",
                          diags),
            std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcMissingField));
}

TEST(Protocol, UnknownFieldIsRejectedNotIgnored) {
  DiagnosticEngine diags;
  EXPECT_EQ(parse_request(
                R"({"v":1,"kind":"best_tile","stencil":"Heat2D",)"
                R"("problem":{"S":[512,512],"T":64},"detla":0.2})",  // typo
                diags),
            std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcBadField));
}

TEST(Protocol, UnknownDeviceIsStructuredSL522) {
  // The registry redesign: an unknown device reports SL522 with the
  // registered names in the message and a nearest-name hint — not the
  // old bare SL405.
  DiagnosticEngine diags;
  EXPECT_EQ(parse_request(
                R"({"v":1,"kind":"lint","device":"GTX 9999","stencil":"Heat2D"})",
                diags),
            std::nullopt);
  ASSERT_TRUE(diags.has_code(Code::kAuditUnknownDevice));
  const analysis::Diagnostic& d = diags.diagnostics().front();
  EXPECT_NE(d.message.find("GTX 980"), std::string::npos);
  EXPECT_NE(d.message.find("Xeon E5-2690 v4"), std::string::npos);
  EXPECT_NE(d.hint.find("GTX 980"), std::string::npos);
}

TEST(Protocol, UnknownStencilIsSL405) {
  DiagnosticEngine diags;
  EXPECT_EQ(
      parse_request(R"({"v":1,"kind":"lint","stencil":"NoSuchStencil"})",
                    diags),
      std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcBadField));
}

TEST(Protocol, DevicesKindTakesNoComputationFields) {
  DiagnosticEngine diags;
  const auto req = parse_request(R"({"v":1,"id":"d1","kind":"devices"})", diags);
  ASSERT_TRUE(req) << analysis::render_human(diags.diagnostics());
  EXPECT_EQ(req->kind, RequestKind::kDevices);
  // Its canonical key is {v, kind} alone — no device/stencil identity.
  EXPECT_EQ(req->canonical_key(), R"({"kind":"devices","v":1})");
  // Any computation field is rejected, not ignored.
  diags.clear();
  EXPECT_EQ(parse_request(
                R"({"v":1,"kind":"devices","device":"GTX 980"})", diags),
            std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcBadField));
}

TEST(Protocol, ProblemDimMustMatchStencilDim) {
  DiagnosticEngine diags;
  EXPECT_EQ(parse_request(
                R"({"v":1,"kind":"best_tile","stencil":"Heat2D",)"
                R"("problem":{"S":[512],"T":64}})",
                diags),
            std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcBadField));
}

TEST(Protocol, StencilAndTextAreMutuallyExclusive) {
  DiagnosticEngine diags;
  EXPECT_EQ(parse_request(
                R"({"v":1,"kind":"lint","stencil":"Heat2D","text":"x"})",
                diags),
            std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcMissingField));
  diags.clear();
  EXPECT_EQ(parse_request(R"({"v":1,"kind":"lint"})", diags), std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcMissingField));
}

TEST(Protocol, BadEnumOptionsSurfaceTunerDiagnostics) {
  DiagnosticEngine diags;
  EXPECT_EQ(parse_request(
                R"({"v":1,"kind":"best_tile","stencil":"Heat2D",)"
                R"("problem":{"S":[512,512],"T":64},"enum":{"tT_max":"wide"}})",
                diags),
            std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcBadField));
}

// --- Canonical keys ---------------------------------------------------

TEST(CanonicalKey, IgnoresIdAndFieldOrder) {
  DiagnosticEngine diags;
  const auto a = parse_request(kPredictLine, diags);
  const auto b = parse_request(
      R"({"kind":"predict","tile":{"tS2":160,"tS1":8,"tT":6},)"
      R"("problem":{"T":64,"S":[512,512]},"stencil":"Heat2D",)"
      R"("threads":{"n2":4,"n1":32},"id":"totally-different","v":1})",
      diags);
  ASSERT_TRUE(a && b) << analysis::render_human(diags.diagnostics());
  EXPECT_EQ(a->canonical_key(), b->canonical_key());
}

TEST(CanonicalKey, DistinguishesEveryRelevantField) {
  DiagnosticEngine diags;
  const auto base = parse_request(kPredictLine, diags);
  ASSERT_TRUE(base);
  const char* variants[] = {
      // different tile
      R"({"v":1,"kind":"predict","stencil":"Heat2D",)"
      R"("problem":{"S":[512,512],"T":64},"tile":{"tT":8,"tS1":8,"tS2":160},)"
      R"("threads":{"n1":32,"n2":4}})",
      // different problem
      R"({"v":1,"kind":"predict","stencil":"Heat2D",)"
      R"("problem":{"S":[512,512],"T":128},"tile":{"tT":6,"tS1":8,"tS2":160},)"
      R"("threads":{"n1":32,"n2":4}})",
      // different device
      R"({"v":1,"kind":"predict","device":"Titan X","stencil":"Heat2D",)"
      R"("problem":{"S":[512,512],"T":64},"tile":{"tT":6,"tS1":8,"tS2":160},)"
      R"("threads":{"n1":32,"n2":4}})",
      // no threads
      R"({"v":1,"kind":"predict","stencil":"Heat2D",)"
      R"("problem":{"S":[512,512],"T":64},"tile":{"tT":6,"tS1":8,"tS2":160}})",
  };
  for (const char* line : variants) {
    diags.clear();
    const auto other = parse_request(line, diags);
    ASSERT_TRUE(other) << line << "\n"
                       << analysis::render_human(diags.diagnostics());
    EXPECT_NE(base->canonical_key(), other->canonical_key()) << line;
  }
}

TEST(Protocol, AuditFlagParsesOnLintOnly) {
  DiagnosticEngine diags;
  const auto req = parse_request(
      R"({"v":1,"kind":"lint","stencil":"Heat2D","audit":true})", diags);
  ASSERT_TRUE(req) << analysis::render_human(diags.diagnostics());
  EXPECT_TRUE(req->audit);

  // Defaults off.
  diags.clear();
  const auto plain =
      parse_request(R"({"v":1,"kind":"lint","stencil":"Heat2D"})", diags);
  ASSERT_TRUE(plain);
  EXPECT_FALSE(plain->audit);

  // Not a lint field elsewhere: unknown-field rejection (SL405).
  diags.clear();
  EXPECT_EQ(parse_request(
                R"({"v":1,"kind":"predict","stencil":"Heat2D",)"
                R"("problem":{"S":[512,512],"T":64},)"
                R"("tile":{"tT":6,"tS1":8,"tS2":160},"audit":true})",
                diags),
            std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcBadField));
}

TEST(Protocol, AuditFlagMustBeBoolean) {
  DiagnosticEngine diags;
  EXPECT_EQ(parse_request(
                R"({"v":1,"kind":"lint","stencil":"Heat2D","audit":1})",
                diags),
            std::nullopt);
  EXPECT_TRUE(diags.has_code(Code::kSvcBadField));
}

TEST(CanonicalKey, AuditEntersTheKeyOnlyWhenEnabled) {
  DiagnosticEngine diags;
  const auto off =
      parse_request(R"({"v":1,"kind":"lint","stencil":"Heat2D"})", diags);
  const auto explicit_off = parse_request(
      R"({"v":1,"kind":"lint","stencil":"Heat2D","audit":false})", diags);
  const auto on = parse_request(
      R"({"v":1,"kind":"lint","stencil":"Heat2D","audit":true})", diags);
  ASSERT_TRUE(off && explicit_off && on)
      << analysis::render_human(diags.diagnostics());
  // Pre-audit clients' stored results must keep their keys: audit:false
  // (explicit or defaulted) is canonically absent.
  EXPECT_EQ(off->canonical_key(), explicit_off->canonical_key());
  EXPECT_EQ(off->canonical_key().find("audit"), std::string::npos);
  EXPECT_NE(on->canonical_key(), off->canonical_key());
  EXPECT_NE(on->canonical_key().find("audit"), std::string::npos);
}

TEST(CanonicalKey, BestTileKeyTracksTuningOptions) {
  DiagnosticEngine diags;
  const auto a = parse_request(
      R"({"v":1,"kind":"best_tile","stencil":"Heat2D",)"
      R"("problem":{"S":[512,512],"T":64},"delta":0.1})",
      diags);
  const auto b = parse_request(
      R"({"v":1,"kind":"best_tile","stencil":"Heat2D",)"
      R"("problem":{"S":[512,512],"T":64},"delta":0.2})",
      diags);
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->canonical_key(), b->canonical_key());
}

// --- Rendering --------------------------------------------------------

TEST(Render, ResultSplicesPayloadVerbatim) {
  const std::string payload = R"({"feasible":true,"talg":0.25})";
  EXPECT_EQ(render_result("r1", RequestKind::kPredict, payload),
            R"({"v":1,"id":"r1","ok":true,"kind":"predict","result":)" +
                payload + "}");
}

TEST(Render, ErrorCarriesFirstErrorCodeAndAllDiagnostics) {
  analysis::DiagnosticEngine diags;
  diags.warn(Code::kSvcBadField, "just a warning");
  diags.error(Code::kSvcMissingField, "'problem' is required");
  diags.error(Code::kSvcBadField, "second \"error\"", 3);
  std::vector<analysis::Diagnostic> all = diags.diagnostics();
  all.back().hint = "drop the field";
  const std::string out = render_error("r2", all);
  // The envelope names the first error; the diagnostics array holds
  // every diagnostic in order, with a "hint" only where one is set.
  EXPECT_EQ(out,
            R"({"v":1,"id":"r2","ok":false,)"
            R"("error":{"code":"SL404","message":"'problem' is required"},)"
            R"("diagnostics":[)"
            R"({"severity":"warning","code":"SL405","line":0,)"
            R"("message":"just a warning"},)"
            R"({"severity":"error","code":"SL404","line":0,)"
            R"("message":"'problem' is required"},)"
            R"({"severity":"error","code":"SL405","line":3,)"
            R"("message":"second \"error\"","hint":"drop the field"}]})");
  // The envelope itself is valid JSON.
  EXPECT_TRUE(json::parse(out).has_value());
}

}  // namespace
}  // namespace repro::service
