#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "device/registry.hpp"
#include "service/core.hpp"
#include "service/protocol.hpp"
#include "support/temp_dir.hpp"
#include "tuner/session.hpp"

namespace repro::service {
namespace {

namespace fs = std::filesystem;

// The request every test serves: a two-level descent with one
// duplicated stage, under small enumeration caps.
constexpr const char* kPipelineReq =
    R"({"v":1,"id":"pl1","kind":"pipeline",)"
    R"("pipeline":{"pipeline_version":1,"name":"svc","stages":[)"
    R"({"id":"fine","stencil":"Jacobi2D","problem":{"S":[512,512],"T":4}},)"
    R"({"id":"coarse","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},)"
    R"("after":["fine"]},)"
    R"({"id":"fine_up","stencil":"Jacobi2D","problem":{"S":[512,512],"T":4},)"
    R"("after":["coarse"]}]},)"
    R"("enum":{"tT_max":8,"tS1_max":12,"tS2_max":192}})";

class ServicePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_dir_ = test::unique_temp_dir("repro_pipeline_svc_store");
  }
  void TearDown() override { fs::remove_all(store_dir_); }

  fs::path store_dir_;
};

// The service determinism contract extends to the pipeline kind: a
// cold computation, a warm-store replay from a brand-new core, and a
// direct compute_payload call all serve byte-identical responses.
TEST_F(ServicePipelineTest, ColdWarmAndDirectAreByteIdentical) {
  std::string cold;
  {
    ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
    cold = core.handle(kPipelineReq);
    const ServiceStats s = core.stats();
    EXPECT_EQ(s.computed, 1u);
    EXPECT_EQ(s.pipeline, 1u);
    EXPECT_EQ(s.errors, 0u);
  }
  EXPECT_NE(cold.find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(cold.find(R"("distinct_tasks":2)"), std::string::npos) << cold;
  EXPECT_NE(cold.find(R"("reused":true)"), std::string::npos);

  {
    ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
    EXPECT_EQ(core.handle(kPipelineReq), cold);
    const ServiceStats s = core.stats();
    EXPECT_EQ(s.computed, 0u);
    EXPECT_EQ(s.store_hits, 1u);
    EXPECT_EQ(s.pipeline, 1u);
  }

  analysis::DiagnosticEngine diags;
  const auto req = parse_request(kPipelineReq, diags);
  ASSERT_TRUE(req) << analysis::render_human(diags.diagnostics());
  EXPECT_EQ(render_result(req->id, req->kind, compute_payload(*req, nullptr)),
            cold);
}

TEST_F(ServicePipelineTest, TwoSpellingsShareOneCanonicalKey) {
  // Same DAG, members shuffled and defaults spelled out: the
  // canonical key embeds the normalized pipeline form, so both
  // spellings hit one store entry.
  const std::string variant_spelling =
      R"({"kind":"pipeline","v":1,"id":"other",)"
      R"("enum":{"tS2_max":192,"tT_max":8,"tS1_max":12},)"
      R"("pipeline":{"name":"svc","pipeline_version":1,"stages":[)"
      R"({"id":"fine","stencil":"Jacobi2D","repeat":1,"after":[],)"
      R"("problem":{"T":4,"S":[512,512]}},)"
      R"({"id":"coarse","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},)"
      R"("after":["fine"]},)"
      R"({"id":"fine_up","stencil":"Jacobi2D","problem":{"S":[512,512],"T":4},)"
      R"("after":["coarse"]}]}})";

  analysis::DiagnosticEngine diags;
  const auto a = parse_request(kPipelineReq, diags);
  const auto b = parse_request(variant_spelling, diags);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(a->canonical_key(), b->canonical_key());

  ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
  (void)core.handle(kPipelineReq);
  (void)core.handle(variant_spelling);
  const ServiceStats s = core.stats();
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.store_hits, 1u);
}

TEST_F(ServicePipelineTest, KeyWhitelistRejectsForeignFields) {
  // predict/best_tile fields are not pipeline fields.
  ServiceCore core{ServiceOptions{}};
  const std::string out = core.handle(
      R"({"v":1,"id":"bad","kind":"pipeline",)"
      R"("pipeline":{"pipeline_version":1,"stages":[)"
      R"({"id":"a","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4}}]},)"
      R"("tile":{"tT":4,"tS1":8,"tS2":64}})");
  EXPECT_NE(out.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(out.find("SL405"), std::string::npos);
}

TEST_F(ServicePipelineTest, MalformedPipelineReportsSL6xx) {
  ServiceCore core{ServiceOptions{}};
  const std::string cyclic = core.handle(
      R"({"v":1,"id":"c","kind":"pipeline",)"
      R"("pipeline":{"pipeline_version":1,"stages":[)"
      R"({"id":"a","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},)"
      R"("after":["b"]},)"
      R"({"id":"b","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},)"
      R"("after":["a"]}]}})");
  EXPECT_NE(cyclic.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(cyclic.find("SL604"), std::string::npos);

  const std::string missing = core.handle(
      R"({"v":1,"id":"m","kind":"pipeline"})");
  EXPECT_NE(missing.find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(missing.find("SL404"), std::string::npos);
}

// Satellite pin: the stats request reports per-kind counters,
// including the pipeline kind.
TEST_F(ServicePipelineTest, StatsRequestReportsPerKindCounters) {
  ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
  (void)core.handle(kPipelineReq);
  (void)core.handle(
      R"({"v":1,"id":"l1","kind":"lint","stencil":"Heat2D",)"
      R"("tile":{"tT":2,"tS1":4,"tS2":32}})");
  const std::string out =
      core.handle(R"({"v":1,"id":"s1","kind":"stats"})");
  EXPECT_NE(out.find(R"("ok":true)"), std::string::npos);
  const auto doc = json::parse(out);
  ASSERT_TRUE(doc && doc->is_object()) << out;
  const json::Value* kinds = doc->find("result")->find("kinds");
  ASSERT_NE(kinds, nullptr);
  EXPECT_EQ(kinds->find("pipeline")->as_int(), 1);
  EXPECT_EQ(kinds->find("lint")->as_int(), 1);
}

// The corpus pin: both shipped example pipelines parse cleanly and
// plan end to end through the service (exercised under tiny caps).
TEST_F(ServicePipelineTest, ExamplePipelinesServeFeasiblePlans) {
  const fs::path root = fs::path(REPRO_SOURCE_DIR) / "examples" / "pipelines";
  const struct {
    const char* file;
    std::size_t total;
    std::size_t distinct;
  } cases[] = {{"vcycle3.json", 11, 8}, {"substep2.json", 2, 2}};

  ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
  for (const auto& c : cases) {
    std::ifstream in(root / c.file);
    ASSERT_TRUE(in.is_open()) << (root / c.file);
    std::stringstream ss;
    ss << in.rdbuf();

    json::Value req = json::Value::object();
    req.set("v", kProtocolVersion);
    req.set("id", std::string(c.file));
    req.set("kind", std::string("pipeline"));
    const auto pl = json::parse(ss.str());
    ASSERT_TRUE(pl) << c.file;
    req.set("pipeline", *pl);
    const auto caps =
        json::parse(R"({"tT_max":8,"tS1_max":12,"tS2_max":192})");
    req.set("enum", *caps);

    const std::string out = core.handle(req.dump());
    EXPECT_NE(out.find(R"("ok":true)"), std::string::npos) << out;
    const auto doc = json::parse(out);
    ASSERT_TRUE(doc && doc->is_object()) << out;
    const json::Value* r = doc->find("result");
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->find("feasible")->as_bool()) << c.file;
    EXPECT_EQ(r->find("total_stages")->as_int(),
              static_cast<std::int64_t>(c.total));
    EXPECT_EQ(r->find("distinct_tasks")->as_int(),
              static_cast<std::int64_t>(c.distinct));
  }
}

// The `tuned once` answer to one request line: a fresh, calibrating
// Session and a pipeline planner with its own calibrations.
std::string once(const std::string& line) {
  analysis::DiagnosticEngine diags;
  const auto req = parse_request(line, diags);
  EXPECT_TRUE(req) << analysis::render_human(diags.diagnostics());
  std::unique_ptr<tuner::Session> session;
  if (needs_session(*req)) {
    session = std::make_unique<tuner::Session>(
        *device::registry().find(req->device), req->def, *req->problem,
        tuner::SessionOptions{}.with_jobs(1));
  }
  return render_result(req->id, req->kind,
                       compute_payload(*req, session.get()));
}

// best_tile, compare_strategies and pipeline requests on one (device,
// stencil) share one calibration per ServiceCore; a DSL program named
// like the catalogue stencil gets its own. Every answer is the one
// `tuned once` gives.
TEST(ServiceCalibration, OnePerDeviceAndStencilAcrossRequestKinds) {
  const std::string best_tile =
      R"({"v":1,"id":"b","kind":"best_tile","stencil":"Jacobi2D",)"
      R"("problem":{"S":[384,384],"T":4},)"
      R"("enum":{"tT_max":8,"tS1_max":12,"tS2_max":192}})";
  const std::string compare =
      R"({"v":1,"id":"c","kind":"compare_strategies","stencil":"Jacobi2D",)"
      R"("problem":{"S":[320,320],"T":8},)"
      R"("enum":{"tT_max":8,"tS1_max":12,"tS2_max":192},)"
      R"("exhaustive_cap":40,"baseline_count":10})";
  const std::string dsl =
      R"({"v":1,"id":"d","kind":"best_tile","text":)"
      R"("stencil Jacobi2D {\n dim 2\n tap (0,0) 0.2\n tap (1,0) 0.2\n)"
      R"( tap (-1,0) 0.2\n tap (0,1) 0.2\n tap (0,-1) 0.2\n}\n",)"
      R"("problem":{"S":[384,384],"T":4},)"
      R"("enum":{"tT_max":8,"tS1_max":12,"tS2_max":192}})";

  ServiceCore core(ServiceOptions{}.with_workers(1));
  for (const std::string& line : {best_tile, compare,
                                  std::string(kPipelineReq), dsl}) {
    const std::string served = core.handle(line);
    EXPECT_NE(served.find(R"("ok":true)"), std::string::npos) << served;
    EXPECT_EQ(served, once(line)) << line;
  }
  const ServiceStats s = core.stats();
  EXPECT_EQ(s.computed, 4u);
  // Jacobi2D by name once, the DSL program once; the compare session
  // and the pipeline's two problem sizes reuse the first calibration.
  EXPECT_EQ(s.calibration_misses, 2u);
  EXPECT_EQ(s.calibration_entries, 2u);
  EXPECT_EQ(s.calibration_hits, 3u);
  EXPECT_EQ(s.calibration_evictions, 0u);
}

// Two stages of one (stencil, problem) pinned to different variants,
// then a repeat of the first: two stage keys, one copy.
constexpr const char* kPinnedReq =
    R"({"v":1,"id":"pins","kind":"pipeline",)"
    R"("pipeline":{"pipeline_version":1,"name":"pins","stages":[)"
    R"({"id":"reg","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},)"
    R"("variant":{"unroll":2,"staging":"register"}},)"
    R"({"id":"u4","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},)"
    R"("variant":{"unroll":4},"after":["reg"]},)"
    R"({"id":"reg_again","stencil":"Jacobi2D",)"
    R"("problem":{"S":[256,256],"T":4},)"
    R"("variant":{"unroll":2,"staging":"register"},"after":["u4"]}]},)"
    R"("enum":{"tT_max":8,"tS1_max":12,"tS2_max":192}})";

// The pinned-variant plan served cold, from the stage cache and from
// the store reads as `tuned once`, and each stage's best is the one a
// one-stage request for it gets.
TEST_F(ServicePipelineTest, PinnedVariantsOfOneProblemServeTheOnceBytes) {
  const std::string want = once(kPinnedReq);
  {
    ServiceCore core(ServiceOptions{}.with_workers(1));
    EXPECT_EQ(core.handle(kPinnedReq), want);
    EXPECT_EQ(core.handle(kPinnedReq), want);
    const ServiceStats s = core.stats();
    EXPECT_EQ(s.computed, 2u);
    EXPECT_EQ(s.stage_cache_misses, 2u);
    EXPECT_EQ(s.stage_cache_hits, 2u);
  }
  {
    ServiceCore core(ServiceOptions{}.with_store_dir(store_dir_.string()));
    EXPECT_EQ(core.handle(kPinnedReq), want);
    EXPECT_EQ(core.handle(kPinnedReq), want);
    EXPECT_EQ(core.stats().store_hits, 1u);
  }

  const auto doc = json::parse(want);
  ASSERT_TRUE(doc && doc->is_object()) << want;
  const json::Value* r = doc->find("result");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->find("distinct_tasks")->as_int(), 2);
  const json::Value* stages = r->find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->size(), 3u);
  const char* const variants[] = {R"({"unroll":2,"staging":"register"})",
                                  R"({"unroll":4})",
                                  R"({"unroll":2,"staging":"register"})"};
  for (std::size_t i = 0; i < 3; ++i) {
    const json::Value& st = stages->items()[i];
    EXPECT_EQ(st.find("reused")->as_bool(), i == 2) << i;
    const std::string alone =
        std::string(R"({"v":1,"id":"one","kind":"pipeline",)"
                    R"("pipeline":{"pipeline_version":1,"name":"one",)"
                    R"("stages":[{"id":"s","stencil":"Jacobi2D",)"
                    R"("problem":{"S":[256,256],"T":4},"variant":)") +
        variants[i] +
        R"(}]},"enum":{"tT_max":8,"tS1_max":12,"tS2_max":192}})";
    const auto one = json::parse(once(alone));
    ASSERT_TRUE(one && one->is_object());
    const json::Value& only = one->find("result")->find("stages")->items()[0];
    EXPECT_EQ(st.find("best")->dump(), only.find("best")->dump()) << i;
  }
}

// A second pipeline that shares the "coarse" stage (and its 512^2
// smoother) with kPipelineReq and adds one stage of its own.
constexpr const char* kSharingReq =
    R"({"v":1,"id":"pl2","kind":"pipeline",)"
    R"("pipeline":{"pipeline_version":1,"name":"svc2","stages":[)"
    R"({"id":"coarse","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4}},)"
    R"({"id":"coarser","stencil":"Jacobi2D","problem":{"S":[128,128],"T":4},)"
    R"("after":["coarse"]},)"
    R"({"id":"fine","stencil":"Jacobi2D","problem":{"S":[512,512],"T":4},)"
    R"("after":["coarser"]}]},)"
    R"("enum":{"tT_max":8,"tS1_max":12,"tS2_max":192}})";

// One service tunes each distinct stage once across pipeline requests
// and serves the same bytes as `tuned once` (and so `tuned pipeline`,
// which computes the same request line): cold, on a stage-cache hit
// inside a different pipeline, and again for the first pipeline, at
// one and at four session jobs. Pipeline planning now shows in the
// session counters.
TEST(ServiceStageCache, HitsInOtherPipelinesServeTheOnceBytes) {
  const std::vector<std::string> lines = {kPipelineReq, kSharingReq,
                                          kPipelineReq};
  std::vector<std::string> served_j1;
  for (const int jobs : {1, 4}) {
    ServiceCore core(
        ServiceOptions{}.with_workers(1).with_session_jobs(jobs));
    std::vector<std::string> served;
    for (const std::string& line : lines) {
      served.push_back(core.handle(line));
      EXPECT_EQ(served.back(), once(line)) << "jobs " << jobs;
    }
    const ServiceStats s = core.stats();
    EXPECT_EQ(s.computed, 3u);
    // pl1 tunes fine and coarse; pl2 adds coarser and hits the other
    // two; pl1 again hits both.
    EXPECT_EQ(s.stage_cache_misses, 3u);
    EXPECT_EQ(s.stage_cache_hits, 4u);
    EXPECT_EQ(s.stage_cache_entries, 3u);
    EXPECT_EQ(s.stage_cache_evictions, 0u);
    EXPECT_GT(s.session_machine_points, 0u);
    EXPECT_GT(s.session_points_pruned, 0u);
    if (jobs == 1) {
      served_j1 = served;
    } else {
      EXPECT_EQ(served, served_j1);
    }
  }
}

// A stage evicted from a one-entry cache is retuned to the same bytes.
TEST(ServiceStageCache, EvictedStagesAreRetunedIdentically) {
  tuner::CalibrationCache calibrations;
  pipeline::StageCache stages(1);
  tuner::SweepStats stats;
  for (const std::string line : {kPipelineReq, kSharingReq, kPipelineReq}) {
    analysis::DiagnosticEngine diags;
    const auto req = parse_request(line, diags);
    ASSERT_TRUE(req) << analysis::render_human(diags.diagnostics());
    const PlanShared shared{&calibrations, &stages, &stats, {}};
    EXPECT_EQ(render_result(req->id, req->kind,
                            compute_payload(*req, nullptr, {}, shared)),
              once(line));
  }
  // Planned in topological order, each stage evicting the one before:
  // pl1 tunes 512 and 256; pl2 hits 256, tunes 128 and 512 again; pl1
  // hits 512 and retunes 256.
  const pipeline::StageCache::Counters c = stages.counters();
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 5u);
  EXPECT_EQ(c.evictions, 4u);
  EXPECT_GT(stats.machine_points, 0u);
}

}  // namespace
}  // namespace repro::service
