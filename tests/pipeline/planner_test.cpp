#include "pipeline/planner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "device/registry.hpp"
#include "pipeline/pipeline.hpp"

namespace repro::pipeline {
namespace {

// Small enumeration caps keep every sweep in test-friendly territory
// (the same caps the service tests use).
PlanOptions test_options() {
  PlanOptions opt;
  opt.enumeration =
      tuner::EnumOptions{}.with_tT_max(8).with_tS1_max(12).with_tS2_max(192);
  opt.session = tuner::SessionOptions{}.with_jobs(1);
  return opt;
}

Pipeline parse(const std::string& text) {
  analysis::DiagnosticEngine diags;
  auto p = parse_pipeline_text(text, diags);
  EXPECT_TRUE(p) << analysis::render_human(diags.diagnostics());
  return *p;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The shipped 3-level V-cycle (11 stages, 8 distinct tasks).
Pipeline vcycle3() {
  return parse(read_file(std::filesystem::path(REPRO_SOURCE_DIR) /
                         "examples" / "pipelines" / "vcycle3.json"));
}

const device::Descriptor& gtx980() {
  const device::Descriptor* d = device::registry().find("GTX 980");
  EXPECT_NE(d, nullptr);
  return *d;
}

// Stage `i` of `p` as a one-stage pipeline of its own.
Pipeline stage_alone(const Pipeline& p, std::size_t i) {
  Pipeline one;
  one.name = "one";
  one.stages = {p.stages[i]};
  one.stages[0].after.clear();
  return one;
}

// Fresh pricings: simulator measurements that actually ran (the
// memo absorbed the rest).
std::size_t fresh_pricings(const PipelinePlan& plan) {
  return plan.stats.machine_points - plan.stats.cache_hits;
}

constexpr const char* kSingle =
    R"({"pipeline_version":1,"name":"one","stages":[
         {"id":"a","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4}}]})";

constexpr const char* kRepeated =
    R"({"pipeline_version":1,"name":"two","stages":[
         {"id":"a","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4}},
         {"id":"b","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},
          "after":["a"]}]})";

TEST(Planner, AggregatesRepeatIntoEndToEndTalg) {
  const Pipeline p = parse(
      R"({"pipeline_version":1,"name":"rep","stages":[
           {"id":"a","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},
            "repeat":3}]})");
  Planner planner(gtx980(), test_options());
  const PipelinePlan plan = planner.plan(p);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.total_stages, 1u);
  EXPECT_EQ(plan.stage_executions, 3);
  EXPECT_EQ(plan.distinct_tasks, 1u);
  EXPECT_DOUBLE_EQ(plan.talg, 3.0 * plan.stages[0].best.talg);
  EXPECT_DOUBLE_EQ(plan.texec, 3.0 * plan.stages[0].best.texec);
  EXPECT_DOUBLE_EQ(plan.stages[0].talg_total, plan.talg);
}

// Satellite pin: a repeated stage costs ZERO additional pricings: the
// second copy never touches a session.
TEST(Planner, RepeatedStageCostsZeroAdditionalPricings) {
  const Pipeline one = parse(kSingle);
  const Pipeline two = parse(kRepeated);

  Planner base(gtx980(), test_options());
  const PipelinePlan ref = base.plan(one);
  ASSERT_TRUE(ref.feasible);
  const std::size_t single_cost = fresh_pricings(ref);
  ASSERT_GT(single_cost, 0u);

  // The duplicate is copied, not recomputed.
  Planner dedup(gtx980(), test_options());
  const PipelinePlan d = dedup.plan(two);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.distinct_tasks, 1u);
  EXPECT_FALSE(d.stages[0].reused);
  EXPECT_TRUE(d.stages[1].reused);
  EXPECT_EQ(fresh_pricings(d), single_cost);
  EXPECT_EQ(d.stages[1].best, d.stages[0].best);
  EXPECT_EQ(d.stages[0].best.dp.ts, ref.stages[0].best.dp.ts);
}

// The reuse stack on the shipped 3-level V-cycle (11 stages, 8
// distinct tasks). In-plan copies and a StageCache save pricings and
// change no byte; no stage's sweep is seeded.
TEST(Planner, VcycleReuseStackSavesPricingsIdentically) {
  const Pipeline p = vcycle3();

  StageCache cache;
  const PipelinePlan cold =
      Planner(gtx980(), test_options(), nullptr, &cache).plan(p);
  ASSERT_TRUE(cold.feasible);
  EXPECT_LT(cold.distinct_tasks, cold.total_stages);
  EXPECT_EQ(cold.stats.seeds_offered, 0u);
  EXPECT_GT(fresh_pricings(cold), 0u);
  std::size_t copies = 0;
  for (const StageResult& r : cold.stages) copies += r.reused ? 1 : 0;
  EXPECT_EQ(copies, cold.total_stages - cold.distinct_tasks);

  // A second plan is served whole from the cache: no Session, no
  // pricing, the same bytes.
  const PipelinePlan served =
      Planner(gtx980(), test_options(), nullptr, &cache).plan(p);
  EXPECT_EQ(render_plan(served), render_plan(cold));
  EXPECT_EQ(served.stats.machine_points, 0u);
  EXPECT_EQ(served.distinct_tasks, cold.distinct_tasks);
}

// A stage's work depends on its stage key alone: over the shipped
// V-cycle at the default enumeration, a plan's fresh pricings and
// pruned points are the sums over one-stage plans of its distinct
// stages, whatever the stages tuned before them.
TEST(Planner, PlanWorkIsTheSumOfItsDistinctStagesTunedAlone) {
  const Pipeline p = vcycle3();
  PlanOptions opt;
  opt.session = tuner::SessionOptions{}.with_jobs(1);
  const PipelinePlan plan = Planner(gtx980(), opt).plan(p);
  ASSERT_TRUE(plan.feasible);

  std::size_t fresh = 0;
  std::size_t pruned = 0;
  std::size_t tuned = 0;
  for (std::size_t i = 0; i < p.stages.size(); ++i) {
    if (plan.stages[i].reused) continue;
    const PipelinePlan alone = Planner(gtx980(), opt).plan(stage_alone(p, i));
    EXPECT_EQ(plan.stages[i].best, alone.stages[0].best) << p.stages[i].id;
    fresh += fresh_pricings(alone);
    pruned += alone.stats.points_pruned;
    ++tuned;
  }
  EXPECT_EQ(tuned, plan.distinct_tasks);
  EXPECT_EQ(fresh_pricings(plan), fresh);
  EXPECT_EQ(plan.stats.points_pruned, pruned);
}

TEST(Planner, SharedCalibrationAcrossProblemSizes) {
  // Two problems of one stencil share a calibration; the plan still
  // tunes two distinct tasks and stays deterministic across runs.
  const Pipeline p = parse(
      R"({"pipeline_version":1,"name":"cal","stages":[
           {"id":"a","stencil":"Heat2D","problem":{"S":[256,256],"T":4}},
           {"id":"b","stencil":"Heat2D","problem":{"S":[128,128],"T":4},
            "after":["a"]}]})");
  Planner p1(gtx980(), test_options());
  Planner p2(gtx980(), test_options());
  const PipelinePlan a = p1.plan(p);
  const PipelinePlan b = p2.plan(p);
  EXPECT_EQ(a.distinct_tasks, 2u);
  EXPECT_EQ(render_plan(a), render_plan(b));
}

TEST(Planner, PinnedVariantIsHonored) {
  const Pipeline p = parse(
      R"({"pipeline_version":1,"name":"var","stages":[
           {"id":"a","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},
            "variant":{"unroll":2,"staging":"register"}}]})");
  Planner planner(gtx980(), test_options());
  const PipelinePlan plan = planner.plan(p);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.stages[0].best.dp.var.unroll, 2);
  EXPECT_EQ(plan.stages[0].best.dp.var.staging, stencil::Staging::kRegister);
}

// Two stages of one (stencil, problem) pinned to different variants
// are two stage keys, each tuned on its own Session; a third stage
// repeating the first is copied.
constexpr const char* kPinnedVariants =
    R"({"pipeline_version":1,"name":"pins","stages":[
         {"id":"reg","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},
          "variant":{"unroll":2,"staging":"register"}},
         {"id":"u4","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4},
          "variant":{"unroll":4},"after":["reg"]},
         {"id":"reg_again","stencil":"Jacobi2D",
          "problem":{"S":[256,256],"T":4},
          "variant":{"unroll":2,"staging":"register"},"after":["u4"]}]})";

TEST(Planner, PinnedVariantsOfOneProblemAreTunedApart) {
  const Pipeline p = parse(kPinnedVariants);
  const PipelinePlan plan = Planner(gtx980(), test_options()).plan(p);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.distinct_tasks, 2u);
  EXPECT_FALSE(plan.stages[0].reused);
  EXPECT_FALSE(plan.stages[1].reused);
  EXPECT_TRUE(plan.stages[2].reused);
  EXPECT_EQ(plan.stages[0].best.dp.var.unroll, 2);
  EXPECT_EQ(plan.stages[1].best.dp.var.unroll, 4);
  EXPECT_EQ(plan.stages[2].best, plan.stages[0].best);

  // Each stage's answer is the one a one-stage plan of it gives.
  for (std::size_t i = 0; i < p.stages.size(); ++i) {
    const PipelinePlan alone =
        Planner(gtx980(), test_options()).plan(stage_alone(p, i));
    EXPECT_EQ(plan.stages[i].best, alone.stages[0].best) << p.stages[i].id;
    EXPECT_EQ(plan.stages[i].space_size, alone.stages[0].space_size);
    EXPECT_EQ(plan.stages[i].candidates_tried,
              alone.stages[0].candidates_tried);
  }

  // A StageCache changes no byte: cold, it tunes the two keys; a
  // second plan is served from it.
  StageCache cache;
  const std::string want = render_plan(plan);
  // The tree adapter the benchmark replay reads dumps the same bytes.
  EXPECT_EQ(plan_to_json(plan).dump(), want);
  for (int pass = 0; pass < 2; ++pass) {
    const PipelinePlan cached =
        Planner(gtx980(), test_options(), nullptr, &cache).plan(p);
    EXPECT_EQ(render_plan(cached), want) << "pass " << pass;
  }
  const StageCache::Counters c = cache.counters();
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.entries, 2u);
}

// One tile space per (dim, radius): the V-cycle's 11 stages (8 tuned
// tasks, three stencils) are all 2D radius-1, so the plan enumerates
// once; a radius-2 stage adds one more, a 1D stage another.
TEST(Planner, EnumeratesOncePerDimAndRadius) {
  const Pipeline vcycle = vcycle3();
  const PipelinePlan plan = Planner(gtx980(), test_options()).plan(vcycle);
  EXPECT_EQ(plan.distinct_tasks, 8u);
  EXPECT_EQ(plan.spaces_enumerated, 1u);
  for (const StageResult& r : plan.stages) {
    EXPECT_EQ(r.space_size, plan.stages.front().space_size) << r.id;
  }

  const Pipeline mixed = parse(
      R"({"pipeline_version":1,"name":"mixed","stages":[
           {"id":"a","stencil":"Jacobi2D","problem":{"S":[256,256],"T":4}},
           {"id":"b","stencil":"WideStar2D","problem":{"S":[256,256],"T":4},
            "after":["a"]},
           {"id":"c","stencil":"Heat2D","problem":{"S":[128,128],"T":4},
            "after":["b"]},
           {"id":"d","stencil":"Jacobi1D","problem":{"S":[4096],"T":8},
            "after":["c"]},
           {"id":"e","stencil":"Gauss1D","problem":{"S":[4096],"T":8},
            "after":["d"]},
           {"id":"f","stencil":"WideStar2D","problem":{"S":[512,512],"T":4},
            "after":["e"]}]})");
  const PipelinePlan m = Planner(gtx980(), test_options()).plan(mixed);
  EXPECT_EQ(m.distinct_tasks, 6u);
  EXPECT_EQ(m.spaces_enumerated, 4u);
  // Sharing a space changes nothing a stage reports: each stage's
  // space is the one its own (dim, radius) enumerates.
  for (std::size_t i = 0; i < mixed.stages.size(); ++i) {
    const Stage& st = mixed.stages[i];
    EXPECT_EQ(m.stages[i].space_size,
              tuner::enumerate_feasible(st.problem.dim,
                                        gtx980().to_model_hardware(),
                                        test_options().enumeration,
                                        st.def.radius)
                  .size())
        << st.id;
  }
}

// The shipped example pipelines plan to the committed payload bytes
// (tests/golden/payloads/, computed before the tile space was shared
// across stages) on both GPUs, with the service's plan options.
TEST(Planner, ExamplePipelinesMatchGoldenPayloads) {
  const std::filesystem::path root(REPRO_SOURCE_DIR);
  std::ifstream golden(root / "tests" / "golden" / "payloads" /
                       "pipeline_responses.jsonl");
  ASSERT_TRUE(golden.is_open());
  std::vector<std::string> responses;
  for (std::string line; std::getline(golden, line);) {
    responses.push_back(line);
  }
  std::size_t checked = 0;
  for (const char* name : {"vcycle3", "substep2"}) {
    const Pipeline p = parse(read_file(root / "examples" / "pipelines" /
                                       (std::string(name) + ".json")));
    for (const char* dev : {"GTX 980", "Titan X"}) {
      const std::string id =
          std::string(name) + (dev[0] == 'G' ? "-gtx980" : "-titanx");
      const std::string prefix = "{\"v\":1,\"id\":\"" + id + "\",";
      PlanOptions opt;
      opt.session = tuner::SessionOptions{}.with_jobs(1);
      const PipelinePlan plan =
          Planner(*device::registry().find(dev), opt).plan(p);
      const std::string want = prefix +
                               "\"ok\":true,\"kind\":\"pipeline\","
                               "\"result\":" +
                               render_plan(plan) + "}";
      bool found = false;
      for (const std::string& line : responses) {
        if (line.rfind(prefix, 0) != 0) continue;
        found = true;
        EXPECT_EQ(line, want) << id;
        ++checked;
      }
      EXPECT_TRUE(found) << id;
      EXPECT_EQ(plan.spaces_enumerated, 1u) << id;
    }
  }
  EXPECT_EQ(checked, 4u);
}

TEST(Planner, CyclicPipelineThrows) {
  // Hand-built (parse_pipeline would reject it): plan() refuses.
  Pipeline p;
  Stage a;
  a.id = "a";
  a.stencil_name = "Jacobi2D";
  a.after = {"b"};
  Stage b;
  b.id = "b";
  b.stencil_name = "Jacobi2D";
  b.after = {"a"};
  p.stages = {a, b};
  Planner planner(gtx980(), test_options());
  EXPECT_THROW(planner.plan(p), std::invalid_argument);
}

}  // namespace
}  // namespace repro::pipeline
