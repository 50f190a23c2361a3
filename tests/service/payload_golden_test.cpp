// Byte identity against committed payloads. tests/golden/payloads/
// holds request lines and the response lines `tuned once` printed for
// them: the example V-cycle and sub-step pipelines and 2- to 4-level
// V-cycles over the default tile space on both GPUs, predict,
// best_tile and compare_strategies on GPU and CPU descriptors, and lint
// on catalogue and DSL stencils with and without the audit. Each
// request is recomputed the way `tuned once` computes it (one job,
// compute_payload, render_result) and must match its line byte for
// byte, so a rewrite of the model, the enumerator or the planner
// cannot move a result unnoticed. CI runs the same files through the
// tuned binary and `cmp`s them.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "device/registry.hpp"
#include "service/core.hpp"
#include "service/protocol.hpp"

namespace repro::service {
namespace {

std::vector<std::string> read_lines(const std::string& name) {
  std::ifstream in(std::filesystem::path(REPRO_SOURCE_DIR) / "tests" /
                   "golden" / "payloads" / name);
  EXPECT_TRUE(in.is_open()) << name;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string respond(const std::string& line) {
  analysis::DiagnosticEngine diags;
  const std::optional<Request> req = parse_request(line, diags);
  if (!req) return "parse error";
  std::unique_ptr<tuner::Session> session;
  if (needs_session(*req)) {
    session = std::make_unique<tuner::Session>(
        *device::registry().find(req->device), req->def, *req->problem,
        tuner::SessionOptions{}.with_jobs(1));
  }
  return render_result(req->id, req->kind,
                       compute_payload(*req, session.get()));
}

class PayloadGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(PayloadGolden, ResponsesMatchCommittedBytes) {
  const std::string set = GetParam();
  const std::vector<std::string> requests = read_lines(set + "_requests.jsonl");
  const std::vector<std::string> responses =
      read_lines(set + "_responses.jsonl");
  ASSERT_FALSE(requests.empty());
  ASSERT_EQ(requests.size(), responses.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(respond(requests[i]), responses[i]) << set << " line " << i + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(Sets, PayloadGolden,
                         ::testing::Values("pipeline", "service"));

}  // namespace
}  // namespace repro::service
