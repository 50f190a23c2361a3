#include "gpusim/calibration_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "gpusim/microbench.hpp"

namespace repro::gpusim {
namespace {

// ctest runs each case as its own process, concurrently under -j, so
// the file name carries the process id: no two live cases share it.
std::string temp_path() {
  return (std::filesystem::temp_directory_path() /
          ("repro_calibration_test_" + std::to_string(::getpid()) + ".txt"))
      .string();
}

TEST(CalibrationIo, RoundTripsExactly) {
  const model::ModelInputs in = calibrate_model(
      titan_x(), stencil::get_stencil(stencil::StencilKind::kGradient2D));
  save_calibration(temp_path(), in);
  const model::ModelInputs out = load_calibration(temp_path());
  EXPECT_EQ(out.hw.name, in.hw.name);
  EXPECT_EQ(out.hw.n_sm, in.hw.n_sm);
  EXPECT_EQ(out.hw.n_v, in.hw.n_v);
  EXPECT_EQ(out.hw.regs_per_sm, in.hw.regs_per_sm);
  EXPECT_EQ(out.hw.shared_words_per_sm, in.hw.shared_words_per_sm);
  EXPECT_EQ(out.hw.max_shared_words_per_block,
            in.hw.max_shared_words_per_block);
  EXPECT_EQ(out.hw.max_tb_per_sm, in.hw.max_tb_per_sm);
  // max_digits10 serialization => bit-exact doubles.
  EXPECT_EQ(out.mb.L_s_per_word, in.mb.L_s_per_word);
  EXPECT_EQ(out.mb.tau_sync, in.mb.tau_sync);
  EXPECT_EQ(out.mb.T_sync, in.mb.T_sync);
  EXPECT_EQ(out.c_iter, in.c_iter);
  EXPECT_EQ(out.radius, in.radius);
  std::remove(temp_path().c_str());
}

TEST(CalibrationIo, PreservesRadius2) {
  const model::ModelInputs in = calibrate_model(
      gtx980(), stencil::get_stencil(stencil::StencilKind::kWideStar2D));
  ASSERT_EQ(in.radius, 2);
  save_calibration(temp_path(), in);
  EXPECT_EQ(load_calibration(temp_path()).radius, 2);
  std::remove(temp_path().c_str());
}

TEST(CalibrationIo, MissingFileThrows) {
  EXPECT_THROW(load_calibration("/nonexistent/cal.txt"), std::runtime_error);
  EXPECT_THROW(save_calibration("/nonexistent-dir/cal.txt",
                                model::ModelInputs{}),
               std::runtime_error);
}

TEST(CalibrationIo, MissingKeyThrows) {
  {
    std::ofstream out(temp_path());
    out << "version 1\nhw.name X\n";
  }
  EXPECT_THROW(load_calibration(temp_path()), std::runtime_error);
  std::remove(temp_path().c_str());
}

TEST(CalibrationIo, VersionMismatchThrows) {
  const model::ModelInputs in = calibrate_model(
      gtx980(), stencil::get_stencil(stencil::StencilKind::kHeat2D));
  save_calibration(temp_path(), in);
  // Corrupt the version line.
  std::string contents;
  {
    std::ifstream f(temp_path());
    std::getline(f, contents);  // "version 1"
    std::string rest((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(temp_path());
    out << "version 999\n" << rest;
  }
  EXPECT_THROW(load_calibration(temp_path()), std::runtime_error);
  std::remove(temp_path().c_str());
}

TEST(CalibrationIo, MalformedLineThrows) {
  {
    std::ofstream out(temp_path());
    out << "version1\n";  // no space separator
  }
  EXPECT_THROW(load_calibration(temp_path()), std::runtime_error);
  std::remove(temp_path().c_str());
}

TEST(CalibrationIo, CommentsAndBlankLinesIgnored) {
  const model::ModelInputs in = calibrate_model(
      gtx980(), stencil::get_stencil(stencil::StencilKind::kHeat2D));
  save_calibration(temp_path(), in);
  {
    std::ifstream f(temp_path());
    std::string rest((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(temp_path());
    out << "# cached calibration\n\n" << rest;
  }
  EXPECT_NO_THROW(load_calibration(temp_path()));
  std::remove(temp_path().c_str());
}

// --- Structured error paths (the diagnostic-collecting form) ---------
// A corrupt calibration cache must produce SL41x diagnostics, never a
// crash and never a silently defaulted calibration.

TEST(CalibrationIoDiagnostics, UnopenableFileIsSL411) {
  analysis::DiagnosticEngine diags;
  EXPECT_EQ(load_calibration("/nonexistent/cal.txt", diags), std::nullopt);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_TRUE(diags.has_code(analysis::Code::kCalibIo));
}

TEST(CalibrationIoDiagnostics, UnknownKeyIsSL414NotSilentlyIgnored) {
  const model::ModelInputs in = calibrate_model(
      gtx980(), stencil::get_stencil(stencil::StencilKind::kHeat2D));
  save_calibration(temp_path(), in);
  {
    std::ofstream out(temp_path(), std::ios::app);
    out << "hw.n_smm 16\n";  // typo'd key
  }
  analysis::DiagnosticEngine diags;
  EXPECT_EQ(load_calibration(temp_path(), diags), std::nullopt);
  EXPECT_TRUE(diags.has_code(analysis::Code::kCalibUnknownKey));
  std::remove(temp_path().c_str());
}

TEST(CalibrationIoDiagnostics, TruncatedFileReportsEveryMissingKey) {
  const model::ModelInputs in = calibrate_model(
      gtx980(), stencil::get_stencil(stencil::StencilKind::kHeat2D));
  save_calibration(temp_path(), in);
  {
    // Keep only the first three lines (version + two keys).
    std::ifstream f(temp_path());
    std::string head, line;
    for (int i = 0; i < 3 && std::getline(f, line); ++i) {
      head += line + "\n";
    }
    f.close();
    std::ofstream out(temp_path(), std::ios::trunc);
    out << head;
  }
  analysis::DiagnosticEngine diags;
  EXPECT_EQ(load_calibration(temp_path(), diags), std::nullopt);
  EXPECT_TRUE(diags.has_code(analysis::Code::kCalibMissingKey));
  // A truncated file is missing many keys; all are reported at once.
  EXPECT_GT(diags.count(analysis::Severity::kError), 1u);
  std::remove(temp_path().c_str());
}

TEST(CalibrationIoDiagnostics, UnparsableValueIsSL412WithLineNumber) {
  const model::ModelInputs in = calibrate_model(
      gtx980(), stencil::get_stencil(stencil::StencilKind::kHeat2D));
  save_calibration(temp_path(), in);
  std::string rest;
  {
    std::ifstream f(temp_path());
    std::string line;
    std::getline(f, line);  // drop "version 1"
    while (std::getline(f, line)) {
      if (line.rfind("hw.n_sm ", 0) == 0) continue;  // replaced below
      rest += line + "\n";
    }
  }
  {
    std::ofstream out(temp_path(), std::ios::trunc);
    out << "version 1\nhw.n_sm 16abc\n" << rest;
  }
  analysis::DiagnosticEngine diags;
  EXPECT_EQ(load_calibration(temp_path(), diags), std::nullopt);
  ASSERT_TRUE(diags.has_code(analysis::Code::kCalibMalformed));
  for (const analysis::Diagnostic& d : diags.diagnostics()) {
    if (d.code == analysis::Code::kCalibMalformed) {
      EXPECT_EQ(d.line, 2);  // 1-based: the corrupted line
    }
  }
  std::remove(temp_path().c_str());
}

TEST(CalibrationIoDiagnostics, VersionMismatchIsSL415) {
  {
    std::ofstream out(temp_path(), std::ios::trunc);
    out << "version 999\n";
  }
  analysis::DiagnosticEngine diags;
  EXPECT_EQ(load_calibration(temp_path(), diags), std::nullopt);
  EXPECT_TRUE(diags.has_code(analysis::Code::kCalibVersion));
  std::remove(temp_path().c_str());
}

TEST(CalibrationIoDiagnostics, ThrowingFormCarriesTheCode) {
  {
    std::ofstream out(temp_path(), std::ios::trunc);
    out << "version 999\n";
  }
  try {
    load_calibration(temp_path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("SL415"), std::string::npos);
  }
  std::remove(temp_path().c_str());
}

TEST(ParametricVariant, ScalesInstructionCostsAndKillsSpills) {
  const DeviceParams base = gtx980();
  const DeviceParams par = parametric_codegen_variant(base, 0.15);
  EXPECT_NE(par.name, base.name);
  EXPECT_NEAR(par.cost.fma, base.cost.fma * 1.15, 1e-12);
  EXPECT_NEAR(par.cost.addr, base.cost.addr * 1.15 * 1.5, 1e-12);
  EXPECT_EQ(par.spill_cycles_per_reg, 0.0);
  // Hardware resources are unchanged — it is the same chip.
  EXPECT_EQ(par.n_sm, base.n_sm);
  EXPECT_EQ(par.mem_bandwidth_bps, base.mem_bandwidth_bps);
}

}  // namespace
}  // namespace repro::gpusim
