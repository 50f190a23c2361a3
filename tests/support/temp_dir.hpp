// A scratch directory private to the running test case.
//
// ctest runs every discovered gtest case as its own process, and
// `ctest -j` runs those processes concurrently, so a directory name
// shared by the cases of one suite races: one case's TearDown deletes
// the files another is still writing. The name built here joins a
// caller prefix, the suite and case names and the process id, so no
// two live test processes share it.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace repro::test {

// The case's private directory under temp_directory_path(), emptied
// (removed) so the case starts from nothing. Call from inside a test
// body or fixture SetUp.
inline std::filesystem::path unique_temp_dir(const std::string& prefix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = prefix;
  if (info != nullptr) {
    name += '_';
    name += info->test_suite_name();
    name += '_';
    name += info->name();
  }
  name += '_';
  name += std::to_string(::getpid());
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized names carry a '/'
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace repro::test
