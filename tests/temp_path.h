// Per-test scratch paths for fixtures that use the real filesystem.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace pipelsm::testpath {

// TempDir() + prefix + test name + "_" + pid: unique to the running test
// and process, so concurrent runs of one test binary (a `ctest -j` next
// to a `--gtest_repeat` loop) never share, or delete, each other's DB
// directory or LOG file.
inline std::string TestTempPath(const std::string& prefix) {
  return ::testing::TempDir() + prefix +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + std::to_string(::getpid());
}

}  // namespace pipelsm::testpath
