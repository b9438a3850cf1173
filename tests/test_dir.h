// Scratch directories for tests that write files.
//
// Each test process writes under its own root, <TempDir>/osguard-<pid>, so
// two test trees running at once on one host (a Release and a sanitizer
// `ctest`, say) never remove each other's files. The root is deleted when
// every test of the process passed; after a failure it stays, so the paths
// a failure message names still exist.

#ifndef TESTS_TEST_DIR_H_
#define TESTS_TEST_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace osguard {

inline const std::filesystem::path& TestRoot() {
  static const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / ("osguard-" + std::to_string(::getpid()));
  return root;
}

// An empty directory TestRoot()/`name`, emptied first if an earlier test of
// this process left it behind.
inline std::filesystem::path FreshTestDir(const std::string& name) {
  const std::filesystem::path dir = TestRoot() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

namespace test_dir_internal {

class RemoveRootIfPassed : public ::testing::Environment {
 public:
  void TearDown() override {
    if (::testing::UnitTest::GetInstance()->Passed()) {
      std::error_code ignored;
      std::filesystem::remove_all(TestRoot(), ignored);
    }
  }
};

inline ::testing::Environment* const kRemoveRootIfPassed =
    ::testing::AddGlobalTestEnvironment(new RemoveRootIfPassed);

}  // namespace test_dir_internal
}  // namespace osguard

#endif  // TESTS_TEST_DIR_H_
