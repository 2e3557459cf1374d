// Known-bad: fixed paths under the system temp dir, shared by every test
// process that runs this code at the same time.
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

std::filesystem::path fixture_dir() {
  return std::filesystem::temp_directory_path() / "ftpim_fixture";
}

std::string fixture_file() { return ::testing::TempDir() + "/ftpim_fixture.bin"; }
