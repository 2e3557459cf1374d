// Known-bad: a fixed directory under the system temp dir, shared by every
// test process that runs this code at the same time.
#include <filesystem>

std::filesystem::path fixture_dir() {
  return std::filesystem::temp_directory_path() / "ftpim_fixture";
}
