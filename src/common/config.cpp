#include "src/common/config.hpp"

#include <cstdlib>
#include <limits>

#include "src/common/annotations.hpp"
#include "src/common/check.hpp"

namespace ftpim {

// env_* are one-time configuration reads (magic statics / setup code); they
// are FTPIM_COLD so the hot-path audit stops at them by design.
FTPIM_COLD int env_int(const char* name, int fallback, int lo_inclusive, int hi_inclusive) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  // Full-parse: trailing junk ("8x", "4.5", "1O") is a typo, not a smaller number.
  FTPIM_CHECK(end != env && *end == '\0', "%s: '%s' is not an integer", name, env);
  FTPIM_CHECK(value >= lo_inclusive && value <= hi_inclusive, "%s: %s outside [%d, %d]", name,
              env, lo_inclusive, hi_inclusive);
  return static_cast<int>(value);
}

FTPIM_COLD double env_double(const char* name, double fallback, double lo_exclusive,
                             double hi_inclusive) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const double value = std::strtod(env, &end);
  // Full-parse: trailing junk ("0.5x") is a typo, not a smaller number.
  FTPIM_CHECK(end != env && *end == '\0', "%s: '%s' is not a number", name, env);
  // NaN fails both comparisons, and the default bounds exclude infinities.
  FTPIM_CHECK(value > lo_exclusive && value <= hi_inclusive, "%s: %g outside (%g, %g]", name,
              value, lo_exclusive, hi_inclusive);
  return value;
}

FTPIM_COLD std::string env_string(const char* name, const std::string& fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return std::string(env);
}

RunScale run_scale() {
  RunScale scale;
  const std::string preset = env_string("FTPIM_SCALE", "quick");
  FTPIM_CHECK(preset == "quick" || preset == "medium" || preset == "full",
              "FTPIM_SCALE: '%s' is not one of quick, medium, full", preset.c_str());
  if (preset == "medium") {
    scale = RunScale{.epochs = 10,
                     .defect_runs = 20,
                     .train_size = 4096,
                     .test_size = 1024,
                     .image_size = 24,
                     .resnet_width = 12,
                     .batch_size = 64,
                     .name = "medium"};
  } else if (preset == "full") {
    scale = RunScale{.epochs = 160,
                     .defect_runs = 100,
                     .train_size = 50000,
                     .test_size = 10000,
                     .image_size = 32,
                     .resnet_width = 16,
                     .batch_size = 128,
                     .name = "full"};
  }
  // Every field counts something, so a value below 1 is a typo too.
  constexpr int kMax = std::numeric_limits<int>::max();
  scale.epochs = env_int("FTPIM_EPOCHS", scale.epochs, 1, kMax);
  scale.defect_runs = env_int("FTPIM_RUNS", scale.defect_runs, 1, kMax);
  scale.train_size = env_int("FTPIM_TRAIN", scale.train_size, 1, kMax);
  scale.test_size = env_int("FTPIM_TEST", scale.test_size, 1, kMax);
  scale.image_size = env_int("FTPIM_IMG", scale.image_size, 1, kMax);
  scale.resnet_width = env_int("FTPIM_WIDTH", scale.resnet_width, 1, kMax);
  scale.batch_size = env_int("FTPIM_BATCH", scale.batch_size, 1, kMax);
  return scale;
}

}  // namespace ftpim
