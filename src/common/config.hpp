// Environment-driven experiment scaling.
//
// The paper's experiments ran 160-epoch GPU training on real CIFAR; on the
// reproduction host (CPU-only) the benches default to reduced sizes. All
// scale knobs live here so every bench/example interprets them identically:
//
//   FTPIM_SCALE  = quick | medium | full   (preset bundle; default quick)
//   FTPIM_EPOCHS = <int>    override epochs per training stage
//   FTPIM_RUNS   = <int>    override num_of_runs for defect averaging
//   FTPIM_TRAIN  = <int>    override train-set size
//   FTPIM_TEST   = <int>    override test-set size
//   FTPIM_IMG    = <int>    override image side (HxW)
//   FTPIM_WIDTH  = <int>    override ResNet base width
//   FTPIM_BATCH  = <int>    override batch size
//   FTPIM_THREADS= <int>    override worker thread count
//
// Every numeric knob is read strictly (env_int / env_double): a value that
// does not parse in full, or falls outside its range, throws instead of
// silently running a different experiment.
#pragma once

#include <limits>
#include <string>

namespace ftpim {

struct RunScale {
  int epochs = 3;          ///< epochs per training stage (paper: 160)
  int defect_runs = 6;     ///< Monte-Carlo defect maps per point (paper: 100)
  int train_size = 896;    ///< training samples (CIFAR: 50000)
  int test_size = 384;     ///< test samples (CIFAR: 10000)
  int image_size = 16;     ///< image side (CIFAR: 32)
  int resnet_width = 8;    ///< ResNet stage-1 channels (paper: 16)
  int batch_size = 64;
  std::string name = "quick";
};

/// Resolves the active scale from the environment (see file comment).
/// Throws ContractViolation naming the variable on an unknown FTPIM_SCALE
/// preset and on any field below 1 (or not a whole number).
[[nodiscard]] RunScale run_scale();

/// Reads an integer env var. Unset or empty returns `fallback` (the knob is
/// optional, not mistyped); anything else must parse IN FULL as a decimal
/// integer inside [lo_inclusive, hi_inclusive] or the call throws
/// ContractViolation naming the variable and the offending text, so a typo
/// ("1O", "abc", a value that overflows int) never silently changes the run.
[[nodiscard]] int env_int(const char* name, int fallback,
                          int lo_inclusive = std::numeric_limits<int>::min(),
                          int hi_inclusive = std::numeric_limits<int>::max());

/// Reads a floating-point env var with env_int's rules: the value must parse
/// IN FULL as a finite number inside (lo_exclusive, hi_inclusive].
[[nodiscard]] double env_double(
    const char* name, double fallback,
    double lo_exclusive = -std::numeric_limits<double>::infinity(),
    double hi_inclusive = std::numeric_limits<double>::max());

/// Reads a string env var, returning fallback when unset.
[[nodiscard]] std::string env_string(const char* name, const std::string& fallback);

}  // namespace ftpim
