// Shared harness pieces for the paper-reproduction bench binaries.
//
// Each bench prints (1) the paper-style table at the active FTPIM_SCALE and
// (2) a "shape-check" section asserting the paper's qualitative claims hold
// on this run (who wins, where). Absolute numbers differ from the paper —
// the substrate is a scaled CPU simulation (see DESIGN.md §3) — but the
// orderings are the reproduction target.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/core/experiment.hpp"
#include "src/core/table_printer.hpp"

namespace ftpim::bench {

/// Machine-readable bench artifact writer. Produces a flat JSON document
///
///   { "bench": "<name>", "<meta>": ..., "points": [ {...}, ... ] }
///
/// so perf trajectories can be diffed across commits (BENCH_gemm.json,
/// BENCH_qgemm.json are committed artifacts — see DESIGN.md §11). Values are
/// either numbers or strings; no nesting beyond the points array.
class BenchJsonWriter {
 public:
  class Record {
   public:
    Record& num(const std::string& key, double value) {
      char buf[64];
      // %.17g round-trips doubles; integral values print without exponent.
      if (value == static_cast<double>(static_cast<long long>(value))) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
      }
      fields_.emplace_back(key, buf);
      return *this;
    }
    Record& str(const std::string& key, const std::string& value) {
      fields_.emplace_back(key, "\"" + value + "\"");
      return *this;
    }

   private:
    friend class BenchJsonWriter;
    std::vector<std::pair<std::string, std::string>> fields_;

    void render(std::string& out, const char* indent) const {
      out += indent;
      out += "{";
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i != 0) out += ", ";
        out += "\"" + fields_[i].first + "\": " + fields_[i].second;
      }
      out += "}";
    }
  };

  explicit BenchJsonWriter(std::string bench_name) { meta_.str("bench", std::move(bench_name)); }

  /// Top-level metadata (threads, dispatch level, host knobs, ...).
  Record& meta() { return meta_; }

  /// Appends one data point; fill it via the returned record.
  Record& point() { return points_.emplace_back(); }

  /// Writes the document; returns false (and warns on stderr) on I/O error.
  bool write(const std::string& path) const {
    std::string out = "{\n";
    for (const auto& [key, value] : meta_.fields_) {
      out += "  \"" + key + "\": " + value + ",\n";
    }
    out += "  \"points\": [\n";
    for (std::size_t i = 0; i < points_.size(); ++i) {
      points_[i].render(out, "    ");
      if (i + 1 != points_.size()) out += ",";
      out += "\n";
    }
    out += "  ]\n}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchJsonWriter: cannot open %s\n", path.c_str());
      return false;
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    if (ok) std::printf("wrote %s (%zu points)\n", path.c_str(), points_.size());
    return ok;
  }

 private:
  Record meta_;
  std::vector<Record> points_;
};

/// Testing failure-rate grid trimmed to the active scale.
inline std::vector<double> test_rates_for(const RunScale& scale) {
  if (scale.name == "full") return paper_test_rates();
  if (scale.name == "medium") return {0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2};
  return {0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1};
}

/// Training failure-rate grid (table rows) trimmed to the active scale.
inline std::vector<double> train_rates_for(const RunScale& scale) {
  if (scale.name == "full") return paper_train_rates();
  if (scale.name == "medium") return {0.005, 0.01, 0.05, 0.1};
  return {0.01, 0.1};
}

inline std::vector<std::string> rate_headers(const std::string& label_col,
                                             const std::vector<double>& rates) {
  std::vector<std::string> headers{label_col};
  for (const double r : rates) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", r);
    headers.emplace_back(buf);
  }
  return headers;
}

inline std::vector<double> to_percent(const std::vector<double>& fractions) {
  std::vector<double> out;
  out.reserve(fractions.size());
  for (const double f : fractions) out.push_back(f * 100.0);
  return out;
}

struct ShapeCheck {
  int passed = 0;
  int failed = 0;
  void expect(bool ok, const std::string& claim) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", claim.c_str());
    (ok ? passed : failed)++;
  }
  void summary() const {
    std::printf("shape-check: %d ok, %d failed\n", passed, failed);
  }
};

inline void print_preamble(const std::string& what, const Experiment& exp) {
  const RunScale& s = exp.config().scale;
  std::printf("=== %s ===\n", what.c_str());
  std::printf("dataset: %s | model: ResNet-%d (width %d) | scale: %s\n",
              exp.dataset_name().c_str(), exp.config().resnet_depth,
              static_cast<int>(s.resnet_width), s.name.c_str());
  std::printf("epochs/stage: %d | train: %d | test: %d | img: %dx%d | defect runs: %d | threads: %d\n\n",
              s.epochs, s.train_size, s.test_size, static_cast<int>(s.image_size),
              static_cast<int>(s.image_size), s.defect_runs, num_threads());
}

}  // namespace ftpim::bench
