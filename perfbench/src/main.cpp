// The perfbench binary. run.py builds it and runs
//
//   ftpim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <spans.jsonl>] [--source <id>]
//
// It prints one detail line (host fingerprint, sample counts, failed checks)
// and, last, the result object {"correct", "attempted", "failed", "metrics"}.
// A run that throws prints no result and exits with code 1.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ftpim_perfbench: %s\nusage: ftpim_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] [--source <id>]\n",
               why.c_str());
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        const WorkloadSpec* spec = find_workload(value);
        if (spec == nullptr) usage("unknown workload '" + value + "'");
        o.spec = *spec;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0.0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--trace-out") {
        o.trace_path = value;
      } else if (arg == "--source") {
        o.source_id = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parse(argc, argv);
#ifdef __GLIBC__
  // One malloc arena per core of a 4-core host instead of glibc's 8 per
  // core: with up to 32 arenas, which of them the short-lived worker threads
  // land in decides how much freed memory stays resident, and peak_rss_mb
  // swung by 30% between runs of the same work.
  mallopt(M_ARENA_MAX, 4);
#endif
  try {
    const Outcome out = run_workload(options);
    std::string detail = "{\"detail\": {\"workload\": " + json_string(options.spec.name) +
                         ", \"seed\": " + std::to_string(options.seed) +
                         ", \"trace\": " + (options.trace ? "true" : "false") +
                         ", \"host\": " + host_fingerprint_json(options.source_id);
    for (const auto& [key, value] : out.detail) detail += ", " + json_string(key) + ": " + value;
    detail += ", \"problems\": [";
    for (std::size_t i = 0; i < out.problems.size(); ++i) {
      detail += (i == 0 ? "" : ", ") + json_string(out.problems[i]);
    }
    detail += "]}}";
    std::printf("%s\n", detail.c_str());
    const auto& specs = options.trace ? per_layer_specs() : end_to_end_specs();
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
                out.correct ? "true" : "false", static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed), out.metrics.to_json(specs).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftpim_perfbench: run failed: %s\n", e.what());
    return 1;
  }
}
