#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/tensor/kernels/dispatch.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// --- order statistics --------------------------------------------------------

namespace {

std::int64_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::int64_t>(rank, 1, static_cast<std::int64_t>(n));
}

}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile_sorted: empty sample");
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("quantile_sorted: q outside (0, 1]");
  return sorted[static_cast<std::size_t>(nearest_rank(sorted.size(), q) - 1)];
}

std::int64_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return static_cast<std::int64_t>(n) - nearest_rank(n, q);
}

std::optional<double> supported_tail_q(std::size_t n, double q_cap, std::int64_t min_beyond) {
  if (static_cast<std::int64_t>(n) <= min_beyond) return std::nullopt;
  if (samples_beyond(n, q_cap) >= min_beyond) return q_cap;
  // rank n - min_beyond leaves exactly min_beyond samples above it.
  return static_cast<double>(static_cast<std::int64_t>(n) - min_beyond) / static_cast<double>(n);
}

TailSummary summarize_tail(std::vector<double> values, double q_cap) {
  TailSummary out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.p50 = quantile_sorted(values, 0.5);
  // A "tail" at or below the median says nothing a median does not.
  if (const std::optional<double> q = supported_tail_q(values.size(), q_cap); q && *q > 0.5) {
    out.tail_q = *q;
    out.tail = quantile_sorted(values, *q);
    out.tail_supported = true;
  } else {
    out.tail_q = 1.0;
    out.tail = values.back();
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double quantile_of(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

std::vector<double> chunk_quantiles(const std::vector<double>& values, std::size_t chunk,
                                    double q) {
  std::vector<double> out;
  if (chunk == 0) return out;
  for (std::size_t lo = 0; lo + chunk <= values.size(); lo += chunk) {
    std::vector<double> part(values.begin() + static_cast<std::ptrdiff_t>(lo),
                             values.begin() + static_cast<std::ptrdiff_t>(lo + chunk));
    std::sort(part.begin(), part.end());
    out.push_back(quantile_sorted(part, q));
  }
  return out;
}

// --- arrivals ----------------------------------------------------------------

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s, double duration_s,
                                      std::uint32_t num_inputs) {
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0) || num_inputs == 0) {
    throw std::invalid_argument("poisson_schedule: rate, duration and inputs must be positive");
  }
  ftpim::Rng rng(ftpim::derive_seed(seed, /*stream=*/0x5e7e));
  // Given its count, a Poisson process's arrival times are independent and
  // uniform over the horizon: draw them so, then sort.
  const auto count = static_cast<std::size_t>(std::llround(rate_per_s * duration_s));
  const double horizon_ns = duration_s * 1e9;
  std::vector<Arrival> out(count);
  for (Arrival& a : out) {
    a.due_offset_ns = static_cast<std::int64_t>(rng.uniform_double() * horizon_ns);
    a.input = static_cast<std::uint32_t>(rng.uniform_int(num_inputs));
  }
  std::sort(out.begin(), out.end(),
            [](const Arrival& x, const Arrival& y) { return x.due_offset_ns < y.due_offset_ns; });
  return out;
}

// --- tracing -----------------------------------------------------------------

std::int64_t Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                         std::int64_t parent, std::int64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::set_end(std::int64_t index, std::int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(index)).end_ns = end_ns;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<std::pair<std::string, double>> Tracer::self_time_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent are recorded by one thread in sequence, so they
  // do not overlap; their summed durations are the covered part.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans_.size()) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double own = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child_ns[i];
    self[spans_[i].name] += std::max(0.0, own) * 1e-3;
  }
  return {self.begin(), self.end()};
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Tracer: cannot write " + path);
  for (const Span& s : spans_) {
    out << "{\"name\":" << json_string(s.name) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

// --- metrics -----------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"failed_frac", "ratio"},
      {"sat_rps", "req/s"},
      {"p50_ms", "ms"},
      {"p99_ms", "ms"},
      {"mc_runs_per_s", "dies/s"},
      {"fleet_ticks_per_s", "device-ticks/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"parallel.region_us", "us"},
      {"serve.queue_wait_us.p50", "us"},
      {"serve.queue_wait_us.p99", "us"},
      {"serve.batch_service_us.p50", "us"},
      {"serve.batch_size.mean", "req/batch"},
      {"serve.gen_late_us.p99", "us"},
      {"serve.sent", "count"},
      {"serve.served", "count"},
      {"serve.failed", "count"},
      {"serve.canary_batches", "count"},
      {"serve.scrubs", "count"},
      {"serve.refreshes", "count"},
      {"serve.repairs", "count"},
      {"serve.aged_cells", "count"},
      {"nn.conv2d_us", "us"},
      {"nn.batchnorm_us", "us"},
      {"nn.relu_us", "us"},
      {"nn.pool_us", "us"},
      {"nn.linear_us", "us"},
      {"nn.forward_us", "us"},
      {"nn.leaf_coverage", "ratio"},
      {"nn.residual_join_us", "us"},
      {"nn.allocs_per_forward", "count"},
      {"kernels.conv_fwd_gflops", "GFLOP/s"},
      {"kernels.qmvm_gops", "GOP/s"},
      {"qinfer.mvm_batch_us", "us"},
      {"qinfer.epilogue_share", "ratio"},
      {"abft.detections", "count"},
      {"abft.flagged_tiles", "count"},
      {"reram.inject_us", "us"},
      {"model.clone_us", "us"},
      {"core.eval_die_ms", "ms"},
      {"fleet.tick_ms.p50", "ms"},
      {"fleet.tick_ms.p99", "ms"},
      {"fleet.repairs", "count"},
      {"fleet.scrubs", "count"},
      {"fleet.deaths", "count"},
      {"fleet.survival", "ratio"},
      {"pool.repair_us", "us"},
      {"pool.refresh_us", "us"},
      {"pool.scrub_us", "us"},
      {"pool.advance_aging_us", "us"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return specs;
}

void MetricSet::set(const std::string& name, double value) {
  for (auto& [key, v] : values_) {
    if (key == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

double MetricSet::get(const std::string& name) const {
  for (const auto& [key, v] : values_) {
    if (key == name) return v;
  }
  throw std::out_of_range("MetricSet: no metric " + name);
}

std::string MetricSet::to_json(const std::vector<MetricSpec>& specs) const {
  std::string out = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(specs[i].name) + ": {\"value\": " + json_number(get(specs[i].name)) +
           ", \"unit\": " + json_string(specs[i].unit) + "}";
  }
  return out + "}";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// --- host fingerprint --------------------------------------------------------

namespace {

bool cpu_has_vnni() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  bool found = false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    found = found || ((ecx >> 11) & 1U) != 0;  // AVX512_VNNI
  }
  if (__get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) != 0) {
    found = found || ((eax >> 4) & 1U) != 0;  // AVX-VNNI
  }
  return found;
#else
  return false;
#endif
}

}  // namespace

std::string host_fingerprint_json(const std::string& source_id) {
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  namespace k = ftpim::kernels;
  std::string out = "{";
  out += "\"cores\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"kernel_level\": " + json_string(k::kernel_level_name(k::active_kernel_level()));
  out += std::string(", \"vnni\": ") + (cpu_has_vnni() ? "true" : "false");
  out += ", \"num_threads\": " + std::to_string(ftpim::num_threads());
#if defined(__clang__)
  out += ", \"compiler\": " + json_string(std::string("clang ") + __clang_version__);
#else
  out += ", \"compiler\": " + json_string(std::string("gcc ") + __VERSION__);
#endif
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"source\": " + json_string(source_id);
  return out + "}";
}

}  // namespace perfbench
