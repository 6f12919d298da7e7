// Shared pieces of the vpbench program: options, the result record every
// workload fills, and small statistics helpers.
#ifndef VPBENCH_COMMON_H_
#define VPBENCH_COMMON_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace vpbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measured seconds per run; every phase length derives from it.
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why `correct` is false (printed to stderr, never in the result line).
  std::vector<std::string> problems;
  uint32_t runtime_workers = 0;
  std::string backend;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Monotonic nanoseconds since the first call in this process.
inline int64_t NowNs() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// CPU nanoseconds the calling thread has run.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Quantile q in [0,1] with linear interpolation between order statistics.
/// Sorts `v`; returns 0 for an empty sample.
double Quantile(std::vector<double>& v, double q);

/// Median of a small sample (copies it).
double Median(std::vector<double> v);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

RunResult RunWritePath(const Options& opts);
RunResult RunReadMostly(const Options& opts);
RunResult RunPartitionHeal(const Options& opts);

}  // namespace vpbench

#endif  // VPBENCH_COMMON_H_
