// vpbench: one workload of the VP protocol benchmark per invocation.
//
//   vpbench --workload write-path|read-mostly|partition-heal --seed N
//           --seconds S --trace 0|1 [--trace-out PATH]
//
// Prints a `host {...}` line (hardware threads, runtime workers, build
// type, seed) and, last, one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the per-layer ones, and the spans go to --trace-out.
// Exits 1, naming the workload, if any history fails certification; 2 on
// a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "vpbench/common.h"

namespace vpbench {

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "vpbench: %s\nusage: vpbench --workload "
               "write-path|read-mostly|partition-heal --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') std::putchar('\\');
    std::putchar(ch);
  }
  std::putchar('"');
}

}  // namespace
}  // namespace vpbench

int main(int argc, char** argv) {
  using namespace vpbench;
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opts.seconds > 0) || opts.seconds > 600) {
        return Usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return Usage("bad --trace");
      }
      opts.trace = v[0] == '1';
    } else if (a == "--trace-out") {
      opts.trace_out = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");

  RunResult res;
  if (opts.workload == "write-path") {
    res = RunWritePath(opts);
  } else if (opts.workload == "read-mostly") {
    res = RunReadMostly(opts);
  } else if (opts.workload == "partition-heal") {
    res = RunPartitionHeal(opts);
  } else {
    return Usage("unknown --workload");
  }

  std::printf(
      "host {\"hardware_threads\": %u, \"runtime_workers\": %u, "
      "\"build_type\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
      "\"backend\": \"%s\", \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), res.runtime_workers,
      VPBENCH_BUILD_TYPE, static_cast<unsigned long long>(opts.seed),
      opts.workload.c_str(), res.backend.c_str(), opts.seconds,
      opts.trace ? 1 : 0);
  if (!res.correct) {
    for (const std::string& p : res.problems) {
      std::fprintf(stderr, "vpbench: %s: %s\n", opts.workload.c_str(),
                   p.c_str());
    }
    std::fprintf(stderr, "vpbench: %s: FAILED correctness check\n",
                 opts.workload.c_str());
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::printf("%s", i == 0 ? "" : ", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
