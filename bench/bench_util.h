// Shared experiment-harness helpers for the bench/ binaries: standardized
// workload runs over a cluster, aligned table printing, and the one JSON
// report writer every committed BENCH_*.json file goes through.
#ifndef VPART_BENCH_BENCH_UTIL_H_
#define VPART_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "harness/cluster.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "workload/client.h"

namespace vp::bench {

/// Aggregated results of one workload run.
struct RunResult {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t aborts_unavailable = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  double avg_commit_latency_ms = 0;
  uint64_t phys_reads = 0;
  uint64_t phys_writes = 0;
  uint64_t remote_msgs = 0;
  uint64_t stale_reads = 0;
  bool certified_1sr = false;
  std::string certify_detail;
  /// Snapshot of the cluster registry at the end of the run (cumulative
  /// since cluster construction, not windowed like the fields above).
  obs::MetricsSnapshot metrics;
};

struct RunOptions {
  sim::Duration warmup = sim::Seconds(1);
  sim::Duration measure = sim::Seconds(10);
  sim::Duration drain = sim::Seconds(2);
  workload::ClientConfig client;
  /// Clients run only at these processors (empty = all).
  std::vector<ProcessorId> client_at;
  /// Skip the certifier (for very large runs).
  bool certify = true;
};

/// Runs a closed-loop workload over an existing cluster and reports the
/// deltas accumulated during the measurement window.
inline RunResult RunWorkload(harness::Cluster& cluster,
                             const RunOptions& opts) {
  cluster.RunFor(opts.warmup);

  std::vector<core::NodeBase*> nodes;
  if (opts.client_at.empty()) {
    for (ProcessorId p = 0; p < cluster.size(); ++p)
      nodes.push_back(&cluster.node(p));
  } else {
    for (ProcessorId p : opts.client_at) nodes.push_back(&cluster.node(p));
  }
  auto clients =
      workload::MakeClients(nodes, cluster.runtime_view(),
                            cluster.placement().object_count(), opts.client);

  const obs::MetricsSnapshot before = cluster.metrics().Snapshot();
  for (auto& c : clients) c->Start(sim::Millis(1));
  cluster.RunFor(opts.measure);
  for (auto& c : clients) c->Stop();
  cluster.RunFor(opts.drain);

  const auto agg = workload::Aggregate(clients);

  RunResult r;
  r.committed = agg.txns_committed;
  r.aborted = agg.txns_aborted;
  r.aborts_unavailable = agg.aborts_unavailable;
  r.reads = agg.reads_done;
  r.writes = agg.writes_done;
  r.avg_commit_latency_ms =
      agg.txns_committed == 0
          ? 0
          : sim::ToMillis(agg.total_commit_latency) /
                static_cast<double>(agg.txns_committed);
  r.metrics = cluster.metrics().Snapshot();
  auto delta = [&](const char* name) {
    return r.metrics.CounterValue(name) - before.CounterValue(name);
  };
  r.phys_reads = delta("phys.reads_sent");
  r.phys_writes = delta("phys.writes_sent");
  r.remote_msgs = delta("net.msgs_remote");
  r.stale_reads = cluster.recorder().CountStaleReads();
  if (opts.certify) {
    auto cert = cluster.Certify();
    r.certified_1sr = cert.ok;
    r.certify_detail = cert.detail;
  }
  return r;
}

/// Minimal aligned-table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < width.size(); ++i) {
        if (row[i].size() > width[i]) width[i] = row[i].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t i = 0; i < headers_.size(); ++i) {
        const std::string& cell = i < row.size() ? row[i] : "";
        std::printf(" %-*s |", static_cast<int>(width[i]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t i = 0; i < headers_.size(); ++i) {
      for (size_t j = 0; j < width[i] + 2; ++j) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// The one writer for committed BENCH_*.json reports. Opens the root
/// object, stamps the bench name, hands the writer to `body` for the
/// report-specific fields and arrays, closes and writes the file. Returns
/// false (after reporting to stderr) on I/O error.
template <typename BodyFn>
bool WriteBenchJson(const std::string& path, std::string_view bench,
                    BodyFn&& body) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("bench", bench);
  body(w);
  w.EndObject();
  if (!w.WriteFile(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace vp::bench

#endif  // VPART_BENCH_BENCH_UTIL_H_
