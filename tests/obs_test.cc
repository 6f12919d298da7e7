// Tests for the observability layer (src/obs/): histogram bucket
// geometry, deterministic serial-mode snapshots under the nemesis harness,
// causal trace-id propagation across a retransmitted physical send, trace
// JSON well-formedness, and concurrent registry updates (the TSan job
// runs this suite, so the hammer test doubles as the race check).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "nemesis/nemesis.h"
#include "net/message.h"
#include "net/network.h"
#include "net/reliable_channel.h"
#include "net/topology.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/sim_runtime.h"
#include "sim/scheduler.h"

namespace vp {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::RegistryMode;

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  // Every boundary up to the top bucket: 2^(i-1) is the first value of
  // bucket i, 2^i - 1 the last.
  for (size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    const uint64_t lo = uint64_t{1} << (i - 1);
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "lo of bucket " << i;
    EXPECT_EQ(Histogram::BucketIndex(2 * lo - 1), i) << "hi of bucket " << i;
    EXPECT_EQ(Histogram::BucketUpper(i), 2 * lo);
  }
  // The top bucket is unbounded.
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kBuckets - 1);
}

TEST(Histogram, PercentileInterpolatesWithinBucket) {
  MetricsRegistry reg(RegistryMode::kSerial);
  Histogram* h = reg.histogram("t_us");
  // 100 observations spread across [512, 1024) land in one bucket; the
  // percentile interpolates linearly inside it.
  for (uint64_t i = 0; i < 100; ++i) h->Observe(512 + 5 * i);
  EXPECT_EQ(h->Count(), 100u);
  const double p50 = h->Percentile(0.50);
  EXPECT_GE(p50, 512.0);
  EXPECT_LT(p50, 1024.0);
  const double p99 = h->Percentile(0.99);
  EXPECT_GE(p99, p50);
  EXPECT_LT(p99, 1024.0);
  // An empty histogram reports 0.
  EXPECT_EQ(reg.histogram("empty_us")->Percentile(0.99), 0.0);
}

TEST(MetricsSnapshotTest, LookupAndFormat) {
  MetricsRegistry reg(RegistryMode::kSerial);
  reg.counter("b.count")->Add(3);
  reg.counter("a.count")->Increment();
  reg.gauge("q.depth")->Add(5);
  reg.gauge("q.depth")->Add(-2);
  reg.histogram("lat_us")->Observe(100);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("a.count"), 1u);
  EXPECT_EQ(snap.CounterValue("b.count"), 3u);
  EXPECT_EQ(snap.CounterValue("absent"), 0u);
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.count");  // name-ordered
  ASSERT_EQ(snap.gauge_maxes.size(), 1u);
  EXPECT_EQ(snap.gauge_maxes[0].second, 5);  // high-water mark, not value
  ASSERT_NE(snap.FindHistogram("lat_us"), nullptr);
  EXPECT_EQ(snap.FindHistogram("lat_us")->count, 1u);
  EXPECT_EQ(snap.FindHistogram("absent"), nullptr);
  EXPECT_NE(snap.Format().find("a.count"), std::string::npos);
}

// The serial-mode registry is a pure function of the simulated event
// sequence: the same nemesis plan must produce byte-identical snapshots.
TEST(MetricsDeterminism, SameNemesisSeedSameSnapshot) {
  const nemesis::FaultPlan plan = nemesis::GeneratePlan(11);
  const nemesis::RunOutcome first = nemesis::RunPlan(plan);
  const nemesis::RunOutcome second = nemesis::RunPlan(plan);
  ASSERT_FALSE(first.metrics.counters.empty());
  EXPECT_GT(first.metrics.CounterValue("net.msgs_sent"), 0u);
  EXPECT_EQ(first.metrics.Format(), second.metrics.Format());
  // And the snapshot agrees with the trace-level determinism contract.
  EXPECT_EQ(first.trace, second.trace);
}

/// Endpoint + channel pair wired with an explicit registry and tracer
/// (mirrors the reliable_channel_test rig, plus observability).
struct TracedEndpoint : public net::NodeInterface {
  net::ReliableChannel channel;
  std::vector<net::Message> inbox;

  TracedEndpoint(runtime::SimRuntime* rt, ProcessorId id,
                 net::ReliableConfig cfg, obs::MetricsRegistry* metrics,
                 obs::Tracer* tracer)
      : channel(rt->clock(), rt->executor(), rt->transport(), id,
                /*incarnation=*/0, cfg, metrics, tracer) {}

  void HandleMessage(const net::Message& m) override {
    channel.HandleMessage(
        m, [this](const net::Message& inner) { inbox.push_back(inner); });
  }
};

// A trace id stamped on a send must survive retransmission: the id rides
// the message header, so the copy that finally lands carries the same id the
// coordinator assigned.
TEST(Tracing, TraceIdSurvivesRetransmission) {
  sim::Scheduler sched;
  net::CommGraph graph(2);
  net::NetworkConfig nc;
  nc.reorder_prob = 1.0;  // Holds every message past the retransmit delay.
  net::Network network(&sched, &graph, nc, /*seed=*/7);
  obs::MetricsRegistry metrics(RegistryMode::kSerial);
  network.AttachMetrics(&metrics);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  runtime::SimRuntime rt(&sched, &network);
  TracedEndpoint a(&rt, 0, net::ReliableConfig{}, &metrics, &tracer);
  TracedEndpoint b(&rt, 1, net::ReliableConfig{}, &metrics, &tracer);
  network.Register(0, &a);
  network.Register(1, &b);

  const uint64_t trace = tracer.NewTraceId();
  ASSERT_NE(trace, 0u);
  core::msg::PhysWrite write;
  write.txn = TxnId{0, 1};
  write.value = "v1";
  a.channel.Send(1, write, nullptr, trace);
  sched.RunUntilIdle();

  ASSERT_EQ(b.inbox.size(), 1u);
  EXPECT_EQ(b.inbox[0].trace, trace);
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_GE(snap.CounterValue("rel.retransmits"), 1u);
  EXPECT_EQ(snap.CounterValue("rel.delivered"), 1u);
  // The retransmit instant events carry the same trace id, and name the
  // retransmitted message by its wire name.
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("rel.retransmit"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"write\""), std::string::npos);
}

TEST(Tracing, DisabledTracerAssignsNoIdsAndRecordsNothing) {
  obs::Tracer tracer;
  EXPECT_EQ(tracer.NewTraceId(), 0u);
  tracer.Instant(1, 0, 0, "x", "cat");
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(obs::Tracer::Disabled()->NewTraceId(), 0u);
}

TEST(Tracing, EmitsWellFormedChromeTraceJson) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  const uint64_t t = tracer.NewTraceId();
  tracer.AsyncBegin(t, 0, 10, "txn", "txn", {{"txn", "t0.1"}});
  tracer.Complete(t, 1, 20, 5, "phys.write", "phys", {{"obj", "3"}});
  tracer.AsyncEnd(t, 0, 40, "txn", "txn", {{"outcome", "commit"}});
  const std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"phys.write\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\""), std::string::npos);
  EXPECT_EQ(tracer.event_count(), 3u);
}

// Concurrent counters, gauges and histograms hammered from many threads
// while another thread snapshots. Run under TSan in CI; the assertions
// check that no update is lost once the writers join.
TEST(ConcurrentRegistry, ParallelUpdatesAreRaceFreeAndLossless) {
  MetricsRegistry reg(RegistryMode::kConcurrent);
  obs::Counter* ctr = reg.counter("hammer.count");
  obs::Gauge* gauge = reg.gauge("hammer.depth");
  Histogram* hist = reg.histogram("hammer.lat_us");

  constexpr int kThreads = 8;
  constexpr uint64_t kIters = 20000;
  std::atomic<bool> stop_snapshots{false};
  std::thread snapshotter([&] {
    while (!stop_snapshots.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = reg.Snapshot();
      // Monotonic counter: any mid-run snapshot is a valid partial sum.
      EXPECT_LE(snap.CounterValue("hammer.count"), kThreads * kIters);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kIters; ++i) {
        ctr->Increment();
        gauge->Add(1);
        gauge->Add(-1);
        hist->Observe(t * 100 + i % 1000);
        // Occasional name-map lookups race against the snapshotter's walk.
        if (i % 4096 == 0) reg.counter("hammer.count")->Add(0);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop_snapshots.store(true, std::memory_order_release);
  snapshotter.join();

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("hammer.count"), kThreads * kIters);
  ASSERT_NE(snap.FindHistogram("hammer.lat_us"), nullptr);
  EXPECT_EQ(snap.FindHistogram("hammer.lat_us")->count, kThreads * kIters);
  EXPECT_GE(snap.gauge_maxes[0].second, 1);
}

}  // namespace
}  // namespace vp
