// Liveness property L1: after a clique stabilizes, every member's view
// contains the whole clique within Δ = π + 8δ (paper §5). Also probing and
// merge behavior.
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;

/// Virtual partitions joined so far, summed over every processor.
uint64_t Joins(Cluster& cluster) {
  return cluster.metrics().Snapshot().CounterValue("vp.joins");
}

ClusterConfig LivenessConfig(uint32_t n, uint64_t seed) {
  ClusterConfig c;
  c.n_processors = n;
  c.n_objects = 2;
  c.seed = seed;
  c.protocol = Protocol::kVirtualPartition;
  // Tight, explicit timing so Δ is meaningful.
  c.net.min_delay = sim::Millis(1);
  c.net.max_delay = sim::Millis(4);
  c.vp.delta = sim::Millis(5);
  c.vp.probe_period = sim::Millis(50);
  return c;
}

sim::Duration DeltaBound(const ClusterConfig& c) {
  return c.vp.probe_period + 8 * c.vp.delta;
}

TEST(VpLiveness, InitialConvergenceWithinDelta) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    ClusterConfig config = LivenessConfig(5, seed);
    Cluster cluster(config);
    // Initial stagger means the first full probe round may start late; L1's
    // clock starts once the system is quiet. Allow one probe period of
    // stagger plus Δ.
    cluster.RunFor(config.vp.probe_period + DeltaBound(config));
    EXPECT_TRUE(cluster.VpConverged()) << "seed " << seed;
    for (ProcessorId p = 0; p < 5; ++p) {
      EXPECT_EQ(cluster.vp_node(p).view().size(), 5u) << "seed " << seed;
    }
  }
}

TEST(VpLiveness, ReconvergenceAfterHealWithinDelta) {
  for (uint64_t seed : {10, 11, 12}) {
    ClusterConfig config = LivenessConfig(5, seed);
    Cluster cluster(config);
    cluster.RunFor(sim::Seconds(1));
    ASSERT_TRUE(cluster.VpConverged());

    cluster.graph().Partition({{0, 1}, {2, 3, 4}});
    cluster.RunFor(sim::Seconds(1));
    cluster.graph().Heal();
    // L1: within Δ of the heal every view contains the full clique.
    // (Probe-phase alignment can add one probe period in the worst case;
    // the paper's Δ derivation assumes the probe fires after the heal.)
    cluster.RunFor(config.vp.probe_period + DeltaBound(config));
    EXPECT_TRUE(cluster.VpConverged()) << "seed " << seed;
    for (ProcessorId p = 0; p < 5; ++p) {
      EXPECT_EQ(cluster.vp_node(p).view().size(), 5u)
          << "seed " << seed << " p" << p;
    }
  }
}

TEST(VpLiveness, PartitionDetectedWithinProbePeriodPlus) {
  ClusterConfig config = LivenessConfig(5, 3);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(config.vp.probe_period + DeltaBound(config));
  // Both sides formed their own partitions.
  EXPECT_EQ(cluster.vp_node(0).view(), (std::set<ProcessorId>{0, 1}));
  EXPECT_EQ(cluster.vp_node(4).view(), (std::set<ProcessorId>{2, 3, 4}));
  EXPECT_TRUE(cluster.VpConverged());
}

TEST(VpLiveness, SingletonPartitionForIsolatedNode) {
  ClusterConfig config = LivenessConfig(3, 4);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Partition({{0, 1}});  // 2 isolated.
  cluster.RunFor(sim::Seconds(1));
  auto& isolated = cluster.vp_node(2);
  EXPECT_TRUE(isolated.assigned());
  EXPECT_EQ(isolated.view(), (std::set<ProcessorId>{2}));
}

TEST(VpLiveness, ViewIdentifiersOnlyIncrease) {
  ClusterConfig config = LivenessConfig(4, 5);
  Cluster cluster(config);
  VpId last{0, 0};
  for (int round = 0; round < 5; ++round) {
    cluster.graph().Partition({{0, 1}, {2, 3}});
    cluster.RunFor(sim::Millis(400));
    cluster.graph().Heal();
    cluster.RunFor(sim::Millis(400));
    VpId now = cluster.vp_node(0).cur_id();
    EXPECT_LT(last, now) << "round " << round;
    last = now;
  }
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(VpLiveness, NoChurnWhenStable) {
  // A stable clique must not create new partitions (probes all succeed).
  ClusterConfig config = LivenessConfig(5, 6);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  const VpId before = cluster.vp_node(0).cur_id();
  const uint64_t joins_before = Joins(cluster);
  cluster.RunFor(sim::Seconds(5));
  EXPECT_EQ(cluster.vp_node(0).cur_id(), before);
  EXPECT_EQ(Joins(cluster), joins_before);
}

TEST(VpLiveness, SlowMessagesCauseChurnButNotViolations) {
  // Performance failures: some probes exceed 2δ, tripping view changes.
  ClusterConfig config = LivenessConfig(4, 7);
  config.net.slow_prob = 0.05;
  config.net.slow_min_delay = sim::Millis(15);
  config.net.slow_max_delay = sim::Millis(40);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(10));
  // The protocol keeps re-forming partitions; safety must hold throughout.
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_GT(Joins(cluster), 4u);
}

TEST(VpLiveness, NonTransitiveGraphNeverSettlesButStaysSafe) {
  // Figure 1's graph: A-B down, both connected to C. Views cannot satisfy
  // everyone; the protocol churns but never violates S1-S3.
  ClusterConfig config = LivenessConfig(3, 8);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().SetEdge(0, 1, false);
  cluster.RunFor(sim::Seconds(5));
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  // A and B are never in the same virtual partition.
  auto& a = cluster.vp_node(0);
  auto& b = cluster.vp_node(1);
  if (a.assigned() && b.assigned()) {
    EXPECT_FALSE(a.cur_id() == b.cur_id());
  }
}

}  // namespace
}  // namespace vp
