// Baseline protocol tests: weighted-voting quorum consensus, majority
// voting, and ROWA over the shared substrate.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "protocols/quorum_node.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using testutil::Increment;
using testutil::Read;
using testutil::RunTxn;
using testutil::Write;

ClusterConfig QuorumCfg(uint32_t n, Protocol proto, uint64_t seed = 2) {
  return testutil::Cfg(n, seed, proto, /*n_objects=*/3);
}

TEST(QuorumConfigs, EffectiveQuorums) {
  Cluster cluster(QuorumCfg(5, Protocol::kMajorityVoting));
  auto& node = static_cast<protocols::QuorumNode&>(cluster.node(0));
  EXPECT_EQ(node.ReadQuorum(0), 3u);
  EXPECT_EQ(node.WriteQuorum(0), 3u);

  Cluster rowa(QuorumCfg(5, Protocol::kRowa));
  auto& rnode = static_cast<protocols::QuorumNode&>(rowa.node(0));
  EXPECT_EQ(rnode.ReadQuorum(0), 1u);
  EXPECT_EQ(rnode.WriteQuorum(0), 5u);
}

TEST(Quorum, ReadReturnsHighestVersion) {
  Cluster cluster(QuorumCfg(3, Protocol::kMajorityVoting));
  auto t1 = RunTxn(cluster, 0, {Write(0, "first")});
  ASSERT_TRUE(t1.committed) << t1.failure.ToString();
  cluster.RunFor(sim::Millis(100));
  auto t2 = RunTxn(cluster, 1, {Write(0, "second")});
  ASSERT_TRUE(t2.committed) << t2.failure.ToString();
  cluster.RunFor(sim::Millis(100));
  auto t3 = RunTxn(cluster, 2, {Read(0)});
  ASSERT_TRUE(t3.committed) << t3.failure.ToString();
  EXPECT_EQ(t3.reads[0], "second");
}

TEST(Quorum, VersionNumbersAdvance) {
  Cluster cluster(QuorumCfg(3, Protocol::kMajorityVoting));
  for (int i = 0; i < 3; ++i) {
    auto t = RunTxn(cluster, 0, {Write(0, "v" + std::to_string(i))});
    ASSERT_TRUE(t.committed);
    cluster.RunFor(sim::Millis(50));
  }
  // Version (date.n) advanced monotonically to at least 3 at a majority.
  int with_v3 = 0;
  for (ProcessorId p = 0; p < 3; ++p) {
    if (cluster.store(p).Read(0).value().date.n >= 3) ++with_v3;
  }
  EXPECT_GE(with_v3, 2);
}

TEST(Quorum, MajorityVotingWorksInMajorityPartition) {
  ClusterConfig config = QuorumCfg(5, Protocol::kMajorityVoting);
  config.quorum.poll_all = true;  // Availability-oriented selection.
  // NB: kMajorityVoting ignores config.quorum; use kQuorum with majority.
  config.protocol = Protocol::kQuorum;
  config.quorum.read_quorum = 3;
  config.quorum.write_quorum = 3;
  config.quorum.poll_all = true;
  Cluster cluster(config);
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});

  // Majority side succeeds.
  auto tw = RunTxn(cluster, 2, {Write(0, "maj")});
  EXPECT_TRUE(tw.committed) << tw.failure.ToString();
  // Minority side cannot assemble a quorum: times out or aborts.
  auto tm = RunTxn(cluster, 0, {Write(0, "min")}, sim::Seconds(3));
  EXPECT_FALSE(tm.committed);
}

TEST(Quorum, RowaWritesFailWhenAnyCopyUnreachable) {
  Cluster cluster(QuorumCfg(3, Protocol::kRowa));
  cluster.graph().SetAlive(2, false);
  auto tw = RunTxn(cluster, 0, {Write(0, "x")}, sim::Seconds(3));
  EXPECT_FALSE(tw.committed);  // ROWA needs every copy.
  // Reads still work (read-one).
  auto tr = RunTxn(cluster, 0, {Read(0)});
  EXPECT_TRUE(tr.committed) << tr.failure.ToString();
  EXPECT_EQ(tr.reads[0], "0");
}

TEST(Quorum, RowaReadCostsOnePhysicalAccess) {
  Cluster cluster(QuorumCfg(5, Protocol::kRowa));
  const uint64_t before = testutil::Counter(cluster, "phys.reads_sent");
  auto t = RunTxn(cluster, 3, {Read(1)});
  ASSERT_TRUE(t.committed);
  EXPECT_EQ(testutil::Counter(cluster, "phys.reads_sent") - before, 1u);
}

TEST(Quorum, MajorityReadCostsQuorumAccesses) {
  Cluster cluster(QuorumCfg(5, Protocol::kMajorityVoting));
  const uint64_t before = testutil::Counter(cluster, "phys.reads_sent");
  auto t = RunTxn(cluster, 3, {Read(1)});
  ASSERT_TRUE(t.committed);
  // Minimal selection: exactly ⌈(5+1)/2⌉ = 3 copies contacted.
  EXPECT_EQ(testutil::Counter(cluster, "phys.reads_sent") - before, 3u);
}

TEST(Quorum, ConcurrentIncrementsSerialize) {
  Cluster cluster(QuorumCfg(3, Protocol::kMajorityVoting, 77));
  // Two outstanding increments from different coordinators. Their S→X
  // upgrades can deadlock; the lock timeout then aborts both — so retry
  // each until it commits, counting total committed increments.
  int n_committed = 0;
  for (ProcessorId p : {ProcessorId{0}, ProcessorId{1}}) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      // Launch a competing, possibly-colliding increment from the other
      // node on every attempt to keep real concurrency in play.
      testutil::TxnOutcome noise;
      testutil::StartScriptedTxn(cluster.node(1 - p), {Increment(0)}, &noise);
      auto t = RunTxn(cluster, p, {Increment(0)}, sim::Seconds(2));
      cluster.RunFor(sim::Millis(300));
      if (noise.done && noise.committed) ++n_committed;
      if (t.committed) {
        ++n_committed;
        break;
      }
    }
  }
  ASSERT_GE(n_committed, 2);
  auto t = RunTxn(cluster, 2, {Read(0)});
  ASSERT_TRUE(t.committed);
  EXPECT_EQ(t.reads[0], std::to_string(n_committed));
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(Quorum, WeightedPlacementRespectsVotes) {
  ClusterConfig config;
  config.n_processors = 3;
  config.seed = 5;
  config.protocol = Protocol::kQuorum;
  config.quorum.read_quorum = 2;
  config.quorum.write_quorum = 2;
  config.has_custom_placement = true;
  // Object 0: weight 2 at p0, weight 1 at p1 (total 3; quorum 2).
  config.placement.AddCopy(0, 0, 2);
  config.placement.AddCopy(0, 1, 1);
  Cluster cluster(config);

  // p0 alone satisfies both quorums (2 votes).
  cluster.graph().Partition({{0}, {1, 2}});
  auto t = RunTxn(cluster, 0, {Write(0, "heavy")});
  EXPECT_TRUE(t.committed) << t.failure.ToString();
  // p1 alone (1 vote) cannot.
  auto t2 = RunTxn(cluster, 1, {Write(0, "light")}, sim::Seconds(3));
  EXPECT_FALSE(t2.committed);
}

}  // namespace
}  // namespace vp
