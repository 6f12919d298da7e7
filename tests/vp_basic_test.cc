// End-to-end smoke tests of the virtual-partition protocol: view
// convergence, basic transactions, partition behavior, and healing.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;

ClusterConfig BasicConfig(uint32_t n, uint64_t seed = 1) {
  return testutil::Cfg(n, seed);
}

TEST(VpBasic, ThreeNodesConvergeToOnePartition) {
  Cluster cluster(BasicConfig(3));
  cluster.RunFor(sim::Seconds(1));
  EXPECT_TRUE(cluster.VpConverged());
  for (ProcessorId p = 0; p < 3; ++p) {
    auto& node = cluster.vp_node(p);
    EXPECT_TRUE(node.assigned());
    EXPECT_EQ(node.view().size(), 3u);
    EXPECT_TRUE(node.locked_objects().empty());
  }
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(VpBasic, SimpleReadWriteCommit) {
  Cluster cluster(BasicConfig(3));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);

  bool read_done = false;
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().value, "0");
    read_done = true;
  });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(read_done);

  bool write_done = false;
  node.LogicalWrite(txn, 0, "hello", [&](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    write_done = true;
  });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(write_done);

  bool committed = false;
  node.Commit(txn, [&](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    committed = true;
  });
  cluster.RunFor(sim::Millis(200));
  ASSERT_TRUE(committed);

  // The write reached every copy (R3: write-all-in-view).
  for (ProcessorId p = 0; p < 3; ++p) {
    auto v = cluster.store(p).Read(0);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().value, "hello") << "copy at p" << p;
  }
  auto certify = cluster.Certify();
  EXPECT_TRUE(certify.ok) << certify.detail;
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(VpBasic, ReadUsesOnePhysicalAccess) {
  Cluster cluster(BasicConfig(5));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  auto& node = cluster.vp_node(2);
  // No other processor reads in this window: the delta is p2's own.
  const uint64_t before = testutil::Counter(cluster, "phys.reads_sent");
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool done = false;
  node.LogicalRead(txn, 1, [&](Result<core::ReadResult> r) {
    ASSERT_TRUE(r.ok());
    done = true;
  });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(done);
  EXPECT_EQ(testutil::Counter(cluster, "phys.reads_sent") - before, 1u);
  node.Commit(txn, [](Status) {});
  cluster.RunFor(sim::Millis(100));
}

TEST(VpBasic, MinorityPartitionIsUnavailable) {
  Cluster cluster(BasicConfig(5));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  // Split {0,1} | {2,3,4} and let views adapt.
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));

  // Minority side: object inaccessible.
  auto& minority = cluster.vp_node(0);
  EXPECT_LE(minority.view().size(), 2u);
  TxnId t1 = minority.NewTxnId();
  minority.Begin(t1);
  Status got;
  minority.LogicalRead(t1, 0, [&](Result<core::ReadResult> r) {
    got = r.status();
  });
  cluster.RunFor(sim::Millis(100));
  EXPECT_TRUE(got.IsUnavailable()) << got.ToString();

  // Majority side: fully operational.
  auto& majority = cluster.vp_node(3);
  EXPECT_EQ(majority.view().size(), 3u);
  TxnId t2 = majority.NewTxnId();
  majority.Begin(t2);
  bool wrote = false;
  majority.LogicalWrite(t2, 0, "from-majority", [&](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    wrote = true;
  });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(wrote);
  bool committed = false;
  majority.Commit(t2, [&](Status s) { committed = s.ok(); });
  cluster.RunFor(sim::Millis(200));
  EXPECT_TRUE(committed);
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(VpBasic, HealPropagatesLatestValueViaR5) {
  Cluster cluster(BasicConfig(5));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));

  // Write in the majority partition.
  auto& majority = cluster.vp_node(4);
  TxnId txn = majority.NewTxnId();
  majority.Begin(txn);
  majority.LogicalWrite(txn, 2, "healed-value", [](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  });
  cluster.RunFor(sim::Millis(100));
  bool committed = false;
  majority.Commit(txn, [&](Status s) { committed = s.ok(); });
  cluster.RunFor(sim::Millis(200));
  ASSERT_TRUE(committed);

  // Minority copies still stale.
  EXPECT_EQ(cluster.store(0).Read(2).value().value, "0");

  // Heal; R5 must bring p0 and p1 up to date.
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  EXPECT_TRUE(cluster.VpConverged());
  for (ProcessorId p = 0; p < 5; ++p) {
    EXPECT_EQ(cluster.store(p).Read(2).value().value, "healed-value")
        << "copy at p" << p;
    EXPECT_TRUE(cluster.vp_node(p).locked_objects().empty());
  }
  auto certify = cluster.Certify();
  EXPECT_TRUE(certify.ok) << certify.detail;
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(VpBasic, CrashedProcessorExcludedThenReadmitted) {
  Cluster cluster(BasicConfig(3));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  cluster.graph().SetAlive(2, false);
  cluster.RunFor(sim::Seconds(1));
  EXPECT_EQ(cluster.vp_node(0).view().size(), 2u);
  EXPECT_EQ(cluster.vp_node(0).view().count(2), 0u);

  cluster.graph().SetAlive(2, true);
  cluster.RunFor(sim::Seconds(2));
  EXPECT_TRUE(cluster.VpConverged());
  EXPECT_EQ(cluster.vp_node(0).view().size(), 3u);
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

}  // namespace
}  // namespace vp
