// A node serves its own copies by direct call (NodeBase::SendPhys): no
// network message, no scheduled delivery, no timer. These tests pin that
// inline path and the reentrancy it brings — a reply, and the client code
// behind it, runs before the send returns.
#include <gtest/gtest.h>

#include "core/test_env.h"
#include "core/vp_node.h"
#include "harness/cluster.h"
#include "protocols/quorum_node.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;

/// Schedules a no-op marker event and returns its id. Ids are sequential,
/// so the gap between two markers counts the events scheduled in between.
sim::EventId MarkEvents(core::TestEnv& env) {
  return env.scheduler().ScheduleAfter(0, [] {});
}

TEST(LocalOps, AllLocalReadOnlyVpTxnNeedsNoMessageOrTimer) {
  core::TestEnv env;
  std::vector<std::unique_ptr<core::VpNode>> nodes;
  for (ProcessorId p = 0; p < env.size(); ++p) {
    nodes.push_back(std::make_unique<core::VpNode>(
        p, core::NodeEnv::ForTest(env, p), core::VpConfig()));
  }
  for (auto& node : nodes) node->Start();
  env.RunFor(sim::Seconds(1));
  ASSERT_TRUE(nodes[0]->assigned());
  ASSERT_EQ(nodes[0]->view().size(), env.size());

  core::VpNode& node = *nodes[0];
  const uint64_t sent_before = env.network().stats().sent;
  const sim::EventId mark = MarkEvents(env);
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  std::vector<Value> reads;
  Status commit = Status::Internal("callback not run");
  // Full replication: R2 picks the local copy for both reads, and the
  // outcome's only participant is this node. Everything completes before
  // the calls return, without running the simulator.
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().served_by, 0u);
    reads.push_back(r.value().value);
  });
  node.LogicalRead(txn, 1, [&](Result<core::ReadResult> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reads.push_back(r.value().value);
  });
  node.Commit(txn, [&](Status s) { commit = s; });

  EXPECT_EQ(reads, (std::vector<Value>{"0", "0"}));
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  EXPECT_EQ(env.network().stats().sent, sent_before);
  // No read timeout, outcome retry or delivery was scheduled (not even
  // armed and cancelled): the next event id follows the marker directly.
  EXPECT_EQ(MarkEvents(env), mark + 1);
  EXPECT_TRUE(env.recorder().safety_violations().empty());
}

TEST(LocalOps, QuorumMetByTheLocalCopySendsNoFurtherPolls) {
  core::TestEnv env;
  protocols::QuorumConfig config;
  config.read_quorum = 1;
  config.poll_all = true;  // Would contact every copy if replies lagged.
  std::vector<std::unique_ptr<protocols::QuorumNode>> nodes;
  for (ProcessorId p = 0; p < env.size(); ++p) {
    nodes.push_back(std::make_unique<protocols::QuorumNode>(
        p, core::NodeEnv::ForTest(env, p), config));
  }
  for (auto& node : nodes) node->Start();
  env.RunFor(sim::Millis(10));

  protocols::QuorumNode& node = *nodes[0];
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool read_ok = false;
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) {
    read_ok = r.ok();
  });
  // The local copy's inline reply met the quorum before any other copy
  // was polled.
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(env.network().stats().sent, 0u);

  Status commit = Status::Internal("callback not run");
  node.Commit(txn, [&](Status s) { commit = s; });
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  // From here on p0 has nothing left to do: any lock grant in this window
  // is p1's or p2's, serving a poll that should never have been sent.
  const uint64_t grants = env.metrics().Snapshot().CounterValue("lock.grants");
  env.RunFor(sim::Millis(100));
  // Only the local copy participated, so no outcome left the node either.
  EXPECT_EQ(env.network().stats().sent, 0u);
  EXPECT_EQ(env.metrics().Snapshot().CounterValue("lock.grants") - grants,
            0u);
}

TEST(LocalOps, ReadChainedFromAReplayedMessageStillWaitsForR5) {
  // p0 joins a new vp whose copy initialization (R5) must full-read both
  // objects. Object 0's recovery finishes first (one remote source);
  // object 1's waits behind the X locks of a write that survives the view
  // change under weakened R4. A local transaction's read of object 0 parks
  // until object 0 unlocks; its replay completes inline, and the client
  // chains a read of object 1 from inside that replay. That read must park
  // too — object 1 is still uninitialized — and not be served until R5
  // unlocks it.
  ClusterConfig config = testutil::Cfg(3, /*seed=*/21,
                                       Protocol::kVirtualPartition,
                                       /*n_objects=*/2);
  config.vp.weakened_r4 = true;
  config.vp.recovery = core::RecoveryMode::kFullRead;
  config.placement.AddCopy(0, 0, /*w=*/2);
  config.placement.AddCopy(0, 1);
  for (ProcessorId p = 0; p < 3; ++p) config.placement.AddCopy(1, p);
  config.has_custom_placement = true;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  core::VpNode& node = cluster.vp_node(0);
  const TxnId writer = node.NewTxnId();
  node.Begin(writer);
  bool write_ok = false;
  node.LogicalWrite(writer, 1, "w", [&](Status s) { write_ok = s.ok(); });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(write_ok);

  const VpId old_vp = node.cur_id();
  node.ForceCreateNewVp();
  for (int i = 0; i < 100000 && !(node.assigned() && old_vp < node.cur_id());
       ++i) {
    ASSERT_TRUE(cluster.scheduler().RunOne());
  }
  ASSERT_TRUE(node.assigned());
  ASSERT_EQ(node.locked_objects(), (std::set<ObjectId>{0, 1}));

  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool read0_done = false;
  bool read1_done = false;
  bool read1_while_locked = false;
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    read0_done = true;
    node.LogicalRead(txn, 1, [&](Result<core::ReadResult> r1) {
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();
      EXPECT_EQ(r1.value().value, "w");
      read1_done = true;
      read1_while_locked = node.locked_objects().count(1) > 0;
    });
  });
  EXPECT_FALSE(read0_done) << "object 0 is still being initialized";
  for (int i = 0; i < 100000 && !read0_done; ++i) {
    ASSERT_TRUE(cluster.scheduler().RunOne());
  }
  ASSERT_TRUE(read0_done);
  ASSERT_EQ(node.locked_objects(), (std::set<ObjectId>{1}));
  EXPECT_FALSE(read1_done);

  // The writer commits: its local outcome releases object 1's X lock at p0
  // inline, while the remote copies still hold theirs.
  Status writer_commit = Status::Internal("callback not run");
  node.Commit(writer, [&](Status s) { writer_commit = s; });
  ASSERT_TRUE(writer_commit.ok()) << writer_commit.ToString();
  cluster.RunFor(sim::Millis(500));
  ASSERT_TRUE(read1_done);
  EXPECT_FALSE(read1_while_locked)
      << "a read of an uninitialized copy was served";
  Status commit = Status::Internal("callback not run");
  node.Commit(txn, [&](Status s) { commit = s; });
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  EXPECT_TRUE(cluster.Certify().ok);
}

}  // namespace
}  // namespace vp
