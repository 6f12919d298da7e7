// Protocol-mechanism tests: R4 and its §6 weakening, stale reads across
// overlapping views, R2 read retry, commit blocking with in-doubt stages,
// and view-management details.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using testutil::Read;
using testutil::RunTxn;
using testutil::StartScriptedTxn;
using testutil::TxnOutcome;
using testutil::Write;

ClusterConfig Config(uint32_t n, uint64_t seed = 3) {
  return testutil::Cfg(n, seed, Protocol::kVirtualPartition,
                       /*n_objects=*/3);
}

TEST(VpR4, TxnAbortsWhenCoordinatorChangesPartition) {
  Cluster cluster(Config(5));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool read_ok = false;
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) {
    read_ok = r.ok();
  });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(read_ok);

  // Force a view change before commit (e.g. a probe discrepancy).
  node.ForceCreateNewVp();
  cluster.RunFor(sim::Millis(200));

  Status commit_status;
  node.Commit(txn, [&](Status s) { commit_status = s; });
  cluster.RunFor(sim::Millis(100));
  EXPECT_TRUE(commit_status.IsAborted()) << commit_status.ToString();
}

TEST(VpR4, WeakenedR4AllowsCrossPartitionCommit) {
  ClusterConfig config = Config(5);
  config.vp.weakened_r4 = true;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool read_ok = false;
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) {
    read_ok = r.ok();
  });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(read_ok);

  // A view change that keeps the footprint in view (the view only grows
  // back to the same clique) must NOT doom the transaction under §6.
  node.ForceCreateNewVp();
  cluster.RunFor(sim::Millis(300));
  ASSERT_TRUE(cluster.VpConverged());

  Status commit_status = Status::Internal("no cb");
  node.Commit(txn, [&](Status s) { commit_status = s; });
  cluster.RunFor(sim::Millis(200));
  EXPECT_TRUE(commit_status.ok()) << commit_status.ToString();
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(VpStaleness, MinorityReaderSeesStaleDataUntilProbeDetects) {
  // §4 discussion: a processor slow to detect a failure can keep reading
  // stale data from its old view. We freeze the minority's detection
  // window by using a long probe period.
  ClusterConfig config = Config(5, 9);
  config.vp.probe_period = sim::Seconds(2);  // Slow detection.
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(5));
  ASSERT_TRUE(cluster.VpConverged());

  // Cut p0 off from everyone; p0 doesn't know yet (no probe fired).
  cluster.graph().Partition({{0}, {1, 2, 3, 4}});
  // Majority detects quickly? No — probes are slow for everyone. Drive the
  // majority to re-form by forcing a creation (models their detection).
  cluster.vp_node(1).ForceCreateNewVp();
  cluster.RunFor(sim::Millis(300));

  // Majority writes a new value.
  auto tw = RunTxn(cluster, 1, {Write(0, "fresh")});
  ASSERT_TRUE(tw.committed) << tw.failure.ToString();
  cluster.RunFor(sim::Millis(100));

  // p0, still believing its old 5-member view, reads its local copy: the
  // majority of copies is "in view", so the read is permitted — and stale.
  auto tr = RunTxn(cluster, 0, {Read(0)});
  ASSERT_TRUE(tr.committed) << tr.failure.ToString();
  EXPECT_EQ(tr.reads[0], "0");  // Stale: the fresh value is "fresh".
  cluster.RunFor(sim::Millis(100));

  EXPECT_GE(cluster.recorder().CountStaleReads(), 1u);
  // Stale reads are 1SR-legal: the reader serializes before the writer.
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;

  // Once probing kicks in, p0's view shrinks and the staleness window ends.
  cluster.RunFor(sim::Seconds(5));
  EXPECT_EQ(cluster.vp_node(0).view(), (std::set<ProcessorId>{0}));
}

TEST(VpReadRetry, FallbackToAnotherCopyOnLockTimeout) {
  ClusterConfig config = Config(3, 31);
  config.vp.read_retry = true;
  config.vp.lock_timeout = sim::Millis(30);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  // Write-lock object 0 at p0 (the nearest copy for p0's reads) with a
  // foreign transaction that never completes.
  TxnId blocker{2, 999};
  cluster.locks(0).Acquire(blocker, 0, cc::LockMode::kExclusive,
                           sim::Seconds(60), [](Status) {});

  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  Result<core::ReadResult> result = Status::Internal("pending");
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) { result = r; });
  cluster.RunFor(sim::Millis(500));
  // The read failed at p0 (lock timeout) but succeeded at a fallback copy.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result.value().served_by, 0u);
}

TEST(VpCommit, OutcomeRetriesReachParticipantAfterHeal) {
  // A participant cut off between staging and the outcome broadcast must
  // learn the decision once connectivity returns (blocking 2PC semantics).
  ClusterConfig config = Config(3, 41);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool wrote = false;
  node.LogicalWrite(txn, 0, "decided", [&](Status s) { wrote = s.ok(); });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(wrote);

  // Cut p2 off, then commit: the outcome cannot reach p2 now.
  cluster.graph().Partition({{0, 1}, {2}});
  bool committed = false;
  node.Commit(txn, [&](Status s) { committed = s.ok(); });
  cluster.RunFor(sim::Millis(200));
  ASSERT_TRUE(committed);
  // p2 still holds the stage (in doubt).
  EXPECT_TRUE(cluster.store(2).HasStage(0));
  EXPECT_EQ(cluster.store(2).Read(0).value().value, "0");

  // Heal: the retry loop (or the in-doubt query) resolves p2.
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  EXPECT_FALSE(cluster.store(2).HasStage(0));
  EXPECT_EQ(cluster.store(2).Read(0).value().value, "decided");
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(VpCommit, InDoubtStageBlocksConflictingReaders) {
  // §6 condition (3): a recovery/transactional read must wait for a write
  // lock. An in-doubt stage therefore blocks readers of that copy until
  // the outcome arrives — never serving a maybe-committed value.
  ClusterConfig config = Config(3, 43);
  config.vp.lock_timeout = sim::Millis(50);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());

  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.LogicalWrite(txn, 0, "maybe", [](Status) {});
  cluster.RunFor(sim::Millis(100));

  // p2's copy is staged and X-locked. A reader routed to p2 must not see
  // "maybe" nor "0" until txn decides — it waits, then times out.
  auto& reader = cluster.vp_node(2);
  TxnId rtxn = reader.NewTxnId();
  reader.Begin(rtxn);
  Result<core::ReadResult> got = Status::Internal("pending");
  reader.LogicalRead(rtxn, 0, [&](Result<core::ReadResult> r) { got = r; });
  cluster.RunFor(sim::Millis(20));
  EXPECT_FALSE(got.ok());  // Still waiting on the lock.

  // Decide commit: the lock releases and... this reader's wait either
  // succeeds with the committed value or timed out; drive to completion.
  bool committed = false;
  node.Commit(txn, [&](Status s) { committed = s.ok(); });
  cluster.RunFor(sim::Millis(300));
  ASSERT_TRUE(committed);
  if (got.ok()) {
    EXPECT_EQ(got.value().value, "maybe");
  } else {
    EXPECT_TRUE(got.status().IsAborted() || got.status().IsTimeout());
  }
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(VpView, CommitToAcceptorsOnlyReducesMessages) {
  ClusterConfig a = Config(7, 51);
  ClusterConfig b = Config(7, 51);
  b.vp.commit_to_acceptors_only = true;
  Cluster ca(std::move(a)), cb(std::move(b));
  ca.RunFor(sim::Seconds(2));
  cb.RunFor(sim::Seconds(2));
  EXPECT_TRUE(ca.VpConverged());
  EXPECT_TRUE(cb.VpConverged());
  const auto sa = ca.network().stats().sent_by_type;
  const auto sb = cb.network().stats().sent_by_type;
  // With everyone accepting, the counts coincide; after churn with partial
  // acceptance the optimized variant sends no more commits than the paper's.
  const size_t commit = net::Body(core::msg::VpCommit{}).index();
  ASSERT_STREQ(core::msg::kNames[commit], "vp-commit");
  EXPECT_LE(sb[commit], sa[commit]);
}

TEST(VpView, ViewsOfDisjointPartitionsCanOverlapInTime) {
  // After {0,1} | {2,3,4} forms, p0's view is {0,1} and p2's {2,3,4}; no
  // object majority is shared, so only one side can write any object.
  Cluster cluster(Config(5, 53));
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  auto tw_minority = RunTxn(cluster, 0, {Write(0, "x")});
  EXPECT_FALSE(tw_minority.committed);
  EXPECT_TRUE(tw_minority.failure.IsUnavailable());
  auto tw_majority = RunTxn(cluster, 2, {Write(0, "y")});
  EXPECT_TRUE(tw_majority.committed) << tw_majority.failure.ToString();
}

TEST(VpView, RecoveredNodeRejoinsViaProbe) {
  Cluster cluster(Config(4, 57));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  const VpId before = cluster.vp_node(3).cur_id();

  cluster.graph().SetAlive(3, false);
  cluster.RunFor(sim::Seconds(2));
  cluster.graph().SetAlive(3, true);
  cluster.RunFor(sim::Seconds(3));

  EXPECT_TRUE(cluster.VpConverged());
  EXPECT_EQ(cluster.vp_node(3).view().size(), 4u);
  EXPECT_LT(before, cluster.vp_node(3).cur_id());
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

}  // namespace
}  // namespace vp
