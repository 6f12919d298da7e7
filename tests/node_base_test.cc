// Unit tests of the shared transaction machinery (NodeBase): decision
// semantics, outcome broadcast retries and their piggybacked acks, the
// reliable channel's acks carried on replies, presumed abort, and in-doubt
// resolution — driven through live clusters with surgical link control.
#include <gtest/gtest.h>

#include <utility>

#include "cc/txn.h"
#include "core/test_env.h"
#include "core/vp_node.h"
#include "harness/cluster.h"
#include "storage/stable_store.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using testutil::Counter;

ClusterConfig Cfg(uint64_t seed) {
  return testutil::Cfg(3, seed, Protocol::kVirtualPartition,
                       /*n_objects=*/2);
}

// A cluster is not required to exercise NodeBase: TestEnv plus
// NodeEnv::ForTest wires protocol nodes directly on the sim substrate.
TEST(NodeEnvForTest, RunsTransactionsWithoutHarness) {
  core::TestEnv env;
  std::vector<std::unique_ptr<core::VpNode>> nodes;
  for (ProcessorId p = 0; p < env.size(); ++p) {
    nodes.push_back(std::make_unique<core::VpNode>(
        p, core::NodeEnv::ForTest(env, p), core::VpConfig()));
  }
  for (auto& node : nodes) node->Start();
  env.RunFor(sim::Seconds(1));
  ASSERT_TRUE(nodes[0]->assigned());

  testutil::TxnOutcome out;
  testutil::StartScriptedTxn(*nodes[0],
                             {testutil::Write(0, "direct"),
                              testutil::Read(0)},
                             &out);
  env.RunFor(sim::Seconds(1));
  ASSERT_TRUE(out.done);
  EXPECT_TRUE(out.committed) << out.failure.ToString();
  ASSERT_EQ(out.reads.size(), 1u);
  EXPECT_EQ(out.reads[0], "direct");
  // The write reached every copy through the normal physical path.
  EXPECT_EQ(env.store(1).Read(0).value().value, "direct");
}

TEST(DecisionLog, PresumedAbortSemantics) {
  cc::DecisionLog log;
  TxnId t1{0, 1}, t2{0, 2}, t3{0, 3};
  log.MarkActive(t1);
  log.MarkActive(t2);
  EXPECT_EQ(log.Query(t1), cc::TxnOutcome::kActive);
  log.Decide(t1, true);
  log.Decide(t2, false);
  EXPECT_EQ(log.Query(t1), cc::TxnOutcome::kCommitted);
  EXPECT_EQ(log.Query(t2), cc::TxnOutcome::kAborted);
  // Never-seen transactions are presumed aborted.
  EXPECT_EQ(log.Query(t3), cc::TxnOutcome::kAborted);
  EXPECT_EQ(log.committed_count(), 1u);
}

TEST(NodeBase, CommitOfUnknownTxnFails) {
  Cluster cluster(Cfg(1));
  cluster.RunFor(sim::Seconds(1));
  Status got;
  cluster.node(0).Commit(TxnId{0, 999}, [&](Status s) { got = s; });
  EXPECT_TRUE(got.IsNotFound());
}

TEST(NodeBase, DoubleCommitRejected) {
  Cluster cluster(Cfg(2));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  Status first, second;
  node.Commit(txn, [&](Status s) { first = s; });
  node.Commit(txn, [&](Status s) { second = s; });
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(second.IsAborted()) << second.ToString();
}

TEST(NodeBase, AbortIsIdempotent) {
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.node(0);
  // Only p0 runs a transaction in this window: the delta is p0's own.
  const uint64_t aborted = Counter(cluster, "node.txns_aborted");
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.Abort(txn);
  node.Abort(txn);  // No crash, no double accounting.
  cluster.RunFor(sim::Millis(100));
  EXPECT_EQ(Counter(cluster, "node.txns_aborted") - aborted, 1u);
}

TEST(NodeBase, CommitAfterAbortRejected) {
  Cluster cluster(Cfg(4));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.Abort(txn);
  Status got;
  node.Commit(txn, [&](Status s) { got = s; });
  EXPECT_TRUE(got.IsAborted());
}

TEST(NodeBase, ReadLocksReleasedAtRemoteParticipantOnCommit) {
  Cluster cluster(Cfg(5));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  ProcessorId served_by = kInvalidProcessor;
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) {
    ASSERT_TRUE(r.ok());
    served_by = r.value().served_by;
  });
  cluster.RunFor(sim::Millis(100));
  ASSERT_NE(served_by, kInvalidProcessor);
  EXPECT_TRUE(cluster.locks(served_by).Holds(txn, 0, cc::LockMode::kShared));
  node.Commit(txn, [](Status) {});
  cluster.RunFor(sim::Millis(200));
  EXPECT_FALSE(cluster.locks(served_by).Holds(txn, 0, cc::LockMode::kShared));
}

TEST(NodeBase, WriteLocksHeldUntilOutcomeThenReleased) {
  Cluster cluster(Cfg(6));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.LogicalWrite(txn, 1, "v", [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(100));
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_TRUE(cluster.locks(p).IsWriteLocked(1)) << "p" << p;
    EXPECT_TRUE(cluster.store(p).HasStage(1)) << "p" << p;
  }
  node.Abort(txn);
  cluster.RunFor(sim::Millis(200));
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_FALSE(cluster.locks(p).IsWriteLocked(1)) << "p" << p;
    EXPECT_FALSE(cluster.store(p).HasStage(1)) << "p" << p;
    EXPECT_EQ(cluster.store(p).Read(1).value().value, "0");
  }
}

TEST(NodeBase, InDoubtParticipantResolvesViaStatusQuery) {
  // Cut the participant off right after staging; drop the outcome; the
  // participant's periodic status query must resolve the stage once the
  // link returns — even if the coordinator's retry messages were lost.
  ClusterConfig config = Cfg(7);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.vp_node(0);
  TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.LogicalWrite(txn, 0, "decided", [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(cluster.store(2).HasStage(0));

  cluster.graph().Partition({{0, 1}, {2}});
  node.Commit(txn, [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Seconds(1));
  EXPECT_TRUE(cluster.store(2).HasStage(0));  // Still in doubt.

  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  EXPECT_FALSE(cluster.store(2).HasStage(0));
  EXPECT_EQ(cluster.store(2).Read(0).value().value, "decided");
}

// Forwards every message to `p`'s node and keeps a copy of each physical
// write, so a test can later redeliver one as a late network duplicate.
class PhysWriteTap : public net::NodeInterface {
 public:
  PhysWriteTap(Cluster* cluster, ProcessorId p) : cluster_(cluster), p_(p) {
    cluster_->network().Register(p_, this);
  }
  void HandleMessage(const net::Message& m) override {
    if (std::holds_alternative<core::msg::PhysWrite>(m.body)) {
      writes_.push_back(m);
    }
    cluster_->node(p_).HandleMessage(m);
  }
  /// The first physical write carrying `value`.
  const net::Message* Find(const Value& value) const {
    for (const net::Message& m : writes_) {
      if (std::get<core::msg::PhysWrite>(m.body).value == value) return &m;
    }
    return nullptr;
  }

 private:
  Cluster* cluster_;
  ProcessorId p_;
  std::vector<net::Message> writes_;
};

// The value `txn` has staged on object 0 at p2, or "<none>".
Value Staged(Cluster& cluster, TxnId txn) {
  auto staged = cluster.store(2).StagedValue(txn, 0);
  return staged.has_value() ? staged->value : "<none>";
}

// Stages op A ('3') and then op B ('4') of one transaction on object 0.
// Returns the transaction.
TxnId StageTwoWrites(Cluster& cluster) {
  core::NodeBase& node = cluster.node(0);
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.LogicalWrite(txn, 0, "3", [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(100));
  node.LogicalWrite(txn, 0, "4", [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(100));
  EXPECT_EQ(Staged(cluster, txn), "4");
  return txn;
}

TEST(NodeBase, LateDuplicateOfOlderWriteDoesNotReplaceNewerStage) {
  // Both writes carry the same date, so a copy that commits the older
  // value could never be repaired by a max-date read: the participant must
  // refuse to re-stage an older op of the transaction over a newer one.
  Cluster cluster(Cfg(9));
  cluster.RunFor(sim::Seconds(1));
  PhysWriteTap tap(&cluster, 2);
  const TxnId txn = StageTwoWrites(cluster);
  const net::Message* dup = tap.Find("3");
  ASSERT_NE(dup, nullptr);

  cluster.node(2).HandleMessage(*dup);
  cluster.RunFor(sim::Millis(50));
  EXPECT_EQ(Staged(cluster, txn), "4");
  Status commit = Status::Internal("callback not run");
  cluster.node(0).Commit(txn, [&](Status s) { commit = s; });
  cluster.RunFor(sim::Millis(500));
  ASSERT_TRUE(commit.ok()) << commit.ToString();
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "4") << "p" << p;
  }
}

TEST(NodeBase, LateDuplicateAfterAmnesiaRebootDoesNotReplaceNewerStage) {
  // WAL replay rebuilds the stage, so the guard must survive the reboot;
  // the reliable channel's dedup state does not, and may let one
  // redelivery through. ROWA runs here because it writes every copy and
  // checks no vp-id: under VP, R4 would already refuse the pre-reboot
  // duplicate, whereas this exercises the guard itself.
  ClusterConfig config = testutil::Cfg(3, 10, Protocol::kRowa,
                                       /*n_objects=*/2);
  config.durability = storage::DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  PhysWriteTap tap(&cluster, 2);
  const TxnId txn = StageTwoWrites(cluster);
  ASSERT_NE(tap.Find("3"), nullptr);
  const net::Message dup = *tap.Find("3");

  cluster.injector().CrashAmnesiaAt(cluster.scheduler().Now(), 2);
  cluster.injector().RecoverAt(cluster.scheduler().Now() + sim::Millis(20),
                               2);
  cluster.RunFor(sim::Millis(30));
  ASSERT_EQ(cluster.stable(2).incarnation(), 1u);
  EXPECT_EQ(Staged(cluster, txn), "4");

  cluster.node(2).HandleMessage(dup);
  cluster.RunFor(sim::Millis(5));
  EXPECT_EQ(Staged(cluster, txn), "4");
  Status commit = Status::Internal("callback not run");
  cluster.node(0).Commit(txn, [&](Status s) { commit = s; });
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(commit.ok()) << commit.ToString();
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "4") << "p" << p;
  }
}

TEST(VpWrite, FootprintCoversTheWritesOwnCopies) {
  // §6 condition (2) checks a write's footprint against each server's view.
  // A first operation has no earlier participants, so unless the footprint
  // carries the write's own copies it is empty and passes trivially at a
  // server whose newer view excludes them.
  Cluster cluster(Cfg(9));
  cluster.RunFor(sim::Seconds(1));
  PhysWriteTap tap(&cluster, 2);
  core::NodeBase& node = cluster.node(0);
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.LogicalWrite(txn, 0, "first", [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(100));
  const net::Message* m = tap.Find("first");
  ASSERT_NE(m, nullptr);
  const auto& footprint = std::get<core::msg::PhysWrite>(m->body).footprint;
  for (ProcessorId q : cluster.placement().CopyHolders(0)) {
    EXPECT_EQ(footprint.count(q), 1u) << "target p" << q;
  }
}

// --- Outcome acks ride on traffic to the coordinator ---

/// Messages of body type T the network has carried so far.
template <typename T>
uint64_t SentOfType(Cluster& cluster) {
  return cluster.network().stats().sent_by_type[net::Body(T{}).index()];
}

/// Outcome rounds the coordinators have seen fully acked, and the sum of
/// their decision-to-last-ack times.
std::pair<uint64_t, uint64_t> AckedRounds(Cluster& cluster) {
  const obs::MetricsSnapshot snap = cluster.metrics().Snapshot();
  const auto* h = snap.FindHistogram("txn.outcome_ack_us");
  return h == nullptr ? std::pair<uint64_t, uint64_t>{0, 0}
                      : std::pair<uint64_t, uint64_t>{h->count, h->sum};
}

/// Commits one write of object 0 at p0 (every copy participates).
void CommitWrite(Cluster& cluster, const Value& v) {
  const testutil::TxnOutcome out =
      testutil::RunTxn(cluster, 0, {testutil::Write(0, v)});
  ASSERT_TRUE(out.committed) << out.failure.ToString();
}

/// Drops every standalone ack (the flush) addressed to p0 and forwards
/// the rest: the flush removed, as far as the coordinator can tell.
class DropAckFlushes : public net::NodeInterface {
 public:
  explicit DropAckFlushes(Cluster* cluster) : cluster_(cluster) {
    cluster_->network().Register(0, this);
  }
  void HandleMessage(const net::Message& m) override {
    if (std::holds_alternative<core::msg::TxnOutcomeAck>(m.body)) return;
    cluster_->node(0).HandleMessage(m);
  }

 private:
  Cluster* cluster_;
};

TEST(OutcomeAcks, SteadyWriteStreamSendsNoStandaloneAckOrRetry) {
  // Each participant's ack rides on its reply to the next transaction's
  // write, so a back-to-back stream needs no ack message of its own.
  Cluster cluster(Cfg(11));
  cluster.RunFor(sim::Seconds(1));
  constexpr uint64_t kTxns = 20;
  const uint64_t outcomes_before = SentOfType<core::msg::TxnOutcomeMsg>(cluster);
  for (uint64_t i = 0; i < kTxns; ++i) CommitWrite(cluster, std::to_string(i));

  EXPECT_EQ(SentOfType<core::msg::TxnOutcomeAck>(cluster), 0u);
  EXPECT_EQ(SentOfType<core::msg::TxnOutcomeMsg>(cluster) - outcomes_before,
            2 * kTxns);  // One per remote participant: no retry.
  EXPECT_GE(Counter(cluster, "node.outcome_acks_piggybacked"),
            2 * (kTxns - 1));
  // The last transaction's acks have no carrier; the flush sends them.
  cluster.RunFor(sim::Millis(100));
  EXPECT_EQ(AckedRounds(cluster).first, kTxns);
  EXPECT_LE(Counter(cluster, "node.outcome_ack_flushes"), 2u);
  EXPECT_EQ(SentOfType<core::msg::TxnOutcomeMsg>(cluster) - outcomes_before,
            2 * kTxns);
}

ClusterConfig RowaCfg(uint64_t seed) {
  // No periodic traffic (ROWA does not probe), so an idle commit's acks
  // have no carrier but the flush.
  return testutil::Cfg(3, seed, Protocol::kRowa, /*n_objects=*/2);
}

TEST(OutcomeAcks, LoneIdleCommitIsAckedByTheFlushWithinTheBound) {
  Cluster cluster(RowaCfg(12));
  cluster.RunFor(sim::Millis(100));
  CommitWrite(cluster, "lone");
  cluster.RunFor(sim::Millis(200));
  const auto [rounds, total_us] = AckedRounds(cluster);
  EXPECT_EQ(rounds, 1u);
  EXPECT_EQ(Counter(cluster, "node.outcome_ack_flushes"), 2u);
  EXPECT_EQ(SentOfType<core::msg::TxnOutcomeMsg>(cluster), 2u);  // No retry.
  // Outcome hop + flush delay (retry period / 4 = 10 ms) + ack hop, each
  // hop at most 5 ms: inside the 40 ms retry period.
  EXPECT_LE(total_us, 20000u);
}

TEST(OutcomeAcks, WithoutTheFlushAnIdleCommitIsNeverAcked) {
  // Negative control for the test above: the same idle commit, with the
  // flush's messages removed, keeps the coordinator retrying the outcome.
  Cluster cluster(RowaCfg(12));
  cluster.RunFor(sim::Millis(100));
  DropAckFlushes drop(&cluster);
  CommitWrite(cluster, "lone");
  cluster.RunFor(sim::Seconds(1));
  EXPECT_EQ(AckedRounds(cluster).first, 0u);
  EXPECT_GT(SentOfType<core::msg::TxnOutcomeMsg>(cluster), 20u);
}

TEST(OutcomeAcks, ParticipantCrashWhileOwingAcksResolvesByOutcomeRetry) {
  Cluster cluster(RowaCfg(13));
  cluster.RunFor(sim::Millis(100));
  core::NodeBase& node = cluster.node(0);
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  node.LogicalWrite(txn, 0, "owed", [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(50));
  node.Commit(txn, [](Status s) { ASSERT_TRUE(s.ok()); });
  // Step until p1 applies the outcome: it now owes p0 the ack.
  while (cluster.store(1).HasStage(0)) {
    ASSERT_TRUE(cluster.scheduler().RunOne());
  }
  ASSERT_EQ(Counter(cluster, "node.outcome_ack_flushes"), 0u);
  const sim::SimTime now = cluster.scheduler().Now();
  cluster.injector().CrashAt(now, 1);
  cluster.injector().RecoverAt(now + sim::Millis(100), 1);
  cluster.RunFor(sim::Millis(50));
  EXPECT_EQ(AckedRounds(cluster).first, 0u);  // p1's ack died with it.
  cluster.RunFor(sim::Seconds(1));
  EXPECT_EQ(AckedRounds(cluster).first, 1u);
  // The coordinator retried until the recovered p1 acked again.
  EXPECT_GT(SentOfType<core::msg::TxnOutcomeMsg>(cluster), 2u);
  EXPECT_EQ(cluster.store(1).Read(0).value().value, "owed");
}

// --- Reliable-channel acks ride on the reply ---

ClusterConfig ReliableCfg(uint64_t seed) {
  ClusterConfig c = Cfg(seed);
  c.reliable.enabled = true;
  // Every hop 1 ms: a round trip stays inside the first retransmit delay,
  // so any retransmission below means an ack left late.
  c.net.min_delay = sim::Millis(1);
  c.net.max_delay = sim::Millis(1);
  return c;
}

/// Counts the standalone reliable-channel acks delivered to `p`, and
/// forwards everything.
class RelAckTap : public net::NodeInterface {
 public:
  RelAckTap(Cluster* cluster, ProcessorId p) : cluster_(cluster), p_(p) {
    cluster_->network().Register(p_, this);
  }
  void HandleMessage(const net::Message& m) override {
    if (std::holds_alternative<core::msg::RelAck>(m.body)) ++acks_;
    cluster_->node(p_).HandleMessage(m);
  }
  uint64_t acks() const { return acks_; }

 private:
  Cluster* cluster_;
  ProcessorId p_;
  uint64_t acks_ = 0;
};

TEST(RelAcks, InlineServedRequestSendsNoStandaloneAck) {
  Cluster cluster(ReliableCfg(14));
  cluster.RunFor(sim::Seconds(1));
  RelAckTap tap(&cluster, 0);
  const uint64_t carried = Counter(cluster, "rel.acks_carried");
  core::NodeBase& node = cluster.node(0);
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool written = false;
  node.LogicalWrite(txn, 0, "inline", [&](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    written = true;
  });
  cluster.RunFor(sim::Millis(20));
  ASSERT_TRUE(written);
  // p1 and p2 served the write at once; each reply carried the ack.
  EXPECT_EQ(tap.acks(), 0u);
  EXPECT_EQ(Counter(cluster, "rel.acks_carried") - carried, 2u);
  // Cluster-wide: no processor, p0 included, has retransmitted anything.
  EXPECT_EQ(Counter(cluster, "rel.retransmits"), 0u);
  node.Commit(txn, [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(100));
  EXPECT_EQ(cluster.store(2).Read(0).value().value, "inline");
}

TEST(RelAcks, RequestParkedOnALockIsAckedAtOnce) {
  // p2 holds the write lock of object 0 everywhere; p0's write then waits
  // at each copy. The channel must ack the parked requests in the dispatch
  // that received them: an ack held back for the reply would leave p0
  // retransmitting every few milliseconds of the wait.
  Cluster cluster(ReliableCfg(15));
  cluster.RunFor(sim::Seconds(1));
  core::NodeBase& holder = cluster.node(2);
  const TxnId blocker = holder.NewTxnId();
  holder.Begin(blocker);
  holder.LogicalWrite(blocker, 0, "first",
                      [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(20));
  ASSERT_TRUE(cluster.store(1).HasStage(0));

  RelAckTap tap(&cluster, 0);
  core::NodeBase& node = cluster.node(0);
  // Cluster-wide: a zero delta means p0, like every other processor,
  // retransmitted nothing during the wait.
  const uint64_t retransmits = Counter(cluster, "rel.retransmits");
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool done = false;
  node.LogicalWrite(txn, 0, "second", [&](Status) { done = true; });
  cluster.RunFor(sim::Millis(50));
  EXPECT_FALSE(done);  // Still waiting for the lock.
  EXPECT_EQ(tap.acks(), 2u);  // p1's and p2's, each alone.
  EXPECT_EQ(Counter(cluster, "rel.retransmits") - retransmits, 0u);
}

// --- The R5 recovery exchange at the holder ---

/// Records the recovery replies delivered to `p`, and forwards everything.
class RecoveryReplyTap : public net::NodeInterface {
 public:
  RecoveryReplyTap(Cluster* cluster, ProcessorId p)
      : cluster_(cluster), p_(p) {
    cluster_->network().Register(p_, this);
  }
  void HandleMessage(const net::Message& m) override {
    if (const auto* r = std::get_if<core::msg::RecoveryReply>(&m.body)) {
      replies_.push_back(*r);
    }
    cluster_->node(p_).HandleMessage(m);
  }
  const std::vector<core::msg::RecoveryReply>& replies() const {
    return replies_;
  }

 private:
  Cluster* cluster_;
  ProcessorId p_;
  std::vector<core::msg::RecoveryReply> replies_;
};

TEST(RecoveryExchange, WriteLockedItemIsAnsweredAloneAfterTheOthers) {
  // p2 reboots with an in-doubt prepare of object 0 re-staged from its
  // WAL, so object 0 is write-locked there until the coordinator decides.
  // A recovery request for objects 0-2 must not wait for that lock: the
  // other two come back at once in one reply, object 0 alone afterwards.
  ClusterConfig config = testutil::Cfg(3, 16, Protocol::kVirtualPartition,
                                       /*n_objects=*/3);
  config.durability = storage::DurabilityMode::kWal;
  config.net.min_delay = sim::Millis(1);
  config.net.max_delay = sim::Millis(1);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  core::NodeBase& coord = cluster.node(0);
  const TxnId txn = coord.NewTxnId();
  coord.Begin(txn);
  coord.LogicalWrite(txn, 0, "in-doubt", [](Status s) { ASSERT_TRUE(s.ok()); });
  cluster.RunFor(sim::Millis(10));
  cluster.injector().CrashAmnesiaAt(cluster.scheduler().Now(), 2);
  cluster.injector().RecoverAt(cluster.scheduler().Now() + sim::Millis(2), 2);
  cluster.RunFor(sim::Millis(3));
  ASSERT_EQ(cluster.stable(2).incarnation(), 1u);
  ASSERT_TRUE(cluster.store(2).HasStage(0));

  RecoveryReplyTap tap(&cluster, 1);
  net::Message req;
  req.src = 1;
  req.dst = 2;
  core::msg::RecoveryRead body;
  body.v = cluster.vp_node(2).cur_id();
  for (ObjectId obj = 0; obj < 3; ++obj) {
    body.items.push_back({obj, 900 + obj, core::msg::RecoveryWant::kValue, {}});
  }
  req.body = body;
  cluster.node(2).HandleMessage(req);
  cluster.RunFor(sim::Millis(5));
  ASSERT_EQ(tap.replies().size(), 1u);
  ASSERT_EQ(tap.replies()[0].items.size(), 2u);
  EXPECT_EQ(tap.replies()[0].items[0].op_id, 901u);
  EXPECT_EQ(tap.replies()[0].items[1].op_id, 902u);
  EXPECT_TRUE(tap.replies()[0].items[0].ok);
  EXPECT_TRUE(tap.replies()[0].items[1].ok);
  EXPECT_TRUE(cluster.store(2).HasStage(0));

  Status commit = Status::Internal("callback not run");
  coord.Commit(txn, [&](Status s) { commit = s; });
  cluster.RunFor(sim::Millis(10));
  ASSERT_TRUE(commit.ok()) << commit.ToString();
  EXPECT_FALSE(cluster.store(2).HasStage(0));
  ASSERT_EQ(tap.replies().size(), 2u);
  ASSERT_EQ(tap.replies()[1].items.size(), 1u);
  EXPECT_EQ(tap.replies()[1].items[0].op_id, 900u);
  EXPECT_TRUE(tap.replies()[1].items[0].ok);
  EXPECT_EQ(tap.replies()[1].items[0].value, "in-doubt");
}

TEST(NodeBase, TxnIdsAreUniquePerNode) {
  Cluster cluster(Cfg(8));
  auto& a = cluster.node(0);
  auto& b = cluster.node(1);
  TxnId a1 = a.NewTxnId(), a2 = a.NewTxnId(), b1 = b.NewTxnId();
  EXPECT_NE(a1, a2);
  EXPECT_NE(a1, b1);
  EXPECT_EQ(a1.coordinator, 0u);
  EXPECT_EQ(b1.coordinator, 1u);
}

}  // namespace
}  // namespace vp
