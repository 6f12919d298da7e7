// Message-level tests of the virtual-partition creation machinery
// (Fig. 4-6): invitation contention, lost acceptances, lost commits,
// monitor timeouts, stale messages, logical ops issued while a partition
// forms, no-response timers that outlive their view, and the date-poll
// recovery mode.
// Raw protocol messages are injected through the network to exercise
// paths that whole-cluster runs reach only probabilistically.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/vp_messages.h"
#include "harness/cluster.h"
#include "net/topology_gen.h"
#include "test_util.h"

namespace vp {
namespace {

using core::msg::NewVp;
using core::msg::VpCommit;
using core::msg::VpOk;
using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;

/// Injects one raw protocol message from `src` to `dst`.
void Inject(Cluster& cluster, ProcessorId src, ProcessorId dst,
            net::Body body) {
  net::Message m;
  m.src = src;
  m.dst = dst;
  m.body = std::move(body);
  cluster.network().Send(std::move(m));
}

/// Virtual partitions processor `p` formed itself and joined (their ids
/// carry p), from the recorder's view events: the creations p initiated
/// that committed, plus its initial singleton partition.
uint64_t SelfFormedJoins(Cluster& cluster, ProcessorId p) {
  uint64_t joins = 0;
  for (const auto& e : cluster.recorder().view_events()) {
    if (e.p == p && e.is_join && e.vp.p == p) ++joins;
  }
  return joins;
}

ClusterConfig Cfg(uint32_t n, uint64_t seed = 13) {
  return testutil::Cfg(n, seed, Protocol::kVirtualPartition,
                       /*n_objects=*/2);
}

TEST(VpCreation, InvitationWithLowerIdIsIgnored) {
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  auto& node = cluster.vp_node(1);
  const VpId cur = node.cur_id();

  // Inject a stale invitation numbered below the current max.
  Inject(cluster, 2, 1, NewVp{VpId{0, 2}});
  cluster.RunFor(sim::Millis(50));
  EXPECT_TRUE(node.assigned());           // Not departed.
  EXPECT_EQ(node.cur_id(), cur);          // Unchanged.
}

TEST(VpCreation, InvitationWithHigherIdCausesDeparture) {
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  auto& node = cluster.vp_node(1);
  const VpId huge{node.cur_id().n + 100, 2};

  Inject(cluster, 2, 1, NewVp{huge});
  cluster.RunFor(sim::Millis(10));
  EXPECT_FALSE(node.assigned());  // Departed, awaiting commit.
  EXPECT_EQ(node.max_id(), huge);
  // No commit arrives: the 3δ monitor timeout forms a fresh partition.
  cluster.RunFor(sim::Seconds(1));
  EXPECT_TRUE(node.assigned());
  EXPECT_LT(huge, node.max_id());  // Its own attempt outbid the orphan.
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(VpCreation, CommitWhoseViewOmitsReceiverIsRefused) {
  // S2 guard: a commit for the accepted id whose view lacks the receiver
  // (lost acceptance) must not be joined.
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.vp_node(1);
  const VpId v{node.cur_id().n + 50, 2};
  Inject(cluster, 2, 1, NewVp{v});
  cluster.RunFor(sim::Millis(10));
  ASSERT_EQ(node.max_id(), v);

  VpCommit commit;
  commit.v = v;
  commit.view = {0, 2};  // Receiver 1 omitted.
  Inject(cluster, 2, 1, commit);
  cluster.RunFor(sim::Millis(20));
  // Never joined v; instead started its own higher-numbered partition.
  EXPECT_TRUE(!node.assigned() || !(node.cur_id() == v));
  cluster.RunFor(sim::Seconds(1));
  EXPECT_TRUE(node.assigned());
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(VpCreation, StaleCommitForSupersededIdIsIgnored) {
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  auto& node = cluster.vp_node(1);
  const VpId old_v{node.cur_id().n + 10, 2};
  const VpId new_v{node.cur_id().n + 20, 0};
  Inject(cluster, 2, 1, NewVp{old_v});
  cluster.RunFor(sim::Millis(10));
  Inject(cluster, 0, 1, NewVp{new_v});
  cluster.RunFor(sim::Millis(10));
  ASSERT_EQ(node.max_id(), new_v);

  // The superseded commit arrives late.
  VpCommit commit;
  commit.v = old_v;
  commit.view = {1, 2};
  Inject(cluster, 2, 1, commit);
  cluster.RunFor(sim::Millis(20));
  EXPECT_FALSE(node.assigned() && node.cur_id() == old_v);
}

TEST(VpCreation, SimultaneousInitiatorsResolveByTieBreak) {
  // Partition everyone apart, then heal: every processor may initiate at
  // once; ids (n, p) tie-break by processor id and the system converges.
  Cluster cluster(Cfg(5, 19));
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Partition({{0}, {1}, {2}, {3}, {4}});
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  EXPECT_TRUE(cluster.VpConverged());
  EXPECT_EQ(cluster.vp_node(0).view().size(), 5u);
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(VpCreation, DuplicateCommitIsIdempotent) {
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  auto& node = cluster.vp_node(1);
  const uint64_t joins_before = testutil::Joins(cluster, 1);

  VpCommit dup;
  dup.v = node.cur_id();
  dup.view = node.view();
  Inject(cluster, node.cur_id().p, 1, dup);
  cluster.RunFor(sim::Millis(20));
  EXPECT_EQ(testutil::Joins(cluster, 1), joins_before);  // No re-join.
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(VpCreation, LateVpOkAfterPhaseOneIsIgnored) {
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  auto& node = cluster.vp_node(0);
  // A VpOk for a long-dead creation attempt must not corrupt state.
  Inject(cluster, 2, 0, VpOk{VpId{1, 0}, 2, VpId{0, 2}});
  cluster.RunFor(sim::Millis(20));
  EXPECT_TRUE(node.assigned());
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

// --- Logical ops during a formation ---

/// Steps the cluster until `p` departs its view (a formation is in flight),
/// for at most `budget`.
bool RunUntilDeparted(Cluster& cluster, ProcessorId p, sim::Duration budget) {
  const sim::SimTime deadline = cluster.scheduler().Now() + budget;
  while (cluster.vp_node(p).assigned()) {
    if (cluster.scheduler().Now() >= deadline ||
        !cluster.scheduler().RunOne()) {
      return false;
    }
  }
  return true;
}

TEST(VpFormation, TxnsBegunDuringASameMembershipViewChangeCommit) {
  // A short one-way cut p1 -> p0 swallows p1's probe acks (and the ack to
  // the one re-probe) of p0's round at 1025 ms (p0 probes at π/4 + k·π),
  // then heals before p1 accepts p0's invitation: the new view has the
  // same members. Transactions begun while it forms wait for it instead of
  // failing as inaccessible.
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  const VpId before = cluster.vp_node(0).cur_id();
  const sim::SimTime t0 = cluster.scheduler().Now();
  cluster.injector().LinkDownOneWayAt(t0 + sim::Millis(20), 1, 0);
  cluster.injector().LinkUpOneWayAt(t0 + sim::Millis(44), 1, 0);

  std::vector<testutil::TxnOutcome> outs(2);
  ASSERT_TRUE(RunUntilDeparted(cluster, 0, sim::Millis(100)));
  testutil::StartScriptedTxn(cluster.node(0), {testutil::Increment(0)},
                             &outs[0]);
  ASSERT_TRUE(RunUntilDeparted(cluster, 1, sim::Millis(20)));
  testutil::StartScriptedTxn(cluster.node(1),
                             {testutil::Read(1), testutil::Write(1, "b")},
                             &outs[1]);
  EXPECT_FALSE(outs[0].done);
  EXPECT_FALSE(outs[1].done);
  cluster.RunFor(sim::Seconds(1));

  for (const testutil::TxnOutcome& out : outs) {
    ASSERT_TRUE(out.done);
    EXPECT_TRUE(out.committed) << out.failure.ToString();
  }
  EXPECT_LT(before, cluster.vp_node(0).cur_id());
  EXPECT_EQ(cluster.vp_node(0).view(), (std::set<ProcessorId>{0, 1, 2}));
  EXPECT_EQ(cluster.store(2).Read(0).value().value, "1");
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

TEST(VpFormation, OpParkedInAFormationThatEndsUnassignedFails) {
  // p1 accepts an invitation whose commit never comes. Its parked op fails
  // as inaccessible when the 3δ monitor timeout gives up on that formation;
  // it does not wait for the next one.
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  auto& node = cluster.vp_node(1);
  Inject(cluster, 2, 1, NewVp{VpId{node.cur_id().n + 100, 2}});
  cluster.RunFor(sim::Millis(10));
  ASSERT_FALSE(node.assigned());

  testutil::TxnOutcome out;
  testutil::StartScriptedTxn(node, {testutil::Read(0)}, &out);
  EXPECT_FALSE(out.done);  // Parked.
  cluster.RunFor(3 * node.config().delta);
  ASSERT_TRUE(out.done);
  EXPECT_FALSE(out.committed);
  EXPECT_TRUE(out.failure.IsUnavailable()) << out.failure.ToString();
  // The node forms its own partition afterwards and serves again.
  cluster.RunFor(sim::Seconds(1));
  EXPECT_TRUE(node.assigned());
  EXPECT_TRUE(testutil::RunTxn(cluster, 1, {testutil::Read(0)}).committed);
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

// --- No-response timers (Fig. 10 line 5, Fig. 11) ---

/// Drops every physical write addressed to `p` and forwards the rest: a
/// holder that answers probes but never the write.
class DropPhysWrites : public net::NodeInterface {
 public:
  DropPhysWrites(Cluster* cluster, ProcessorId p)
      : cluster_(cluster), p_(p) {
    cluster_->network().Register(p_, this);
  }
  void HandleMessage(const net::Message& m) override {
    if (std::holds_alternative<core::msg::PhysWrite>(m.body)) return;
    cluster_->node(p_).HandleMessage(m);
  }

 private:
  Cluster* cluster_;
  ProcessorId p_;
};

TEST(VpNoResponse, TimerOfAnOpOutlivedByItsViewFormsNoNewView) {
  // p2 is cut off just as p0 writes object 0, and p0 re-forms at once: the
  // join excludes p2, and the write's transaction, bound to the old vp,
  // can no longer commit (R4). When the write's no-response timer fires
  // later, the view it suspected is gone and the silent holder is no
  // longer in the view: nothing to re-form.
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  auto& node = cluster.vp_node(0);
  cluster.graph().SetEdge(0, 2, false);
  cluster.graph().SetEdge(1, 2, false);

  testutil::TxnOutcome out;
  testutil::StartScriptedTxn(node, {testutil::Write(0, "x")}, &out);
  node.ForceCreateNewVp();
  cluster.RunFor(sim::Millis(50));
  ASSERT_TRUE(node.assigned());
  ASSERT_EQ(node.view(), (std::set<ProcessorId>{0, 1}));
  const VpId joined = node.cur_id();
  const uint64_t created = SelfFormedJoins(cluster, 0);

  // Past the timer (2δ + lock timeout after the write) and a probe round.
  cluster.RunFor(sim::Millis(300));
  ASSERT_TRUE(out.done);
  EXPECT_FALSE(out.committed);
  EXPECT_EQ(SelfFormedJoins(cluster, 0), created);
  EXPECT_EQ(node.cur_id(), joined);
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(VpNoResponse, SilentHolderStillInTheViewForcesAViewChange) {
  // Negative control for the test above: p2 answers probes, so it stays in
  // p0's view, but never answers the write. The timer fires in the view
  // the write was issued in, with the silent holder in it: the view is
  // suspect, and p0 re-forms.
  Cluster cluster(Cfg(3));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  auto& node = cluster.vp_node(0);
  DropPhysWrites drop(&cluster, 2);
  const VpId before = node.cur_id();
  const uint64_t created = SelfFormedJoins(cluster, 0);

  testutil::TxnOutcome out;
  testutil::StartScriptedTxn(node, {testutil::Write(0, "x")}, &out);
  cluster.RunFor(sim::Millis(300));
  ASSERT_TRUE(out.done);
  EXPECT_FALSE(out.committed);
  EXPECT_TRUE(out.failure.IsTimeout()) << out.failure.ToString();
  EXPECT_EQ(SelfFormedJoins(cluster, 0), created + 1);
  EXPECT_LT(before, node.cur_id());
  EXPECT_EQ(node.view(), (std::set<ProcessorId>{0, 1, 2}));
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

// --- Date-poll recovery mode ---

TEST(VpDatePoll, FreshLocalCopySkipsValueFetch) {
  ClusterConfig config = Cfg(5, 23);
  config.vp.recovery = core::RecoveryMode::kDatePoll;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  // A heal with no missed writes: date polls happen, zero value fetches.
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  ASSERT_TRUE(cluster.VpConverged());
  EXPECT_GT(testutil::Counter(cluster, "vp.recovery_date_polls"), 0u);
  EXPECT_EQ(testutil::Counter(cluster, "vp.recovery_value_fetches"), 0u);
}

TEST(VpDatePoll, StaleCopyFetchesExactlyOneValue) {
  ClusterConfig config = Cfg(5, 29);
  config.vp.recovery = core::RecoveryMode::kDatePoll;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  auto t = testutil::RunTxn(cluster, 3, {testutil::Write(0, "fresh")});
  ASSERT_TRUE(t.committed) << t.failure.ToString();
  cluster.RunFor(sim::Millis(100));

  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  ASSERT_TRUE(cluster.VpConverged());
  for (ProcessorId p = 0; p < 5; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "fresh") << "p" << p;
  }
  // Exactly the two stale copies (p0, p1) fetched a value.
  EXPECT_EQ(testutil::Counter(cluster, "vp.recovery_value_fetches"), 2u);
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

// --- Topology generators ---

TEST(TopologyGen, WanCosts) {
  net::CommGraph g(6);
  net::MakeWanCosts(&g, 3, 1.0, 20.0);
  EXPECT_DOUBLE_EQ(g.Cost(0, 3), 1.0);   // Same site (0 % 3 == 3 % 3).
  EXPECT_DOUBLE_EQ(g.Cost(0, 1), 20.0);  // Different sites.
  EXPECT_DOUBLE_EQ(g.Cost(2, 5), 1.0);
}

TEST(TopologyGen, Ring) {
  net::CommGraph g(5);
  net::MakeRing(&g);
  EXPECT_TRUE(g.CanCommunicate(0, 1));
  EXPECT_TRUE(g.CanCommunicate(0, 4));  // Wraparound.
  EXPECT_FALSE(g.CanCommunicate(0, 2));
  EXPECT_EQ(g.ClusterOf(0).size(), 5u);  // Connected, not a clique.
  EXPECT_FALSE(g.ClusterIsClique(0));
}

TEST(TopologyGen, Star) {
  net::CommGraph g(4);
  net::MakeStar(&g, 0);
  EXPECT_TRUE(g.CanCommunicate(0, 3));
  EXPECT_FALSE(g.CanCommunicate(1, 2));
}

TEST(TopologyGen, RandomRespectsProbability) {
  net::CommGraph g(30);
  Rng rng(5);
  net::MakeRandom(&g, 0.3, &rng);
  int up = 0, total = 0;
  for (ProcessorId a = 0; a < 30; ++a) {
    for (ProcessorId b = a + 1; b < 30; ++b) {
      ++total;
      up += g.EdgeUp(a, b) ? 1 : 0;
    }
  }
  EXPECT_NEAR(static_cast<double>(up) / total, 0.3, 0.07);
}

TEST(TopologyGen, LineCosts) {
  net::CommGraph g(5);
  net::MakeLineCosts(&g);
  EXPECT_DOUBLE_EQ(g.Cost(0, 4), 4.0);
  EXPECT_DOUBLE_EQ(g.Cost(1, 2), 1.0);
}

TEST(TopologyGen, VpProtocolRunsOnRing) {
  // On a ring (maximally non-transitive but connected) the protocol stays
  // safe; views are limited, churn is constant, but S1-S3 hold.
  ClusterConfig config = Cfg(5, 31);
  Cluster cluster(config);
  cluster.RunFor(sim::Millis(100));
  net::MakeRing(&cluster.graph());
  cluster.RunFor(sim::Seconds(5));
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

}  // namespace
}  // namespace vp
