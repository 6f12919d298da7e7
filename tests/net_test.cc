// Unit tests for the network substrate: communication graph, message
// delivery, fault models, and the failure injector.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/failure_injector.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/scheduler.h"

namespace vp::net {
namespace {

TEST(CommGraph, StartsFullyConnected) {
  CommGraph g(4);
  for (ProcessorId a = 0; a < 4; ++a) {
    for (ProcessorId b = 0; b < 4; ++b) {
      EXPECT_TRUE(g.CanCommunicate(a, b));
    }
  }
  EXPECT_TRUE(g.ClusterIsClique(0));
  EXPECT_EQ(g.ClusterOf(0).size(), 4u);
}

TEST(CommGraph, EdgeCutIsSymmetric) {
  CommGraph g(3);
  g.SetEdge(0, 1, false);
  EXPECT_FALSE(g.CanCommunicate(0, 1));
  EXPECT_FALSE(g.CanCommunicate(1, 0));
  EXPECT_TRUE(g.CanCommunicate(0, 2));
}

TEST(CommGraph, NonTransitiveGraphIsExpressible) {
  // Example 1's Figure 1: A-B down, A-C and B-C up.
  CommGraph g(3);
  g.SetEdge(0, 1, false);
  EXPECT_TRUE(g.CanCommunicate(0, 2));
  EXPECT_TRUE(g.CanCommunicate(1, 2));
  EXPECT_FALSE(g.CanCommunicate(0, 1));
  // One connected component, but not a clique.
  EXPECT_EQ(g.ClusterOf(0).size(), 3u);
  EXPECT_FALSE(g.ClusterIsClique(0));
}

TEST(CommGraph, CrashIsolatesWithoutTouchingEdges) {
  CommGraph g(3);
  g.SetAlive(1, false);
  EXPECT_FALSE(g.CanCommunicate(0, 1));
  EXPECT_TRUE(g.EdgeUp(0, 1));  // Edge state preserved.
  g.SetAlive(1, true);
  EXPECT_TRUE(g.CanCommunicate(0, 1));
}

TEST(CommGraph, SelfCommunicationRequiresLiveness) {
  CommGraph g(2);
  EXPECT_TRUE(g.CanCommunicate(0, 0));
  g.SetAlive(0, false);
  EXPECT_FALSE(g.CanCommunicate(0, 0));
  EXPECT_TRUE(g.ClusterOf(0).empty());
}

TEST(CommGraph, PartitionFormsGroups) {
  CommGraph g(5);
  g.Partition({{0, 1}, {2, 3, 4}});
  EXPECT_TRUE(g.CanCommunicate(0, 1));
  EXPECT_TRUE(g.CanCommunicate(2, 4));
  EXPECT_FALSE(g.CanCommunicate(1, 2));
  EXPECT_EQ(g.ClusterOf(0).size(), 2u);
  EXPECT_EQ(g.ClusterOf(3).size(), 3u);
}

TEST(CommGraph, PartitionIsolatesUnlistedProcessors) {
  CommGraph g(4);
  g.Partition({{0, 1}});
  EXPECT_FALSE(g.CanCommunicate(2, 3));
  EXPECT_EQ(g.ClusterOf(2).size(), 1u);
}

TEST(CommGraph, HealRestoresAllEdges) {
  CommGraph g(4);
  g.Partition({{0}, {1}, {2}, {3}});
  g.Heal();
  for (ProcessorId a = 0; a < 4; ++a)
    for (ProcessorId b = 0; b < 4; ++b) EXPECT_TRUE(g.CanCommunicate(a, b));
}

TEST(CommGraph, CostsAreSymmetricAndSelfIsZero) {
  CommGraph g(3);
  g.SetCost(0, 2, 3.5);
  EXPECT_DOUBLE_EQ(g.Cost(0, 2), 3.5);
  EXPECT_DOUBLE_EQ(g.Cost(2, 0), 3.5);
  EXPECT_DOUBLE_EQ(g.Cost(1, 1), 0.0);
}

// --- Network delivery ---

class Sink : public NodeInterface {
 public:
  void HandleMessage(const Message& msg) override {
    received.push_back(msg);
  }
  std::vector<Message> received;
};

/// A probe from `src` to `dst`; `seq` tells copies apart.
Message ProbeMsg(ProcessorId src, ProcessorId dst, uint64_t seq = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.body = core::msg::Probe{src, VpId{}, seq};
  return m;
}

uint64_t SeqOf(const Message& m) {
  return std::get<core::msg::Probe>(m.body).seq;
}

/// Sends counted under the wire name `name`.
uint64_t SentByName(const NetworkStats& s, std::string_view name) {
  for (size_t i = 0; i < s.sent_by_type.size(); ++i) {
    if (core::msg::kNames[i] == name) return s.sent_by_type[i];
  }
  ADD_FAILURE() << "no message type named " << name;
  return 0;
}

struct NetFixture {
  sim::Scheduler scheduler;
  CommGraph graph{3};
  NetworkConfig config;
  Network net;
  Sink sinks[3];

  explicit NetFixture(NetworkConfig cfg = {})
      : config(cfg), net(&scheduler, &graph, cfg, 42) {
    for (ProcessorId p = 0; p < 3; ++p) net.Register(p, &sinks[p]);
  }
};

TEST(Network, DeliversWithinDelayBounds) {
  NetFixture f;
  f.net.Send(ProbeMsg(0, 1, /*seq=*/7));
  f.scheduler.RunUntilIdle();
  ASSERT_EQ(f.sinks[1].received.size(), 1u);
  const Message& m = f.sinks[1].received[0];
  EXPECT_STREQ(core::msg::NameOf(m.body), "probe");
  EXPECT_EQ(SeqOf(m), 7u);
  EXPECT_GE(f.scheduler.Now(), f.config.min_delay);
  EXPECT_LE(f.scheduler.Now(), f.config.max_delay);
}

TEST(Network, DropsWhenEdgeDown) {
  NetFixture f;
  f.graph.SetEdge(0, 1, false);
  f.net.Send(ProbeMsg(0, 1));
  f.scheduler.RunUntilIdle();
  EXPECT_TRUE(f.sinks[1].received.empty());
  EXPECT_EQ(f.net.stats().dropped_no_route, 1u);
}

TEST(Network, DropsToCrashedReceiver) {
  NetFixture f;
  f.graph.SetAlive(1, false);
  f.net.Send(ProbeMsg(0, 1));
  f.scheduler.RunUntilIdle();
  EXPECT_TRUE(f.sinks[1].received.empty());
}

TEST(Network, InFlightMessageLostWhenLinkCutMidFlight) {
  NetFixture f;
  f.net.Send(ProbeMsg(0, 1));
  // Cut the link before delivery.
  f.graph.SetEdge(0, 1, false);
  f.scheduler.RunUntilIdle();
  EXPECT_TRUE(f.sinks[1].received.empty());
  EXPECT_EQ(f.net.stats().dropped_dead_receiver, 1u);
}

TEST(Network, RandomOmissionFailures) {
  NetworkConfig cfg;
  cfg.drop_prob = 0.5;
  NetFixture f(cfg);
  for (int i = 0; i < 1000; ++i) f.net.Send(ProbeMsg(0, 1, i));
  f.scheduler.RunUntilIdle();
  const auto& s = f.net.stats();
  EXPECT_NEAR(static_cast<double>(s.dropped_fault) / 1000, 0.5, 0.06);
  EXPECT_EQ(s.delivered + s.dropped_fault, 1000u);
}

TEST(Network, PerformanceFailuresExceedDelta) {
  NetworkConfig cfg;
  cfg.slow_prob = 1.0;  // Every message is slow.
  cfg.slow_min_delay = sim::Millis(50);
  cfg.slow_max_delay = sim::Millis(60);
  NetFixture f(cfg);
  f.net.Send(ProbeMsg(0, 1));
  f.scheduler.RunUntilIdle();
  ASSERT_EQ(f.sinks[1].received.size(), 1u);
  EXPECT_GE(f.scheduler.Now(), sim::Millis(50));
  EXPECT_GT(f.scheduler.Now(), f.net.Delta());
  EXPECT_EQ(f.net.stats().slow, 1u);
}

TEST(Network, DuplicationDeliversExtraCopies) {
  NetworkConfig cfg;
  cfg.dup_prob = 1.0;  // Every remote message is duplicated.
  NetFixture f(cfg);
  for (int i = 0; i < 100; ++i) f.net.Send(ProbeMsg(0, 1, i));
  f.scheduler.RunUntilIdle();
  EXPECT_EQ(f.net.stats().duplicated, 100u);
  EXPECT_EQ(f.sinks[1].received.size(), 200u);
  EXPECT_EQ(f.net.stats().delivered, 200u);
}

TEST(Network, RejectsSelfSends) {
  // A node serves its own copies by direct call; a message from a
  // processor to itself reaching the network is a protocol bug.
  NetFixture f;
  EXPECT_DEATH(f.net.Send(ProbeMsg(1, 1)), "self-send");
}

TEST(Network, ReorderingHoldsMessagesBack) {
  NetworkConfig cfg;
  cfg.reorder_prob = 1.0;
  cfg.reorder_min_extra = sim::Millis(20);
  cfg.reorder_max_extra = sim::Millis(30);
  NetFixture f(cfg);
  f.net.Send(ProbeMsg(0, 1));
  f.scheduler.RunUntilIdle();
  ASSERT_EQ(f.sinks[1].received.size(), 1u);
  // Normal delay plus the adversarial hold-back.
  EXPECT_GE(f.scheduler.Now(), cfg.min_delay + sim::Millis(20));
  EXPECT_EQ(f.net.stats().reordered, 1u);
}

TEST(Network, ReorderingInvertsSendOrder) {
  // First message held back beyond the worst normal delay of the second:
  // the later send overtakes the earlier one.
  NetworkConfig cfg;
  cfg.min_delay = sim::Millis(1);
  cfg.max_delay = sim::Millis(2);
  cfg.reorder_min_extra = sim::Millis(50);
  cfg.reorder_max_extra = sim::Millis(60);
  cfg.reorder_prob = 1.0;
  NetFixture f(cfg);
  f.net.Send(ProbeMsg(0, 1, 1));
  f.net.mutable_config()->reorder_prob = 0.0;
  f.net.Send(ProbeMsg(0, 1, 2));
  f.scheduler.RunUntilIdle();
  ASSERT_EQ(f.sinks[1].received.size(), 2u);
  EXPECT_EQ(SeqOf(f.sinks[1].received[0]), 2u);
  EXPECT_EQ(SeqOf(f.sinks[1].received[1]), 1u);
}

TEST(Network, OneWayCutDropsOnlyOneDirection) {
  NetFixture f;
  f.graph.SetEdgeOneWay(0, 1, false);
  f.net.Send(ProbeMsg(0, 1));
  f.net.Send(ProbeMsg(1, 0));
  f.scheduler.RunUntilIdle();
  EXPECT_TRUE(f.sinks[1].received.empty());
  ASSERT_EQ(f.sinks[0].received.size(), 1u);
  EXPECT_EQ(f.sinks[0].received[0].src, 1u);
  f.graph.SetEdgeOneWay(0, 1, true);
  f.net.Send(ProbeMsg(0, 1, 1));
  f.scheduler.RunUntilIdle();
  EXPECT_EQ(f.sinks[1].received.size(), 1u);
}

TEST(Network, StatsByType) {
  NetFixture f;
  f.net.Send(ProbeMsg(0, 1));
  f.net.Send(ProbeMsg(0, 2));
  Message ack;
  ack.src = 1;
  ack.dst = 2;
  ack.body = core::msg::ProbeAck{1, 0};
  f.net.Send(ack);
  f.scheduler.RunUntilIdle();
  EXPECT_EQ(SentByName(f.net.stats(), "probe"), 2u);
  EXPECT_EQ(SentByName(f.net.stats(), "probe-ack"), 1u);
  EXPECT_EQ(SentByName(f.net.stats(), "newvp"), 0u);
  EXPECT_EQ(f.net.stats().delivered, 3u);
}

// The closed wire type keeps the tag strings it replaced: each alternative
// has its own name, and logs, traces and per-type counts print it.
TEST(WireType, NamesAreDistinctAndMatchTheTagStrings) {
  using namespace core::msg;
  const std::pair<Body, std::string> kExpected[] = {
      {NewVp{}, "newvp"},
      {VpOk{}, "vp-ok"},
      {VpCommit{}, "vp-commit"},
      {Probe{}, "probe"},
      {ProbeAck{}, "probe-ack"},
      {PhysRead{}, "read"},
      {PhysReadReply{}, "read-reply"},
      {PhysWrite{}, "write"},
      {PhysWriteReply{}, "write-reply"},
      {RecoveryRead{}, "recovery-read"},
      {RecoveryReply{}, "recovery-reply"},
      {TxnOutcomeMsg{}, "txn-outcome"},
      {TxnOutcomeAck{}, "txn-outcome-ack"},
      {TxnStatusQuery{}, "txn-status-q"},
      {TxnStatusReply{}, "txn-status-r"},
      {RelAck{}, "rel-ack"},
  };
  ASSERT_EQ(std::size(kExpected), kNames.size());
  std::set<std::string> distinct;
  for (size_t i = 0; i < std::size(kExpected); ++i) {
    const auto& [body, name] = kExpected[i];
    EXPECT_EQ(body.index(), i) << name;
    EXPECT_EQ(NameOf(body), name);
    distinct.insert(kNames[i]);
  }
  EXPECT_EQ(distinct.size(), kNames.size());
}

TEST(Network, DeltaScalesWithEdgeCost) {
  NetFixture f;
  const auto base = f.net.Delta();
  f.graph.SetCost(0, 2, 4.0);
  EXPECT_EQ(f.net.Delta(), 4 * base);
}

// --- Failure injector ---

TEST(FailureInjector, ScriptedCrashAndRecovery) {
  sim::Scheduler s;
  CommGraph g(3);
  FailureInjector inj(&s, &g, 1);
  inj.CrashAt(100, 1);
  inj.RecoverAt(200, 1);
  s.RunUntil(150);
  EXPECT_FALSE(g.Alive(1));
  s.RunUntil(250);
  EXPECT_TRUE(g.Alive(1));
  EXPECT_EQ(inj.actions_applied(), 2u);
}

TEST(FailureInjector, ScriptedPartitionAndHeal) {
  sim::Scheduler s;
  CommGraph g(4);
  FailureInjector inj(&s, &g, 1);
  inj.PartitionAt(100, {{0, 1}, {2, 3}});
  inj.HealAt(300);
  s.RunUntil(200);
  EXPECT_FALSE(g.CanCommunicate(0, 2));
  EXPECT_TRUE(g.CanCommunicate(0, 1));
  s.RunUntil(400);
  EXPECT_TRUE(g.CanCommunicate(0, 2));
}

TEST(FailureInjector, CustomActionRuns) {
  sim::Scheduler s;
  CommGraph g(2);
  FailureInjector inj(&s, &g, 1);
  bool ran = false;
  inj.At(50, [&] { ran = true; });
  s.RunUntilIdle();
  EXPECT_TRUE(ran);
}

TEST(FailureInjector, OnChangeCallbackFires) {
  sim::Scheduler s;
  CommGraph g(2);
  FailureInjector inj(&s, &g, 1);
  int changes = 0;
  inj.SetOnChange([&] { ++changes; });
  inj.CrashAt(10, 0);
  inj.LinkDownAt(20, 0, 1);
  s.RunUntilIdle();
  EXPECT_EQ(changes, 2);
}

TEST(FailureInjector, OneWayCutScriptsAreDirectional) {
  sim::Scheduler s;
  CommGraph g(3);
  FailureInjector inj(&s, &g, 1);
  inj.LinkDownOneWayAt(100, 0, 1);
  s.RunUntil(200);
  EXPECT_FALSE(g.CanCommunicate(0, 1));
  EXPECT_TRUE(g.CanCommunicate(1, 0));
  inj.LinkUpOneWayAt(300, 0, 1);
  s.RunUntil(400);
  EXPECT_TRUE(g.CanCommunicate(0, 1));
  EXPECT_EQ(inj.actions_applied(), 2u);
}

TEST(FailureInjector, ChurnBurstFlapsAndEndsAlive) {
  sim::Scheduler s;
  CommGraph g(3);
  FailureInjector inj(&s, &g, 1);
  inj.ChurnBurstAt(100, 2, /*count=*/3, /*period=*/sim::Millis(10));
  s.RunUntil(101);
  EXPECT_FALSE(g.Alive(2));  // First crash applies at the burst start.
  s.RunUntilIdle();
  EXPECT_TRUE(g.Alive(2));   // Every cycle ends with a recovery.
  // Each of the 3 cycles applies one crash and one recover.
  EXPECT_EQ(inj.actions_applied(), 6u);
}

TEST(FailureInjector, PastActionsAreRejected) {
  sim::Scheduler s;
  CommGraph g(2);
  FailureInjector inj(&s, &g, 1);
  s.RunUntil(1000);
  FaultAction a;
  a.at = 500;  // Before "now".
  a.kind = FaultAction::Kind::kCrashProcessor;
  a.a = 0;
  const Status st = inj.Schedule(a);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  s.RunUntilIdle();
  EXPECT_TRUE(g.Alive(0));  // Nothing was scheduled.
  EXPECT_EQ(inj.actions_applied(), 0u);
}

TEST(FailureInjector, ActionsAppliedMatchesScript) {
  sim::Scheduler s;
  CommGraph g(4);
  FailureInjector inj(&s, &g, 1);
  inj.CrashAt(10, 0);
  inj.RecoverAt(20, 0);
  inj.LinkDownAt(30, 1, 2);
  inj.LinkUpAt(40, 1, 2);
  inj.PartitionAt(50, {{0, 1}, {2, 3}});
  inj.HealAt(60);
  inj.ChurnBurstAt(70, 3, /*count=*/2, /*period=*/sim::Millis(1));
  s.RunUntilIdle();
  // 6 scripted actions plus 2*2 churn flips (the burst shell is not
  // counted; its expanded crash/recover pairs are).
  EXPECT_EQ(inj.actions_applied(), 10u);
}

TEST(FailureInjector, RandomFaultsStopAfterDeadline) {
  sim::Scheduler s;
  CommGraph g(5);
  FailureInjector inj(&s, &g, 9);
  RandomFaultConfig cfg;
  cfg.processor_mtbf = sim::Millis(20);
  cfg.processor_mttr = sim::Millis(5);
  cfg.link_mtbf = sim::Millis(20);
  cfg.link_mttr = sim::Millis(5);
  cfg.stop_after = sim::Millis(500);
  inj.EnableRandomFaults(cfg);
  s.RunUntil(sim::Millis(500));
  const uint64_t at_deadline = inj.actions_applied();
  EXPECT_GT(at_deadline, 0u);
  // Only repairs of already-injected faults may run after the deadline;
  // no new fault ever fires.
  s.RunUntil(sim::Seconds(10));
  EXPECT_LE(inj.actions_applied(), at_deadline + at_deadline);
  const uint64_t settled = inj.actions_applied();
  s.RunUntil(sim::Seconds(20));
  EXPECT_EQ(inj.actions_applied(), settled);
}

TEST(FailureInjector, RandomFaultsEventuallyCrashAndRepair) {
  sim::Scheduler s;
  CommGraph g(5);
  FailureInjector inj(&s, &g, 77);
  RandomFaultConfig cfg;
  cfg.processor_mtbf = sim::Millis(50);
  cfg.processor_mttr = sim::Millis(20);
  cfg.stop_after = sim::Seconds(2);
  inj.EnableRandomFaults(cfg);
  s.RunUntil(sim::Seconds(3));
  EXPECT_GT(inj.actions_applied(), 10u);
  // After the stop time plus repair windows, the system settles; force
  // recovery for determinism of later asserts.
  for (ProcessorId p = 0; p < 5; ++p) g.SetAlive(p, true);
  EXPECT_TRUE(g.ClusterIsClique(0));
}

}  // namespace
}  // namespace vp::net
