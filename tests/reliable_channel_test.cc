// Tests for the reliable-delivery layer (net/reliable_channel.h): ack and
// dedup idempotence under duplication, retransmission repairing loss and
// reordering, the backoff schedule and delivery deadline, incarnation-aware
// acks, acks carried on replies, bounded dedup state, crash-amnesia
// interaction, nemesis determinism with retries, and the harsh-seed
// regression the layer exists to fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "nemesis/nemesis.h"
#include "net/message.h"
#include "net/network.h"
#include "net/reliable_channel.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "runtime/sim_runtime.h"
#include "sim/scheduler.h"

namespace vp {
namespace {

using net::CommGraph;
using net::Message;
using net::Network;
using net::NetworkConfig;
using net::ReliableChannel;
using net::ReliableConfig;

/// A payload for channel tests: a probe whose `seq` tells messages apart.
core::msg::Probe Payload(uint64_t seq) {
  return core::msg::Probe{0, VpId{}, seq};
}

/// Value of a counter in `metrics`.
uint64_t Count(const obs::MetricsRegistry& metrics, const char* name) {
  return metrics.Snapshot().CounterValue(name);
}

/// A bare network endpoint owning one channel and the registry it counts
/// into (rel.*), so each endpoint's counters stay its own; reliable
/// deliveries land in `inbox`, anything the channel does not consume in
/// `raw`. `on_deliver`, if set, runs on each delivery (a reply, say). The
/// first `drop_next` arrivals are dropped, as if lost on the wire.
struct Endpoint : public net::NodeInterface {
  obs::MetricsRegistry metrics{obs::RegistryMode::kSerial};
  ReliableChannel channel;
  std::vector<Message> inbox;
  std::vector<Message> raw;
  std::function<void(const Message&)> on_deliver;
  int drop_next = 0;

  Endpoint(runtime::SimRuntime* rt, ProcessorId id, uint32_t inc,
           ReliableConfig cfg)
      : channel(rt->clock(), rt->executor(), rt->transport(), id, inc, cfg,
                &metrics) {}

  void HandleMessage(const Message& m) override {
    if (drop_next > 0) {
      --drop_next;
      return;
    }
    const bool consumed = channel.HandleMessage(m, [this](const Message& in) {
      inbox.push_back(in);
      if (on_deliver) on_deliver(in);
    });
    if (!consumed) raw.push_back(m);
  }
};

struct Rig {
  sim::Scheduler sched;
  CommGraph graph;
  Network net;
  runtime::SimRuntime rt;
  Endpoint a, b;

  Rig(NetworkConfig nc, ReliableConfig rc, uint64_t seed = 7)
      : graph(2),
        net(&sched, &graph, nc, seed),
        rt(&sched, &net),
        a(&rt, 0, /*inc=*/0, rc),
        b(&rt, 1, /*inc=*/0, rc) {
    net.Register(0, &a);
    net.Register(1, &b);
  }
};

TEST(ReliableChannel, DuplicatedTrafficIsDeliveredExactlyOnce) {
  NetworkConfig nc;
  nc.dup_prob = 1.0;  // Every message (data and acks) duplicated.
  Rig rig(nc, ReliableConfig{});
  for (int i = 0; i < 5; ++i) {
    rig.a.channel.Send(1, Payload(i));
  }
  rig.sched.RunUntilIdle();

  // Exactly-once delivery despite every copy being duplicated. The channel
  // does not promise FIFO order (duplication perturbs delivery timing), so
  // compare the delivered multiset against the sent set.
  ASSERT_EQ(rig.b.inbox.size(), 5u);
  std::multiset<uint64_t> delivered;
  for (const Message& m : rig.b.inbox) {
    // The data message is handed up as it arrived, header envelope intact.
    EXPECT_NE(m.rel_id, 0u);
    delivered.insert(std::get<core::msg::Probe>(m.body).seq);
  }
  EXPECT_EQ(delivered, (std::multiset<uint64_t>{0, 1, 2, 3, 4}));
  // Receiver dedup swallowed the duplicate copies...
  EXPECT_GT(Count(rig.b.metrics, "rel.dups_suppressed"), 0u);
  // ...and the duplicate acks for already-settled sends were ignored.
  EXPECT_GT(Count(rig.a.metrics, "rel.stale_acks"), 0u);
  EXPECT_EQ(Count(rig.a.metrics, "rel.acks"), 5u);
  EXPECT_EQ(rig.a.channel.pending_count(), 0u);
  EXPECT_EQ(Count(rig.a.metrics, "rel.timed_out"), 0u);
}

TEST(ReliableChannel, RetransmissionOutrunsAdversarialReordering) {
  NetworkConfig nc;
  // Every message is held back 10-40ms extra — beyond the 8ms initial
  // retransmit delay, so every send is retransmitted at least once and the
  // slow original arrives as a duplicate.
  nc.reorder_prob = 1.0;
  Rig rig(nc, ReliableConfig{});
  for (int i = 0; i < 3; ++i) {
    rig.a.channel.Send(1, Payload(i));
  }
  rig.sched.RunUntilIdle();

  ASSERT_EQ(rig.b.inbox.size(), 3u);
  EXPECT_GT(Count(rig.a.metrics, "rel.retransmits"), 0u);
  EXPECT_GT(Count(rig.b.metrics, "rel.dups_suppressed"), 0u);
  EXPECT_EQ(rig.a.channel.pending_count(), 0u);
  EXPECT_EQ(Count(rig.a.metrics, "rel.timed_out"), 0u);
}

TEST(ReliableChannel, BackoffCapsAndDeadlineFiresTheTimeoutHook) {
  NetworkConfig nc;
  ReliableConfig rc;
  rc.retransmit_initial = sim::Millis(1);
  rc.backoff_factor = 2.0;
  rc.retransmit_max = sim::Millis(4);
  rc.jitter = 0.0;  // Exact schedule: retransmits at 1, 3, 7, 11, ..., 47ms.
  rc.delivery_deadline = sim::Millis(50);
  Rig rig(nc, rc);
  rig.graph.SetEdge(0, 1, false);  // Peer unreachable: no copy ever lands.

  int timeouts_fired = 0;
  rig.a.channel.Send(1, Payload(0),
                     [&timeouts_fired]() { ++timeouts_fired; });
  rig.sched.RunUntilIdle();

  // Delays 1, 2, 4, 4, ... (capped): retransmissions at t = 1, 3 and then
  // every 4ms through 47; the next timer (51ms) is past the deadline.
  EXPECT_EQ(Count(rig.a.metrics, "rel.retransmits"), 13u);
  EXPECT_EQ(Count(rig.a.metrics, "rel.timed_out"), 1u);
  EXPECT_EQ(timeouts_fired, 1);
  EXPECT_EQ(rig.a.channel.pending_count(), 0u);
  EXPECT_TRUE(rig.b.inbox.empty());
}

TEST(ReliableChannel, AcksFromAnotherIncarnationAreStale) {
  NetworkConfig nc;
  Rig rig(nc, ReliableConfig{});
  obs::MetricsRegistry reborn_metrics(obs::RegistryMode::kSerial);
  ReliableChannel reborn(rig.rt.clock(), rig.rt.executor(),
                         rig.rt.transport(), 0, /*incarnation=*/2,
                         ReliableConfig{}, &reborn_metrics);
  const uint64_t rel_id = reborn.Send(1, Payload(0));

  Message ack;
  ack.src = 1;
  ack.dst = 0;
  ack.body = core::msg::RelAck{};
  ack.ack_rel_id = rel_id;
  // An ack echoing the previous life's incarnation must not settle the
  // send of this one.
  ack.ack_incarnation = 1;
  EXPECT_TRUE(reborn.HandleMessage(ack, [](const Message&) {}));
  EXPECT_EQ(reborn.pending_count(), 1u);
  EXPECT_EQ(Count(reborn_metrics, "rel.stale_acks"), 1u);

  // The same stale ack carried on a reply: the reply is handed up, the
  // ack settles nothing.
  Message reply;
  reply.src = 1;
  reply.dst = 0;
  reply.body = Payload(1);
  reply.rel_id = 1;
  reply.rel_floor = 1;
  reply.ack_rel_id = rel_id;
  reply.ack_incarnation = 1;
  int delivered = 0;
  EXPECT_TRUE(reborn.HandleMessage(reply,
                                   [&](const Message&) { ++delivered; }));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(reborn.pending_count(), 1u);
  EXPECT_EQ(Count(reborn_metrics, "rel.stale_acks"), 2u);

  ack.ack_incarnation = 2;
  EXPECT_TRUE(reborn.HandleMessage(ack, [](const Message&) {}));
  EXPECT_EQ(reborn.pending_count(), 0u);
  EXPECT_EQ(Count(reborn_metrics, "rel.acks"), 1u);
  reborn.Shutdown();
}

/// A lossless network whose every hop takes 1 ms: round trips stay well
/// inside the first retransmit delay, so no retransmission is spurious.
NetworkConfig FixedHop() {
  NetworkConfig nc;
  nc.min_delay = sim::Millis(1);
  nc.max_delay = sim::Millis(1);
  return nc;
}

/// Standalone acks the network has carried so far.
uint64_t AckMsgs(Rig& rig) {
  return rig.net.stats().sent_by_type[net::Body(core::msg::RelAck{}).index()];
}

/// Makes `e` answer each delivery through its channel, the way a node
/// replies to a physical operation it serves inline.
void ReplyInline(Endpoint& e) {
  e.on_deliver = [&e](const Message& m) {
    e.channel.Send(m.src, Payload(std::get<core::msg::Probe>(m.body).seq));
  };
}

TEST(ReliableChannel, InlineReplyCarriesTheAck) {
  Rig rig(FixedHop(), ReliableConfig{});
  ReplyInline(rig.b);
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) rig.a.channel.Send(1, Payload(i));
  rig.sched.RunUntilIdle();

  ASSERT_EQ(rig.b.inbox.size(), size_t{kRequests});
  ASSERT_EQ(rig.a.inbox.size(), size_t{kRequests});
  // Each reply carried its request's ack, so b sent no ack of its own; a
  // acks each reply alone (it does not answer them).
  EXPECT_EQ(AckMsgs(rig), uint64_t{kRequests});
  for (const Message& reply : rig.a.inbox) EXPECT_NE(reply.ack_rel_id, 0u);
  EXPECT_EQ(Count(rig.a.metrics, "rel.acks"), uint64_t{kRequests});
  EXPECT_EQ(Count(rig.b.metrics, "rel.acks"), uint64_t{kRequests});
  EXPECT_EQ(Count(rig.a.metrics, "rel.retransmits"), 0u);
  EXPECT_EQ(rig.a.channel.pending_count(), 0u);
  EXPECT_EQ(rig.b.channel.pending_count(), 0u);
}

TEST(ReliableChannel, DeliveryWithoutAReplyIsAckedAloneAtOnce) {
  // b answers nothing within the dispatch (a request parked on a lock, as
  // it were): its ack must still leave at once, not wait for a reply.
  Rig rig(FixedHop(), ReliableConfig{});
  rig.a.channel.Send(1, Payload(0));
  rig.sched.RunUntil(rig.sched.Now() + sim::Millis(50));
  ASSERT_EQ(rig.b.inbox.size(), 1u);
  EXPECT_EQ(AckMsgs(rig), 1u);
  EXPECT_EQ(Count(rig.a.metrics, "rel.acks"), 1u);
  EXPECT_EQ(Count(rig.a.metrics, "rel.retransmits"), 0u);
}

TEST(ReliableChannel, LostReplyIsRepairedByTheRequestRetransmit) {
  // The reply carrying the request's ack is lost. The request retransmits
  // and is acked alone as a duplicate; the reply retransmits too, carrying
  // the same ack again, and whichever of the two acks lands second is
  // stale.
  Rig rig(FixedHop(), ReliableConfig{});
  ReplyInline(rig.b);
  rig.a.drop_next = 1;
  rig.a.channel.Send(1, Payload(7));
  rig.sched.RunUntilIdle();

  ASSERT_EQ(rig.b.inbox.size(), 1u);
  ASSERT_EQ(rig.a.inbox.size(), 1u);
  EXPECT_EQ(Count(rig.a.metrics, "rel.retransmits"), 1u);
  EXPECT_EQ(Count(rig.b.metrics, "rel.retransmits"), 1u);
  EXPECT_EQ(Count(rig.b.metrics, "rel.dups_suppressed"), 1u);
  EXPECT_EQ(Count(rig.a.metrics, "rel.acks"), 1u);
  EXPECT_EQ(Count(rig.a.metrics, "rel.stale_acks"), 1u);
  EXPECT_EQ(Count(rig.b.metrics, "rel.acks"), 1u);
  EXPECT_EQ(rig.a.channel.pending_count(), 0u);
  EXPECT_EQ(rig.b.channel.pending_count(), 0u);
}

TEST(ReliableChannel, DedupForgetsIdsBelowTheSendersFloor) {
  Rig rig(NetworkConfig{}, ReliableConfig{});
  ReliableChannel& ch = rig.b.channel;
  int delivered = 0;
  auto deliver = [&](const Message&) { ++delivered; };
  auto data = [](uint64_t id, uint32_t inc, uint64_t floor) {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.body = Payload(id);
    m.rel_id = id;
    m.rel_incarnation = inc;
    m.rel_floor = floor;
    return m;
  };
  ch.HandleMessage(data(5, 1, 5), deliver);
  ch.HandleMessage(data(6, 1, 5), deliver);
  EXPECT_EQ(ch.dedup_size(), 2u);
  // The sender's floor passed both: they are forgotten, and a late copy
  // of either (or of any lower id) is a duplicate, acked but not handed up.
  ch.HandleMessage(data(9, 1, 9), deliver);
  EXPECT_EQ(ch.dedup_size(), 1u);
  ch.HandleMessage(data(5, 1, 5), deliver);
  ch.HandleMessage(data(3, 1, 3), deliver);
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(Count(rig.b.metrics, "rel.dups_suppressed"), 2u);
  // Another incarnation of the same sender keeps its own floor: the
  // orphaned sends of a previous life still get through.
  ch.HandleMessage(data(2, 0, 2), deliver);
  EXPECT_EQ(delivered, 4);
  rig.sched.RunUntilIdle();
  EXPECT_EQ(AckMsgs(rig), 6u);  // Every copy acked.
}

TEST(ReliableChannel, DedupStateStaysBoundedOverManyAckedSends) {
  Rig rig(NetworkConfig{}, ReliableConfig{});
  constexpr int kBatches = 1000;
  constexpr int kBatch = 100;
  size_t most = 0;
  for (int i = 0; i < kBatches; ++i) {
    for (int j = 0; j < kBatch; ++j) rig.a.channel.Send(1, Payload(j));
    rig.sched.RunUntilIdle();
    most = std::max(most, rig.b.channel.dedup_size());
  }
  EXPECT_EQ(Count(rig.b.metrics, "rel.delivered"),
            uint64_t{kBatches * kBatch});
  EXPECT_EQ(Count(rig.a.metrics, "rel.acks"), uint64_t{kBatches * kBatch});
  // Only ids at or above the sender's last floor stay: at most one batch.
  EXPECT_LE(most, size_t{kBatch});
}

TEST(ReliableDelivery, SurvivesCrashAmnesiaAcrossInFlightRetransmits) {
  // Amnesia reboots mid-storm while the channel is retransmitting under
  // drops: incarnation-salted ids keep stale acks from resurrecting, and
  // the run must stay violation-free.
  nemesis::FaultPlan plan;
  plan.protocol = harness::Protocol::kQuorum;
  plan.n_processors = 5;
  plan.n_objects = 4;
  plan.seed = 7;
  plan.storm = sim::Seconds(2);
  plan.drop_prob = 0.05;
  plan.durability = storage::DurabilityMode::kWal;
  plan.reliable = true;
  auto crash = [&plan](ProcessorId p, sim::SimTime at, sim::SimTime back) {
    net::FaultAction on, off;
    on.kind = net::FaultAction::Kind::kCrashAmnesia;
    on.at = at;
    on.a = p;
    off.kind = net::FaultAction::Kind::kRecoverProcessor;
    off.at = back;
    off.a = p;
    plan.actions.push_back(on);
    plan.actions.push_back(off);
  };
  crash(1, sim::Millis(400), sim::Millis(900));
  crash(2, sim::Millis(1200), sim::Millis(1700));

  nemesis::RunOutcome out = nemesis::RunPlan(plan);
  EXPECT_FALSE(out.violation()) << out.failure;
  EXPECT_TRUE(out.progress);
  EXPECT_GT(out.retransmits, 0u);
  EXPECT_GT(out.metrics.CounterValue("storage.reboots"), 0u);
}

TEST(ReliableDelivery, NemesisRunsAreDeterministicWithRetries) {
  nemesis::GeneratorConfig gc;
  gc.harsh = true;
  gc.reliable = true;
  nemesis::FaultPlan plan = nemesis::GeneratePlan(11, gc);
  plan.protocol = harness::Protocol::kQuorum;

  nemesis::RunOutcome first = nemesis::RunPlan(plan);
  nemesis::RunOutcome second = nemesis::RunPlan(plan);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.aborted, second.aborted);
  EXPECT_EQ(first.retransmits, second.retransmits);
  EXPECT_EQ(first.delivery_timeouts, second.delivery_timeouts);
}

TEST(ReliableDelivery, PlanRoundTripKeepsTheReliableFlag) {
  nemesis::GeneratorConfig gc;
  gc.reliable = true;
  nemesis::FaultPlan plan = nemesis::GeneratePlan(5, gc);
  EXPECT_TRUE(plan.reliable);
  Result<nemesis::FaultPlan> rt = nemesis::FaultPlan::FromText(plan.ToText());
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_TRUE(rt.value().reliable);
  EXPECT_EQ(rt.value().ToText(), plan.ToText());

  // Legacy plans (no `reliable` line) keep running without the layer, and
  // their text form is untouched by the new field.
  nemesis::FaultPlan legacy = nemesis::GeneratePlan(5, {});
  EXPECT_FALSE(legacy.reliable);
  EXPECT_EQ(legacy.ToText().find("reliable"), std::string::npos);
  Result<nemesis::FaultPlan> rt2 =
      nemesis::FaultPlan::FromText(legacy.ToText());
  ASSERT_TRUE(rt2.ok());
  EXPECT_FALSE(rt2.value().reliable);
}

TEST(ReliableDelivery, HarshSeedRegressionUnretriedFailsRetriedPasses) {
  // Harsh seed 13 is one of the ~10-13% of harsh storms where the
  // unretried quorum baseline loses one-copy serializability to dropped
  // physical writes (the lost-quorum-write bug this layer fixes). The
  // identical plan must fail without the channel and pass with it. Which
  // seeds lose a write moves with the message schedule, so the seed is
  // re-checked (`nemesis_campaign --protocol=quorum --harsh`) whenever
  // schedules shift.
  nemesis::GeneratorConfig gc;
  gc.harsh = true;
  nemesis::FaultPlan plan = nemesis::GeneratePlan(13, gc);
  plan.protocol = harness::Protocol::kQuorum;

  nemesis::RunOutcome unretried = nemesis::RunPlan(plan);
  EXPECT_TRUE(unretried.violation());
  EXPECT_FALSE(unretried.one_copy_sr);
  EXPECT_EQ(unretried.retransmits, 0u);

  plan.reliable = true;
  nemesis::RunOutcome retried = nemesis::RunPlan(plan);
  EXPECT_FALSE(retried.violation()) << retried.failure;
  EXPECT_GT(retried.retransmits, 0u);
}

}  // namespace
}  // namespace vp
