// R5 partition initialization and the §6 optimizations: full-copy reads,
// the previous-partition skip, and log-suffix catch-up, all carried by one
// recovery exchange per (recovering member, holder) per join.
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "test_util.h"

namespace vp {
namespace {

using core::RecoveryMode;
using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using testutil::Counter;
using testutil::CounterDelta;
using testutil::RunTxn;
using testutil::Write;

ClusterConfig RecoveryConfig(RecoveryMode mode, uint64_t seed = 5) {
  ClusterConfig c;
  c.n_processors = 5;
  c.n_objects = 3;
  c.seed = seed;
  c.protocol = Protocol::kVirtualPartition;
  c.vp.recovery = mode;
  return c;
}

/// Partitions, writes k values to obj in the majority, heals, and returns
/// the cluster for inspection.
void WriteBehindPartition(Cluster& cluster, ObjectId obj, int k) {
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  for (int i = 0; i < k; ++i) {
    auto t = RunTxn(cluster, 3, {Write(obj, "v" + std::to_string(i))});
    ASSERT_TRUE(t.committed) << t.failure.ToString();
    cluster.RunFor(sim::Millis(50));
  }
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  ASSERT_TRUE(cluster.VpConverged());
}

TEST(VpRecovery, FullReadBringsStaleCopiesUpToDate) {
  Cluster cluster(RecoveryConfig(RecoveryMode::kFullRead));
  WriteBehindPartition(cluster, 0, 3);
  for (ProcessorId p = 0; p < 5; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "v2") << "p" << p;
  }
  // Full-read mode reads remote copies on every join.
  EXPECT_GT(Counter(cluster, "vp.recovery_reads_sent"), 0u);
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(VpRecovery, LogCatchupBringsStaleCopiesUpToDate) {
  Cluster cluster(RecoveryConfig(RecoveryMode::kLogCatchup));
  WriteBehindPartition(cluster, 0, 4);
  for (ProcessorId p = 0; p < 5; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "v3") << "p" << p;
  }
  // Catch-up fetched log records rather than whole values.
  EXPECT_GT(Counter(cluster, "vp.recovery_log_records"), 0u);
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(VpRecovery, LogCatchupFetchesOnlyMissedSuffix) {
  // The minority copies missed exactly 4 writes of one object; catch-up
  // should apply ~4 records per healing copy, not the whole history.
  Cluster cluster(RecoveryConfig(RecoveryMode::kLogCatchup));
  WriteBehindPartition(cluster, 0, 4);
  const uint64_t records = Counter(cluster, "vp.recovery_log_records");
  // Two minority nodes catching up 4 records each (majority members skip
  // or fetch empty suffixes); allow slack for view churn re-initialization.
  EXPECT_GE(records, 8u);
  EXPECT_LE(records, 40u);
}

TEST(VpRecovery, PreviousSkipAvoidsWorkOnCleanSplit) {
  // When a partition SPLITS, every member of the new majority partition
  // comes from the same previous partition: no initialization needed.
  ClusterConfig config = RecoveryConfig(RecoveryMode::kPreviousSkip);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  const CounterDelta delta(cluster);

  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  // The split produced joins but no recovery reads (all-same-previous).
  EXPECT_GT(delta("vp.joins"), 0u);
  EXPECT_EQ(delta("vp.recovery_reads_sent"), 0u);
  EXPECT_GT(delta("vp.recovery_skipped_objects"), 0u);

  // And the data is still correct afterwards.
  auto t = RunTxn(cluster, 3, {Write(0, "post-split")});
  EXPECT_TRUE(t.committed) << t.failure.ToString();
  cluster.RunFor(sim::Millis(100));
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(VpRecovery, FullReadModeDoesNotSkipOnSplit) {
  ClusterConfig config = RecoveryConfig(RecoveryMode::kFullRead);
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  const CounterDelta delta(cluster);
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  // The baseline §5 protocol re-reads copies even on a clean split.
  EXPECT_GT(delta("vp.recovery_reads_sent"), 0u);
  EXPECT_EQ(delta("vp.recovery_skipped_objects"), 0u);
}

TEST(VpRecovery, ObjectsLockedDuringInitializationThenReleased) {
  Cluster cluster(RecoveryConfig(RecoveryMode::kFullRead));
  WriteBehindPartition(cluster, 1, 2);
  // After the dust settles every object is unlocked everywhere.
  for (ProcessorId p = 0; p < 5; ++p) {
    EXPECT_TRUE(cluster.vp_node(p).locked_objects().empty()) << "p" << p;
  }
}

TEST(VpRecovery, ReadAfterHealSeesLatestValue) {
  for (RecoveryMode mode : {RecoveryMode::kFullRead,
                            RecoveryMode::kPreviousSkip,
                            RecoveryMode::kLogCatchup}) {
    Cluster cluster(RecoveryConfig(mode, 17));
    WriteBehindPartition(cluster, 0, 3);
    // A read served by a previously-stale copy must return the latest value.
    auto t = RunTxn(cluster, 0, {testutil::Read(0)});
    ASSERT_TRUE(t.committed) << t.failure.ToString();
    EXPECT_EQ(t.reads[0], "v2") << "mode " << static_cast<int>(mode);
    cluster.RunFor(sim::Millis(100));
    auto cert = cluster.Certify();
    EXPECT_TRUE(cert.ok) << cert.detail;
  }
}

TEST(VpRecovery, MultipleObjectsRecoverIndependently) {
  Cluster cluster(RecoveryConfig(RecoveryMode::kFullRead, 23));
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  for (ObjectId obj = 0; obj < 3; ++obj) {
    auto t = RunTxn(cluster, 2, {Write(obj, "obj" + std::to_string(obj))});
    ASSERT_TRUE(t.committed) << t.failure.ToString();
  }
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(2));
  for (ProcessorId p = 0; p < 5; ++p) {
    for (ObjectId obj = 0; obj < 3; ++obj) {
      EXPECT_EQ(cluster.store(p).Read(obj).value().value,
                "obj" + std::to_string(obj))
          << "p" << p << " obj" << obj;
    }
  }
}

// --- The recovery exchange: one request per holder per join ---

uint64_t Sent(Cluster& cluster, const net::Body& kind) {
  return cluster.network().stats().sent_by_type[kind.index()];
}

/// Stands in front of processor `p` on the network. `filter` sees every
/// message first; returning false swallows it.
class Tap : public net::NodeInterface {
 public:
  Tap(Cluster* cluster, ProcessorId p) : cluster_(cluster), p_(p) {
    cluster_->network().Register(p_, this);
  }
  void HandleMessage(const net::Message& m) override {
    if (!filter || filter(m)) Forward(m);
  }
  void Forward(const net::Message& m) { cluster_->node(p_).HandleMessage(m); }

  std::function<bool(const net::Message&)> filter;

 private:
  Cluster* cluster_;
  ProcessorId p_;
};

ClusterConfig ExchangeConfig(uint32_t n, ObjectId objects, uint64_t seed) {
  ClusterConfig c = RecoveryConfig(RecoveryMode::kFullRead, seed);
  c.n_processors = n;
  c.n_objects = objects;
  // Every hop 1 ms, so message order is the send order.
  c.net.min_delay = sim::Millis(1);
  c.net.max_delay = sim::Millis(1);
  return c;
}

TEST(VpRecoveryExchange, JoinSendsOneRequestPerRemoteHolder) {
  Cluster cluster(ExchangeConfig(5, 64, 41));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  for (ObjectId obj = 0; obj < 64; obj += 8) {
    auto t = RunTxn(cluster, 3, {Write(obj, "new" + std::to_string(obj))});
    ASSERT_TRUE(t.committed) << t.failure.ToString();
  }
  cluster.RunFor(sim::Millis(100));

  std::vector<uint64_t> joins;
  for (ProcessorId p = 0; p < 5; ++p) {
    joins.push_back(testutil::Joins(cluster, p));
  }
  const uint64_t requests = Sent(cluster, core::msg::RecoveryRead{});
  const uint64_t replies = Sent(cluster, core::msg::RecoveryReply{});
  const uint64_t items = Counter(cluster, "vp.recovery_items");
  cluster.graph().Heal();
  cluster.vp_node(2).ForceCreateNewVp();
  cluster.RunFor(sim::Millis(60));
  for (ProcessorId p = 0; p < 5; ++p) {
    ASSERT_EQ(testutil::Joins(cluster, p) - joins[p], 1u) << "p" << p;
    EXPECT_TRUE(cluster.vp_node(p).locked_objects().empty()) << "p" << p;
  }
  // Five recovering members, four remote holders each: 20 requests of 64
  // items, not one per (object, holder).
  EXPECT_EQ(Sent(cluster, core::msg::RecoveryRead{}) - requests, 20u);
  EXPECT_EQ(Sent(cluster, core::msg::RecoveryReply{}) - replies, 20u);
  EXPECT_EQ(Counter(cluster, "vp.recovery_items") - items, 20u * 64u);
  for (ObjectId obj = 0; obj < 64; ++obj) {
    const auto max = cluster.store(2).Read(obj).value();
    if (obj % 8 == 0) EXPECT_EQ(max.value, "new" + std::to_string(obj));
    for (ProcessorId p = 0; p < 5; ++p) {
      const auto copy = cluster.store(p).Read(obj).value();
      EXPECT_EQ(copy.value, max.value) << "p" << p << " obj" << obj;
      EXPECT_EQ(copy.date, max.date) << "p" << p << " obj" << obj;
    }
  }
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(VpRecoveryExchange, DroppedRequestIsRepairedByOneRetransmit) {
  ClusterConfig config = ExchangeConfig(3, 4, 42);
  config.reliable.enabled = true;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  Tap tap(&cluster, 2);
  int dropped = 0;
  tap.filter = [&](const net::Message& m) {
    if (dropped > 0 || m.src == 2 ||
        !std::holds_alternative<core::msg::RecoveryRead>(m.body)) {
      return true;
    }
    ++dropped;
    return false;
  };
  const CounterDelta delta(cluster);
  cluster.vp_node(0).ForceCreateNewVp();
  cluster.RunFor(sim::Millis(200));
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(delta("rel.retransmits"), 1u);
  // The forced formation only: the lost request formed no new view.
  EXPECT_EQ(delta("vp.creations_initiated"), 1u);
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_TRUE(cluster.vp_node(p).locked_objects().empty()) << "p" << p;
  }
  EXPECT_TRUE(cluster.VpConverged());
}

TEST(VpRecoveryExchange, RequestAheadOfTheHoldersCommitIsDeferredToItsJoin) {
  Cluster cluster(ExchangeConfig(3, 4, 43));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  // p2's VpCommit is held back until the first recovery request for the
  // new view reaches it, then delivered right behind that request.
  Tap holder(&cluster, 2);
  std::vector<net::Message> held;
  bool released = false;
  bool parked_unassigned = false;
  holder.filter = [&](const net::Message& m) {
    if (released) return true;
    if (std::holds_alternative<core::msg::VpCommit>(m.body)) {
      held.push_back(m);
      return false;
    }
    if (!std::holds_alternative<core::msg::RecoveryRead>(m.body) ||
        m.src == 2) {
      return true;
    }
    released = true;
    parked_unassigned = !cluster.vp_node(2).assigned();
    holder.Forward(m);
    for (const net::Message& c : held) holder.Forward(c);
    return false;
  };
  // Every item p2 answers p0 and p1 must be served, not nacked as
  // wrong-vp.
  int served = 0;
  int nacked = 0;
  auto count = [&](const net::Message& m) {
    if (const auto* r = std::get_if<core::msg::RecoveryReply>(&m.body);
        r != nullptr && m.src == 2) {
      for (const auto& item : r->items) ++(item.ok ? served : nacked);
    }
    return true;
  };
  Tap initiator(&cluster, 0);
  Tap member(&cluster, 1);
  initiator.filter = count;
  member.filter = count;
  const CounterDelta delta(cluster);
  cluster.vp_node(0).ForceCreateNewVp();
  cluster.RunFor(sim::Millis(200));
  ASSERT_TRUE(released);
  EXPECT_EQ(held.size(), 1u);
  EXPECT_TRUE(parked_unassigned);
  EXPECT_EQ(served, 8);
  EXPECT_EQ(nacked, 0);
  EXPECT_EQ(delta("vp.creations_initiated"), 1u);
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_TRUE(cluster.vp_node(p).locked_objects().empty()) << "p" << p;
  }
}

TEST(VpRecoveryExchange, LateReplyFromAnEarlierJoinIsIgnored) {
  Cluster cluster(ExchangeConfig(3, 4, 44));
  cluster.RunFor(sim::Seconds(1));
  ASSERT_TRUE(cluster.VpConverged());
  Tap member(&cluster, 1);
  std::vector<net::Message> held;
  bool holding = true;
  member.filter = [&](const net::Message& m) {
    if (holding && m.src == 2 &&
        std::holds_alternative<core::msg::RecoveryReply>(m.body)) {
      held.push_back(m);
      return false;
    }
    return true;
  };
  cluster.vp_node(0).ForceCreateNewVp();
  cluster.RunFor(sim::Millis(30));
  ASSERT_FALSE(held.empty());
  ASSERT_FALSE(cluster.vp_node(1).locked_objects().empty());

  // A new join supersedes the stalled recovery before its timeout.
  holding = false;
  cluster.vp_node(0).ForceCreateNewVp();
  cluster.RunFor(sim::Millis(30));
  ASSERT_TRUE(cluster.vp_node(1).locked_objects().empty());

  // The first join's replies arrive now, doctored to win any max-date
  // fold: they must change nothing.
  for (net::Message m : held) {
    for (auto& item : std::get<core::msg::RecoveryReply>(m.body).items) {
      item.value = "stale-join";
      item.date = VpId{1u << 20, 2};
    }
    member.Forward(m);
  }
  cluster.RunFor(sim::Millis(10));
  for (ObjectId obj = 0; obj < 4; ++obj) {
    EXPECT_NE(cluster.store(1).Read(obj).value().value, "stale-join")
        << "obj" << obj;
  }
  EXPECT_TRUE(cluster.vp_node(1).locked_objects().empty());
}

/// E7's scenario (bench_partition_init): the minority misses five writes
/// of object 0 and heals.
/// Returns how far each registry counter moved from before the split to the
/// end of the heal.
std::map<std::string, uint64_t> E7Heal(RecoveryMode mode) {
  ClusterConfig config = RecoveryConfig(mode, 705);
  config.n_objects = 4;
  config.durability = storage::DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));
  const CounterDelta delta(cluster);
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));
  for (int i = 0; i < 5; ++i) {
    auto& node = cluster.vp_node(2);
    TxnId txn = node.NewTxnId();
    node.Begin(txn);
    node.LogicalWrite(txn, 0, std::string(16, 'a' + i), [](Status) {});
    cluster.RunFor(sim::Millis(60));
    node.Commit(txn, [](Status) {});
    cluster.RunFor(sim::Millis(60));
  }
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(3));
  for (ProcessorId p = 0; p < 5; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, std::string(16, 'e'));
  }
  std::map<std::string, uint64_t> moved;
  for (const auto& [name, value] : cluster.metrics().Snapshot().counters) {
    moved[name] = delta(name);
  }
  return moved;
}

TEST(VpRecoveryExchange, LogCatchupAndDatePollKeepTheirE7Counts) {
  // E7's rows for 5 missed writes of 16-byte values, and each remote
  // item is exactly one counted read or date poll.
  auto log = E7Heal(RecoveryMode::kLogCatchup);
  EXPECT_EQ(log["vp.recovery_reads_sent"], 80u);
  EXPECT_EQ(log["vp.recovery_log_records"], 10u);
  EXPECT_EQ(log["vp.recovery_skipped_objects"], 12u);
  EXPECT_EQ(log["vp.recovery_items"], log["vp.recovery_reads_sent"]);

  auto date = E7Heal(RecoveryMode::kDatePoll);
  EXPECT_EQ(date["vp.recovery_date_polls"], 80u);
  EXPECT_EQ(date["vp.recovery_value_fetches"], 2u);
  EXPECT_EQ(date["vp.recovery_reads_sent"], 2u);
  EXPECT_EQ(date["vp.recovery_skipped_objects"], 12u);
  EXPECT_EQ(date["vp.recovery_items"],
            date["vp.recovery_reads_sent"] + date["vp.recovery_date_polls"]);
}

}  // namespace
}  // namespace vp
