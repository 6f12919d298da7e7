// Crash-amnesia fault model: write-ahead stable storage, log-replay
// recovery, and the deliberately broken no-WAL strawman.
//
// The deterministic centerpiece is the in-doubt commit scenario: a
// coordinator that holds no copy of the object decides commit (the client
// is acked), a partition swallows the outcome broadcast, and the
// coordinator amnesia-crashes, so no copy ever applied the write. With a
// WAL the decision record survives and reboot replay + presumed-abort
// queries resolve every stage to commit; without one the rebooted
// coordinator presumes abort and a committed write vanishes from every
// copy.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "nemesis/nemesis.h"
#include "net/failure_injector.h"
#include "storage/stable_store.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;
using storage::DurabilityMode;

// The device's replay, salvage and reboot counters (wal.replay_records,
// wal.torn_truncated, storage.quarantined, storage.reboots) move only while
// a processor reboots, and each test here reboots a single processor: the
// cluster-wide counts read as that processor's own.
using testutil::Counter;

/// Runs the in-doubt coordinator-crash scenario under `mode` and returns
/// the final value of object 0 at every copy (p1 and p2).
struct CoordinatorCrashResult {
  Status commit_status;
  std::vector<Value> copies;
  uint64_t replayed = 0;
  uint32_t incarnation = 0;
};

CoordinatorCrashResult RunCoordinatorCrashScenario(DurabilityMode mode) {
  ClusterConfig config;
  config.n_processors = 3;
  config.n_objects = 1;
  config.seed = 11;
  config.protocol = Protocol::kVirtualPartition;
  config.durability = mode;
  // The coordinator p0 holds no copy: a coordinator's own copy applies the
  // outcome inline at the decision, before any crash could intervene.
  config.placement.AddCopy(0, 1);
  config.placement.AddCopy(0, 2);
  config.has_custom_placement = true;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  core::NodeBase& node = cluster.node(0);
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool write_ok = false;
  node.LogicalWrite(txn, 0, "X", [&](Status s) { write_ok = s.ok(); });
  cluster.RunFor(sim::Millis(200));
  EXPECT_TRUE(write_ok);

  // The partition swallows the outcome broadcast to p1/p2 (dropped at send
  // time), and the amnesia crash fires right after the decision, so NO
  // copy ever applies the committed write before the crash.
  cluster.graph().Partition({{0}, {1, 2}});
  CoordinatorCrashResult result;
  node.Commit(txn, [&](Status s) { result.commit_status = s; });
  cluster.injector().CrashAmnesiaAt(cluster.scheduler().Now(), 0);
  cluster.injector().RecoverAt(cluster.scheduler().Now() + sim::Millis(500),
                               0);
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(4));

  for (ProcessorId p : {1, 2}) {
    result.copies.push_back(cluster.store(p).Read(0).value().value);
  }
  result.replayed = Counter(cluster, "wal.replay_records");
  result.incarnation = cluster.stable(0).incarnation();
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  return result;
}

TEST(Amnesia, WalRebootResolvesInDoubtCommit) {
  CoordinatorCrashResult r = RunCoordinatorCrashScenario(DurabilityMode::kWal);
  ASSERT_TRUE(r.commit_status.ok()) << r.commit_status.ToString();
  EXPECT_EQ(r.incarnation, 1u);
  // Exactly the commit decision record: the coordinator staged nothing.
  EXPECT_EQ(r.replayed, 1u);
  for (const Value& v : r.copies) {
    EXPECT_EQ(v, "X") << "committed write must survive the amnesia reboot";
  }
}

TEST(Amnesia, NoWalRebootLosesTheCommittedWrite) {
  CoordinatorCrashResult r =
      RunCoordinatorCrashScenario(DurabilityMode::kNoWal);
  ASSERT_TRUE(r.commit_status.ok()) << r.commit_status.ToString();
  EXPECT_EQ(r.incarnation, 1u);
  EXPECT_EQ(r.replayed, 0u);  // The strawman kept no records to replay.
  // Negative control: the client was acked, yet the write is gone
  // everywhere — the rebooted coordinator presumed abort and the in-doubt
  // participants discarded their stages.
  for (const Value& v : r.copies) {
    EXPECT_EQ(v, "0") << "the strawman is expected to lose the write";
  }
}

TEST(Amnesia, ReadOnlyCommitLogsNoDecisionAndLeavesNoOneInDoubt) {
  // A read-only commit needs no decision record: no participant holds a
  // prepare for it. The coordinator amnesia-crashes right after deciding,
  // with the outcome swallowed by a partition, so the serving copy still
  // holds the read lock. After the reboot, presumed abort releases it.
  ClusterConfig config;
  config.n_processors = 3;
  config.n_objects = 1;
  config.seed = 14;
  config.protocol = Protocol::kVirtualPartition;
  config.durability = DurabilityMode::kWal;
  config.placement.AddCopy(0, 1);
  config.placement.AddCopy(0, 2);
  config.has_custom_placement = true;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  core::NodeBase& node = cluster.node(0);
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  ProcessorId served_by = kInvalidProcessor;
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    served_by = r.value().served_by;
  });
  cluster.RunFor(sim::Millis(200));
  ASSERT_NE(served_by, kInvalidProcessor);

  cluster.graph().Partition({{0}, {1, 2}});
  Status commit_status = Status::Internal("callback not run");
  node.Commit(txn, [&](Status s) { commit_status = s; });
  ASSERT_TRUE(commit_status.ok()) << commit_status.ToString();
  EXPECT_TRUE(cluster.locks(served_by).Holds(txn, 0, cc::LockMode::kShared));
  for (const storage::WalFrame& f : cluster.stable(0).wal().frames()) {
    EXPECT_NE(f.rec.type, storage::WalRecord::Type::kDecision);
  }
  cluster.injector().CrashAmnesiaAt(cluster.scheduler().Now(), 0);
  cluster.injector().RecoverAt(cluster.scheduler().Now() + sim::Millis(500),
                               0);
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(4));

  EXPECT_EQ(cluster.stable(0).incarnation(), 1u);
  EXPECT_EQ(Counter(cluster, "wal.replay_records"), 0u);
  EXPECT_FALSE(cluster.locks(served_by).Holds(txn, 0, cc::LockMode::kShared));
  for (ProcessorId p : {1, 2}) {
    EXPECT_FALSE(cluster.store(p).HasStage(0)) << "p" << p;
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "0") << "p" << p;
  }
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

TEST(Amnesia, ParticipantCrashBetweenPrepareAndOutcomeResolvesViaCoordinator) {
  ClusterConfig config;
  config.n_processors = 3;
  config.n_objects = 1;
  config.seed = 12;
  config.protocol = Protocol::kVirtualPartition;
  config.durability = DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  core::NodeBase& node = cluster.node(0);
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool write_ok = false;
  node.LogicalWrite(txn, 0, "X", [&](Status s) { write_ok = s.ok(); });
  cluster.RunFor(sim::Millis(200));
  ASSERT_TRUE(write_ok);

  // p1 holds a persisted prepare but crashes before the commit outcome
  // reaches it; the reboot replays the prepare, re-stages the write under
  // a fresh lock, and the in-doubt sweep asks the (live) coordinator.
  cluster.injector().CrashAmnesiaAt(cluster.scheduler().Now(), 1);
  cluster.RunFor(sim::Millis(10));
  Status commit_status = Status::Internal("callback not run");
  node.Commit(txn, [&](Status s) { commit_status = s; });
  cluster.injector().RecoverAt(cluster.scheduler().Now() + sim::Millis(300),
                               1);
  cluster.RunFor(sim::Seconds(4));

  ASSERT_TRUE(commit_status.ok()) << commit_status.ToString();
  EXPECT_EQ(cluster.stable(1).incarnation(), 1u);
  EXPECT_EQ(Counter(cluster, "wal.replay_records"), 1u);  // The prepare.
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "X") << "p" << p;
  }
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
}

TEST(Amnesia, CrashDuringVpFormationStaysSafeAndConverges) {
  ClusterConfig config;
  config.n_processors = 5;
  config.n_objects = 2;
  config.seed = 13;
  config.protocol = Protocol::kVirtualPartition;
  config.durability = DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  testutil::TxnOutcome before = testutil::RunTxn(
      cluster, 0, {testutil::Write(0, "pre"), testutil::Write(1, "pre")});
  ASSERT_TRUE(before.committed);

  // Split, then amnesia-crash a majority member while the new virtual
  // partition is still forming: its view metadata (max seen vp id) is
  // persisted before any copy update, so the reboot must mint a strictly
  // larger vp id and the recorder's S2/monotonic probes must stay silent.
  cluster.graph().Partition({{0, 1, 2}, {3, 4}});
  cluster.RunFor(sim::Millis(30));
  cluster.injector().CrashAmnesiaAt(cluster.scheduler().Now(), 2);
  cluster.injector().RecoverAt(cluster.scheduler().Now() + sim::Millis(400),
                               2);
  cluster.RunFor(sim::Seconds(2));
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(4));

  EXPECT_TRUE(cluster.VpConverged());
  testutil::TxnOutcome after = testutil::RunTxn(
      cluster, 2, {testutil::Read(0), testutil::Write(1, "post")});
  EXPECT_TRUE(after.committed);
  cluster.RunFor(sim::Seconds(1));
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

// The cluster registry is the only counter store, and it outlives amnesia
// reboots: what a retired node object counted stays in the totals.
TEST(Amnesia, RegistryCountsEveryIncarnation) {
  ClusterConfig config;
  config.n_processors = 3;
  config.n_objects = 1;
  config.seed = 17;
  config.protocol = Protocol::kVirtualPartition;
  config.durability = DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));
  ASSERT_TRUE(testutil::RunTxn(cluster, 0, {testutil::Write(0, "X")})
                  .committed);
  cluster.RunFor(sim::Millis(500));

  // p1's first incarnation committed joins of its own (its view events
  // less the initial singleton), and logged the transaction.
  ASSERT_GT(testutil::Joins(cluster, 1) - 1, 0u);
  const uint64_t joins = Counter(cluster, "vp.joins");
  const uint64_t frames = cluster.stable(1).wal().frames().size();
  ASSERT_GT(frames, 0u);

  cluster.injector().CrashAmnesiaAt(cluster.scheduler().Now(), 1);
  cluster.RunFor(sim::Millis(100));
  cluster.Revive(1);  // Reboots p1; its first node object is retired.
  cluster.RunFor(sim::Seconds(3));
  ASSERT_TRUE(cluster.VpConverged());
  ASSERT_EQ(cluster.stable(1).incarnation(), 1u);

  EXPECT_EQ(Counter(cluster, "storage.reboots"), 1u);
  EXPECT_EQ(Counter(cluster, "wal.replay_records"), frames);
  EXPECT_GT(Counter(cluster, "vp.joins"), joins);
  // Every join any incarnation committed, the retired one's included: all
  // the recorder's join events, less the initial singleton each node
  // object records at start (three first boots, one reboot).
  uint64_t join_events = 0;
  for (ProcessorId p = 0; p < 3; ++p) {
    join_events += testutil::Joins(cluster, p);
  }
  EXPECT_EQ(Counter(cluster, "vp.joins"), join_events - 4);
}

TEST(Amnesia, DoubleCrashReplaysTheWalTwiceIdempotently) {
  ClusterConfig config;
  config.n_processors = 3;
  config.n_objects = 1;
  config.seed = 14;
  config.protocol = Protocol::kVirtualPartition;
  config.durability = DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  testutil::TxnOutcome txn =
      testutil::RunTxn(cluster, 0, {testutil::Write(0, "X")});
  ASSERT_TRUE(txn.committed);
  cluster.RunFor(sim::Millis(500));  // Outcome applies everywhere.

  // Two back-to-back amnesia crashes: the second reboot replays the same
  // WAL again from scratch (replay state is volatile too), which must be
  // idempotent — the records resolve to the same committed outcome.
  const sim::SimTime t = cluster.scheduler().Now();
  cluster.injector().CrashAmnesiaAt(t + sim::Millis(10), 1);
  cluster.injector().RecoverAt(t + sim::Millis(120), 1);
  cluster.injector().CrashAmnesiaAt(t + sim::Millis(200), 1);
  cluster.injector().RecoverAt(t + sim::Millis(320), 1);
  cluster.RunFor(sim::Seconds(4));

  EXPECT_EQ(cluster.stable(1).incarnation(), 2u);
  EXPECT_EQ(Counter(cluster, "storage.reboots"), 2u);
  // Both passes saw the same two records (prepare + outcome).
  EXPECT_EQ(Counter(cluster, "wal.replay_records"), 4u);
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "X") << "p" << p;
  }
  EXPECT_TRUE(cluster.VpConverged());
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

TEST(Amnesia, TornTailSalvageLeavesThePrepareInDoubt) {
  ClusterConfig config;
  config.n_processors = 3;
  config.n_objects = 1;
  config.seed = 15;
  config.protocol = Protocol::kVirtualPartition;
  config.durability = DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  core::NodeBase& node = cluster.node(0);
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool write_ok = false;
  node.LogicalWrite(txn, 0, "X", [&](Status s) { write_ok = s.ok(); });
  cluster.RunFor(sim::Millis(200));
  ASSERT_TRUE(write_ok);
  Status commit_status = Status::Internal("callback not run");
  node.Commit(txn, [&](Status s) { commit_status = s; });

  // Step until p1 has persisted its outcome record — that persist is the
  // one the crash tears in flight. The crafted log is then
  //   [prepare X (intact), outcome (half-written)].
  for (int i = 0; i < 200 && cluster.stable(1).wal().frames().size() < 2; ++i)
    cluster.RunFor(sim::Millis(5));
  ASSERT_EQ(cluster.stable(1).wal().frames().size(), 2u);
  cluster.injector().CrashAmnesiaTornAt(cluster.scheduler().Now(), 1,
                                        /*drop_tail=*/false);
  cluster.injector().RecoverAt(cluster.scheduler().Now() + sim::Millis(300),
                               1);
  cluster.RunFor(sim::Seconds(4));

  ASSERT_TRUE(commit_status.ok()) << commit_status.ToString();
  // Salvage truncated exactly the half-written outcome; the intact prepare
  // replayed and went back in doubt.
  EXPECT_EQ(Counter(cluster, "wal.torn_truncated"), 1u);
  EXPECT_EQ(Counter(cluster, "wal.replay_records"), 1u);
  EXPECT_EQ(Counter(cluster, "storage.quarantined"), 0u);
  // The in-doubt sweep asked the coordinator and resolved to commit — once:
  // no duplicate stage survives and every copy agrees.
  EXPECT_FALSE(cluster.store(1).HasStage(0));
  for (ProcessorId p = 0; p < 3; ++p) {
    EXPECT_EQ(cluster.store(p).Read(0).value().value, "X") << "p" << p;
  }
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

/// Runs the back-to-back torn-crash schedule and returns the observables a
/// determinism check compares.
struct DoubleTornResult {
  uint64_t torn_truncated = 0;
  uint64_t replayed = 0;
  uint64_t reboots = 0;
  std::vector<Value> copies;
  bool certified = false;
};

DoubleTornResult RunDoubleTornCrash() {
  ClusterConfig config;
  config.n_processors = 3;
  config.n_objects = 1;
  config.seed = 16;
  config.protocol = Protocol::kVirtualPartition;
  config.durability = DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  testutil::TxnOutcome txn =
      testutil::RunTxn(cluster, 0, {testutil::Write(0, "X")});
  EXPECT_TRUE(txn.committed);
  cluster.RunFor(sim::Millis(500));

  // Two torn crashes in quick succession: the second lands right after the
  // first reboot's salvage+replay, before the cluster has settled, so the
  // second salvage runs over an already-salvaged log plus the new tear.
  const sim::SimTime t = cluster.scheduler().Now();
  cluster.injector().CrashAmnesiaTornAt(t + sim::Millis(10), 1,
                                        /*drop_tail=*/false);
  cluster.injector().RecoverAt(t + sim::Millis(120), 1);
  cluster.injector().CrashAmnesiaTornAt(t + sim::Millis(130), 1,
                                        /*drop_tail=*/false);
  cluster.injector().RecoverAt(t + sim::Millis(250), 1);
  cluster.RunFor(sim::Seconds(4));

  DoubleTornResult out;
  out.torn_truncated = Counter(cluster, "wal.torn_truncated");
  out.replayed = Counter(cluster, "wal.replay_records");
  out.reboots = cluster.stable(1).incarnation();
  for (ProcessorId p = 0; p < 3; ++p) {
    out.copies.push_back(cluster.store(p).Read(0).value().value);
  }
  out.certified = cluster.Certify().ok;
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  return out;
}

TEST(Amnesia, DoubleTornCrashSalvagesDeterministically) {
  DoubleTornResult a = RunDoubleTornCrash();
  DoubleTornResult b = RunDoubleTornCrash();
  // Both runs salvage to the same truncation point and replay the same
  // records — the salvage pass is a pure function of the log.
  EXPECT_EQ(a.torn_truncated, b.torn_truncated);
  EXPECT_EQ(a.replayed, b.replayed);
  EXPECT_EQ(a.reboots, 2u);
  EXPECT_GE(a.torn_truncated, 2u);  // Each crash tore one persist.
  EXPECT_EQ(a.copies, b.copies);
  for (const Value& v : a.copies) EXPECT_EQ(v, "X");
  EXPECT_TRUE(a.certified);
  EXPECT_TRUE(b.certified);
}

TEST(AmnesiaPlan, RoundTripKeepsDurabilityPlacementAndAmnesiaActions) {
  nemesis::FaultPlan plan;
  plan.n_processors = 4;
  plan.n_objects = 2;
  plan.durability = DurabilityMode::kNoWal;
  plan.placement = {{0, 0, 2}, {0, 1, 1}, {0, 2, 1}, {1, 1, 1}, {1, 3, 1}};
  net::FaultAction crash;
  crash.kind = net::FaultAction::Kind::kCrashAmnesia;
  crash.at = sim::Millis(100);
  crash.a = 1;
  net::FaultAction recover;
  recover.kind = net::FaultAction::Kind::kRecoverProcessor;
  recover.at = sim::Millis(400);
  recover.a = 1;
  plan.actions = {crash, recover};

  const std::string text = plan.ToText();
  Result<nemesis::FaultPlan> parsed = nemesis::FaultPlan::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToText(), text);
  EXPECT_EQ(parsed.value().durability, DurabilityMode::kNoWal);
  ASSERT_EQ(parsed.value().placement.size(), 5u);
  EXPECT_EQ(parsed.value().placement[0].weight, 2);
  ASSERT_EQ(parsed.value().actions.size(), 2u);
  EXPECT_EQ(parsed.value().actions[0].kind,
            net::FaultAction::Kind::kCrashAmnesia);
}

TEST(AmnesiaPlan, ParserRejectsBrokenPlacementsAndModes) {
  const char* uncovered =
      "processors 3\nobjects 2\ncopy 0 0 1\ncopy 0 1 1\n";
  EXPECT_FALSE(nemesis::FaultPlan::FromText(uncovered).ok())
      << "object 1 has no copy";
  const char* out_of_range = "processors 3\nobjects 1\ncopy 0 7 1\n";
  EXPECT_FALSE(nemesis::FaultPlan::FromText(out_of_range).ok());
  const char* bad_mode = "durability ramdisk\n";
  EXPECT_FALSE(nemesis::FaultPlan::FromText(bad_mode).ok());
}

TEST(AmnesiaPlan, GeneratorWithNewKnobsIsDeterministicAndCovers) {
  nemesis::GeneratorConfig cfg;
  cfg.enable_amnesia = true;
  cfg.weighted_placements = true;

  bool saw_amnesia = false;
  bool saw_placement = false;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    nemesis::FaultPlan a = nemesis::GeneratePlan(seed, cfg);
    nemesis::FaultPlan b = nemesis::GeneratePlan(seed, cfg);
    EXPECT_EQ(a.ToText(), b.ToText()) << "seed " << seed;
    EXPECT_EQ(a.durability, DurabilityMode::kWal);
    // Every generated plan must survive its own serialization.
    Result<nemesis::FaultPlan> parsed =
        nemesis::FaultPlan::FromText(a.ToText());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    for (const net::FaultAction& act : a.actions) {
      if (act.kind == net::FaultAction::Kind::kCrashAmnesia) {
        saw_amnesia = true;
      }
    }
    if (!a.placement.empty()) saw_placement = true;
  }
  EXPECT_TRUE(saw_amnesia);
  EXPECT_TRUE(saw_placement);

  // The legacy generator must be byte-identical to what it produced before
  // these knobs existed: all new rng draws are gated behind the flags.
  nemesis::GeneratorConfig legacy;
  nemesis::FaultPlan p = nemesis::GeneratePlan(5, legacy);
  EXPECT_EQ(p.durability, DurabilityMode::kRetainMemory);
  EXPECT_TRUE(p.placement.empty());
}

TEST(AmnesiaRun, StormTraceIsDeterministic) {
  nemesis::GeneratorConfig cfg;
  cfg.enable_amnesia = true;
  cfg.weighted_placements = true;
  nemesis::FaultPlan plan = nemesis::GeneratePlan(7, cfg);
  nemesis::RunOutcome a = nemesis::RunPlan(plan);
  nemesis::RunOutcome b = nemesis::RunPlan(plan);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.committed, b.committed);
  for (const char* name : {"wal.fsyncs", "wal.replay_records"}) {
    EXPECT_EQ(a.metrics.CounterValue(name), b.metrics.CounterValue(name))
        << name;
  }
  EXPECT_FALSE(a.violation()) << a.failure;
}

}  // namespace
}  // namespace vp
