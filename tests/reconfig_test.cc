// Online reconfiguration: epoch-based placement and weight changes under
// live traffic.
//
// A ReconfigOp batch proposed at any node commits at the next vp boundary
// whose view is authoritative under BOTH the current and the candidate
// placement; the old epoch drains (straddling transactions abort), the new
// placement serves, and every message and WAL record carries the epoch so
// stale-epoch traffic is rejected deterministically. The centerpiece
// negative control runs the identical split-brain plan twice: gated, the
// minority's shrink-to-itself reconfiguration defers until the heal and the
// run stays 1SR; ungated, it commits immediately and the campaign checker
// catches the lost update.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "nemesis/campaign.h"
#include "nemesis/nemesis.h"
#include "net/failure_injector.h"
#include "storage/placement.h"
#include "storage/stable_store.h"
#include "test_util.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;

ReconfigOp Add(ObjectId obj, ProcessorId proc, Weight w = 1) {
  return ReconfigOp{ReconfigOp::Kind::kAddCopy, obj, proc, w};
}
ReconfigOp Remove(ObjectId obj, ProcessorId proc) {
  return ReconfigOp{ReconfigOp::Kind::kRemoveCopy, obj, proc, 1};
}
ReconfigOp SetWeight(ObjectId obj, ProcessorId proc, Weight w) {
  return ReconfigOp{ReconfigOp::Kind::kSetWeight, obj, proc, w};
}

TEST(PlacementDirectory, EpochChainIsFirstWinsAndGapFree) {
  storage::CopyPlacement initial;
  initial.AddCopy(0, 0, 1);
  initial.AddCopy(0, 1, 1);
  initial.AddCopy(1, 0, 1);
  storage::PlacementDirectory dir(initial);

  EXPECT_EQ(dir.LatestEpoch(), 0u);
  ASSERT_TRUE(dir.Has(0));
  EXPECT_FALSE(dir.Has(1));
  EXPECT_TRUE(dir.OpsFor(0).empty());
  EXPECT_TRUE(dir.At(0).HasCopy(0, 1));

  ASSERT_TRUE(dir.Register(1, {Add(1, 1, 2)}));
  EXPECT_EQ(dir.LatestEpoch(), 1u);
  EXPECT_TRUE(dir.At(1).HasCopy(1, 1));
  EXPECT_EQ(dir.At(1).WeightOf(1, 1), 2u);
  EXPECT_FALSE(dir.At(0).HasCopy(1, 1)) << "epoch 0 must stay immutable";

  // First-wins: a competing registration of epoch 1 changes nothing.
  EXPECT_FALSE(dir.Register(1, {Remove(0, 0)}));
  EXPECT_TRUE(dir.At(1).HasCopy(0, 0));
  ASSERT_EQ(dir.OpsFor(1).size(), 1u);
  EXPECT_EQ(dir.OpsFor(1)[0], Add(1, 1, 2));

  // Tolerant op semantics: the last copy of an object cannot be removed.
  ASSERT_TRUE(dir.Register(2, {Remove(1, 0), Remove(1, 1)}));
  EXPECT_TRUE(dir.At(2).HasObject(1));
  EXPECT_EQ(dir.At(2).CopyHolders(1).size(), 1u);
}

TEST(Reconfig, AddCopyCommitsAtVpBoundaryAndBringsNewReplicaCurrent) {
  ClusterConfig config;
  config.n_processors = 4;
  config.n_objects = 2;
  config.seed = 21;
  config.protocol = Protocol::kVirtualPartition;
  // Object 0 starts on {0, 1, 2} only; p3 holds just object 1.
  config.placement.AddCopy(0, 0, 1);
  config.placement.AddCopy(0, 1, 1);
  config.placement.AddCopy(0, 2, 1);
  for (ProcessorId p = 0; p < 4; ++p) config.placement.AddCopy(1, p, 1);
  config.has_custom_placement = true;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  testutil::TxnOutcome pre =
      testutil::RunTxn(cluster, 0, {testutil::Write(0, "pre")});
  ASSERT_TRUE(pre.committed);
  cluster.RunFor(sim::Millis(200));

  cluster.ProposeReconfig(1, {Add(0, 3, 1)});
  cluster.RunFor(sim::Seconds(2));

  EXPECT_EQ(cluster.LatestEpoch(), 1u);
  for (ProcessorId p = 0; p < 4; ++p) {
    EXPECT_EQ(cluster.vp_node(p).epoch(), 1u) << "p" << p;
  }
  EXPECT_TRUE(cluster.FinalPlacement().HasCopy(0, 3));
  // Copy-update made the joining replica current before the epoch serves:
  // the pre-reconfig committed value is already on p3's fresh copy.
  EXPECT_EQ(cluster.store(3).Read(0).value().value, "pre");

  testutil::TxnOutcome post =
      testutil::RunTxn(cluster, 3, {testutil::Write(0, "post")});
  ASSERT_TRUE(post.committed);
  cluster.RunFor(sim::Seconds(1));
  EXPECT_EQ(cluster.store(3).Read(0).value().value, "post");
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
  EXPECT_EQ(
      cluster.metrics().Snapshot().CounterValue("vp.reconfigs_committed"),
      1u);
}

TEST(Reconfig, RemoveAndReweightChangeTheVotingGeometry) {
  ClusterConfig config;
  config.n_processors = 5;
  config.n_objects = 1;
  config.seed = 22;
  config.protocol = Protocol::kVirtualPartition;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  // One batch = one epoch: retire p4's vote and double p0's.
  cluster.ProposeReconfig(0, {Remove(0, 4), SetWeight(0, 0, 2)});
  cluster.RunFor(sim::Seconds(2));

  ASSERT_EQ(cluster.LatestEpoch(), 1u);
  const storage::CopyPlacement& final = cluster.FinalPlacement();
  EXPECT_FALSE(final.HasCopy(0, 4));
  EXPECT_EQ(final.WeightOf(0, 0), 2u);
  EXPECT_EQ(final.TotalWeight(0), 5u);  // 2 + 1 + 1 + 1.

  // The new geometry serves: {0, 1} now carries 3 of 5 votes, so a
  // partition leaving exactly that pair together keeps object 0 writable
  // there — impossible under the uniform epoch-0 weights.
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(2));
  testutil::TxnOutcome heavy =
      testutil::RunTxn(cluster, 0, {testutil::Write(0, "heavy")});
  EXPECT_TRUE(heavy.committed) << heavy.failure.ToString();
  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(3));
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

TEST(Reconfig, EpochBoundaryDrainsStraddlingTransactions) {
  ClusterConfig config;
  config.n_processors = 3;
  config.n_objects = 2;
  config.seed = 23;
  config.protocol = Protocol::kVirtualPartition;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  // The transaction begins (and reads) in epoch 0; the reconfiguration
  // commits before its commit point. The drain rule dooms it — a decision
  // must be attributable to exactly one epoch.
  core::NodeBase& node = cluster.node(0);
  const TxnId txn = node.NewTxnId();
  node.Begin(txn);
  bool read_ok = false;
  node.LogicalRead(txn, 0, [&](Result<core::ReadResult> r) {
    read_ok = r.ok();
  });
  cluster.RunFor(sim::Millis(100));
  ASSERT_TRUE(read_ok);

  cluster.ProposeReconfig(1, {SetWeight(0, 1, 2)});
  cluster.RunFor(sim::Seconds(2));
  ASSERT_EQ(cluster.LatestEpoch(), 1u);

  Status commit = Status::Internal("callback not run");
  node.Commit(txn, [&](Status s) { commit = s; });
  cluster.RunFor(sim::Seconds(1));
  EXPECT_FALSE(commit.ok()) << "straddling transaction must drain (abort)";

  // Fresh transactions in the new epoch are unaffected.
  testutil::TxnOutcome fresh =
      testutil::RunTxn(cluster, 0, {testutil::Write(0, "e1")});
  EXPECT_TRUE(fresh.committed);
  cluster.RunFor(sim::Seconds(1));
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

TEST(Reconfig, MinorityProposalDefersUntilAuthoritativeView) {
  ClusterConfig config;
  config.n_processors = 5;
  config.n_objects = 1;
  config.seed = 24;
  config.protocol = Protocol::kVirtualPartition;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  // A minority proposer cannot commit a reconfiguration: its views fail
  // the authoritativeness gate, so the batch stays pending (retried each
  // probe period) until the heal restores a qualifying view.
  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Millis(200));
  cluster.ProposeReconfig(0, {Remove(0, 2), Remove(0, 3), Remove(0, 4)});
  cluster.RunFor(sim::Seconds(2));
  EXPECT_EQ(cluster.LatestEpoch(), 0u) << "gate must defer in the minority";
  EXPECT_GE(
      cluster.metrics().Snapshot().CounterValue("vp.reconfigs_deferred"), 1u);

  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(3));
  EXPECT_EQ(cluster.LatestEpoch(), 1u) << "retry commits after the heal";
  EXPECT_EQ(cluster.FinalPlacement().CopyHolders(0),
            (std::vector<ProcessorId>{0, 1}));
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

// ---------------------------------------------------------------------------
// Reconfiguration racing crash-amnesia: the epoch and its reconfig chain
// live in stable view metadata, so a reboot replays into the correct epoch
// and resolves in-doubt transactions against the right placement.

TEST(ReconfigAmnesia, RebootDuringEpochTransitionReplaysIntoTheNewEpoch) {
  ClusterConfig config;
  config.n_processors = 4;
  config.n_objects = 1;
  config.seed = 25;
  config.protocol = Protocol::kVirtualPartition;
  config.durability = storage::DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  // Crash p1 with amnesia moments after the proposal, while the epoch
  // transition is in flight; recover it mid-transition.
  cluster.ProposeReconfig(0, {SetWeight(0, 0, 2)});
  const sim::SimTime t = cluster.scheduler().Now();
  cluster.injector().CrashAmnesiaAt(t + sim::Millis(5), 1);
  cluster.injector().RecoverAt(t + sim::Millis(400), 1);
  cluster.RunFor(sim::Seconds(4));

  ASSERT_EQ(cluster.LatestEpoch(), 1u);
  EXPECT_EQ(cluster.stable(1).incarnation(), 1u);
  // The rebooted node ends in the committed epoch — learned from its
  // persisted view metadata or re-learned from the view it rejoined.
  EXPECT_EQ(cluster.vp_node(1).epoch(), 1u);
  EXPECT_TRUE(cluster.VpConverged());

  testutil::TxnOutcome txn =
      testutil::RunTxn(cluster, 1, {testutil::Write(0, "after-reboot")});
  ASSERT_TRUE(txn.committed);
  cluster.RunFor(sim::Seconds(1));
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

TEST(ReconfigAmnesia, PersistedEpochSurvivesARebootAfterTheTransition) {
  ClusterConfig config;
  config.n_processors = 4;
  config.n_objects = 1;
  config.seed = 26;
  config.protocol = Protocol::kVirtualPartition;
  config.durability = storage::DurabilityMode::kWal;
  Cluster cluster(config);
  cluster.RunFor(sim::Seconds(2));

  cluster.ProposeReconfig(0, {SetWeight(0, 2, 2)});
  cluster.RunFor(sim::Seconds(2));
  ASSERT_EQ(cluster.LatestEpoch(), 1u);
  testutil::TxnOutcome committed =
      testutil::RunTxn(cluster, 0, {testutil::Write(0, "durable")});
  ASSERT_TRUE(committed.committed);
  cluster.RunFor(sim::Millis(500));

  // The epoch and the reconfig batch are on p2's stable device: the reboot
  // starts FROM epoch 1 (no re-learning needed) and the WAL's
  // epoch-stamped records replay against the epoch-1 placement.
  ASSERT_EQ(cluster.stable(2).epoch(), 1u);
  ASSERT_EQ(cluster.stable(2).reconfigs().size(), 1u);
  const sim::SimTime t = cluster.scheduler().Now();
  cluster.injector().CrashAmnesiaAt(t + sim::Millis(10), 2);
  cluster.injector().RecoverAt(t + sim::Millis(300), 2);
  cluster.RunFor(sim::Seconds(4));

  EXPECT_EQ(cluster.vp_node(2).epoch(), 1u);
  EXPECT_EQ(cluster.store(2).Read(0).value().value, "durable");
  EXPECT_TRUE(cluster.VpConverged());
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  EXPECT_TRUE(cluster.Certify().ok);
}

// ---------------------------------------------------------------------------
// Nemesis integration: plan format, generator determinism, the paired
// gated/ungated negative control, and a small gated storm campaign.

/// The split-brain scenario: a partition strands the proposer in a
/// minority, whose reconfiguration shrinks object 0's placement to exactly
/// that minority. Gated, the batch defers until the heal; ungated, both
/// sides serve disjoint majorities and 1SR breaks. Whether the certifier
/// can see the break depends on the schedule (about 55% of seeds show it:
/// the majority side must stay in a partition numbered below the
/// minority's), so the seed is re-checked whenever message schedules
/// shift.
nemesis::FaultPlan SplitBrainReconfigPlan(bool epoch_gating) {
  nemesis::FaultPlan plan;
  plan.protocol = harness::Protocol::kVirtualPartition;
  plan.n_processors = 5;
  plan.n_objects = 1;
  plan.seed = 1;
  plan.storm = sim::Seconds(3);
  plan.epoch_gating = epoch_gating;
  net::FaultAction split;
  split.at = sim::Millis(100);
  split.kind = net::FaultAction::Kind::kPartition;
  split.groups = {{0, 1}, {2, 3, 4}};
  plan.actions.push_back(split);
  net::FaultAction reconfig;
  reconfig.at = sim::Millis(200);
  reconfig.kind = net::FaultAction::Kind::kReconfig;
  reconfig.a = 0;
  reconfig.reconfig = {Remove(0, 2), Remove(0, 3), Remove(0, 4)};
  plan.actions.push_back(reconfig);
  return plan;
}

TEST(ReconfigNegativeControl, GatingDefersTheSplitBrainReconfiguration) {
  nemesis::RunOutcome out =
      nemesis::RunPlan(SplitBrainReconfigPlan(/*epoch_gating=*/true));
  EXPECT_FALSE(out.violation()) << out.failure;
  // The batch is not lost: the post-heal view passes the gate and commits
  // it, so the run still ends in epoch 1 — safely.
  EXPECT_EQ(out.final_epoch, 1u);
  EXPECT_EQ(out.reconfigs_committed, 1u);
}

TEST(ReconfigNegativeControl, DisablingTheGateLosesOneCopySR) {
  nemesis::RunOutcome out =
      nemesis::RunPlan(SplitBrainReconfigPlan(/*epoch_gating=*/false));
  ASSERT_TRUE(out.violation())
      << "the ungated control must violate, or the checker lost its teeth";
  EXPECT_FALSE(out.one_copy_sr) << out.failure;
  EXPECT_EQ(out.final_epoch, 1u);
}

TEST(ReconfigPlan, RoundTripPreservesReconfigActionsAndGatingFlag) {
  nemesis::FaultPlan plan = SplitBrainReconfigPlan(/*epoch_gating=*/false);
  const std::string text = plan.ToText();
  EXPECT_NE(text.find("epoch_gating 0"), std::string::npos);
  EXPECT_NE(text.find("action reconfig 200000 0 rm:0:2 rm:0:3 rm:0:4"),
            std::string::npos);
  Result<nemesis::FaultPlan> parsed = nemesis::FaultPlan::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToText(), text);
  EXPECT_FALSE(parsed.value().epoch_gating);
  ASSERT_EQ(parsed.value().actions.size(), 2u);
  EXPECT_EQ(parsed.value().actions[1].reconfig,
            (std::vector<ReconfigOp>{Remove(0, 2), Remove(0, 3),
                                     Remove(0, 4)}));

  // Legacy plans carry neither of the new lines: the format only grows for
  // plans that use the feature, keeping old .plan files byte-identical.
  nemesis::FaultPlan legacy;
  EXPECT_EQ(legacy.ToText().find("epoch_gating"), std::string::npos);
  EXPECT_EQ(legacy.ToText().find("reconfig"), std::string::npos);
}

TEST(ReconfigPlan, ParserRejectsMalformedAndOutOfRangeOps) {
  const std::string base = "processors 3\nobjects 2\n";
  EXPECT_FALSE(
      nemesis::FaultPlan::FromText(base + "action reconfig 100 0\n").ok())
      << "a reconfig action needs at least one op";
  EXPECT_FALSE(
      nemesis::FaultPlan::FromText(base + "action reconfig 100 0 zap:0:1\n")
          .ok());
  EXPECT_FALSE(
      nemesis::FaultPlan::FromText(base + "action reconfig 100 0 add:0:1\n")
          .ok())
      << "add needs a weight";
  EXPECT_FALSE(
      nemesis::FaultPlan::FromText(base + "action reconfig 100 0 rm:7:1\n")
          .ok())
      << "object out of range";
  EXPECT_FALSE(
      nemesis::FaultPlan::FromText(base + "action reconfig 100 0 rm:0:9\n")
          .ok())
      << "processor out of range";
  EXPECT_TRUE(
      nemesis::FaultPlan::FromText(base + "action reconfig 100 0 add:0:1:2\n")
          .ok());
}

TEST(ReconfigPlan, GeneratorIsDeterministicCoversReconfigAndGatesDraws) {
  nemesis::GeneratorConfig cfg;
  cfg.enable_reconfig = true;
  bool saw_reconfig = false;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    nemesis::FaultPlan a = nemesis::GeneratePlan(seed, cfg);
    nemesis::FaultPlan b = nemesis::GeneratePlan(seed, cfg);
    EXPECT_EQ(a.ToText(), b.ToText()) << "seed " << seed;
    EXPECT_TRUE(a.epoch_gating);
    Result<nemesis::FaultPlan> parsed =
        nemesis::FaultPlan::FromText(a.ToText());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    for (const net::FaultAction& act : a.actions) {
      if (act.kind == net::FaultAction::Kind::kReconfig) {
        saw_reconfig = true;
        EXPECT_FALSE(act.reconfig.empty());
      }
    }
  }
  EXPECT_TRUE(saw_reconfig);

  // The negative-control generator only flips the stamped flag; the storm
  // itself (and thus the comparison against the gated run) is unchanged.
  nemesis::GeneratorConfig ungated = cfg;
  ungated.epoch_gating = false;
  nemesis::FaultPlan g = nemesis::GeneratePlan(9, cfg);
  nemesis::FaultPlan u = nemesis::GeneratePlan(9, ungated);
  g.epoch_gating = false;
  EXPECT_EQ(g.ToText(), u.ToText());

  // Flag off = zero extra rng draws: no reconfig actions, gating default.
  nemesis::FaultPlan legacy = nemesis::GeneratePlan(9, {});
  EXPECT_TRUE(legacy.epoch_gating);
  for (const net::FaultAction& act : legacy.actions) {
    EXPECT_NE(act.kind, net::FaultAction::Kind::kReconfig);
  }
}

TEST(ReconfigRun, StormTraceIsDeterministic) {
  nemesis::GeneratorConfig cfg;
  cfg.enable_reconfig = true;
  // Seeds are cheap; scan for one whose plan actually reconfigures.
  nemesis::FaultPlan plan = nemesis::GeneratePlan(1, cfg);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    plan = nemesis::GeneratePlan(seed, cfg);
    bool has = false;
    for (const net::FaultAction& a : plan.actions) {
      has |= a.kind == net::FaultAction::Kind::kReconfig;
    }
    if (has) break;
  }
  nemesis::RunOutcome a = nemesis::RunPlan(plan);
  nemesis::RunOutcome b = nemesis::RunPlan(plan);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  EXPECT_EQ(a.reconfigs_committed, b.reconfigs_committed);
  EXPECT_FALSE(a.violation()) << a.failure;
}

TEST(ReconfigCampaign, GatedStormsStayViolationFree) {
  nemesis::CampaignConfig config;
  config.n_seeds = 10;
  config.generator.enable_reconfig = true;
  config.shrink_failures = false;
  nemesis::CampaignResult result = nemesis::RunCampaign(config);
  EXPECT_EQ(result.violations, 0u);
  EXPECT_EQ(result.runs, 10u);
  EXPECT_GT(result.fault_mix["reconfig"], 0u);
}

}  // namespace
}  // namespace vp
