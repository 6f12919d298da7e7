// Nemesis campaign engine: plan serialization, deterministic execution,
// invariant checking, and scenario shrinking.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nemesis/campaign.h"
#include "nemesis/nemesis.h"
#include "nemesis/shrink.h"

namespace vp::nemesis {
namespace {

using net::FaultAction;

/// A handcrafted storm exercising every serializable fault kind plus the
/// duplication and reordering knobs.
FaultPlan AllKindsPlan() {
  FaultPlan plan;
  plan.protocol = harness::Protocol::kVirtualPartition;
  plan.n_processors = 5;
  plan.n_objects = 6;
  plan.seed = 42;
  plan.storm = sim::Millis(2500);
  plan.drop_prob = 0.01;
  plan.slow_prob = 0.01;
  plan.dup_prob = 0.05;
  plan.reorder_prob = 0.1;
  plan.read_fraction = 0.5;
  plan.ops_per_txn = 3;
  plan.rmw = true;

  FaultAction a;
  a.at = sim::Millis(100);
  a.kind = FaultAction::Kind::kPartition;
  a.groups = {{0, 1, 2}, {3, 4}};
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(400);
  a.kind = FaultAction::Kind::kLinkDownOneWay;
  a.a = 0;
  a.b = 1;
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(700);
  a.kind = FaultAction::Kind::kCrashProcessor;
  a.a = 2;
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(900);
  a.kind = FaultAction::Kind::kHeal;
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(1000);
  a.kind = FaultAction::Kind::kLinkUpOneWay;
  a.a = 0;
  a.b = 1;
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(1100);
  a.kind = FaultAction::Kind::kRecoverProcessor;
  a.a = 2;
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(1200);
  a.kind = FaultAction::Kind::kChurnBurst;
  a.a = 3;
  a.count = 2;
  a.period = sim::Millis(50);
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(1600);
  a.kind = FaultAction::Kind::kLinkDown;
  a.a = 1;
  a.b = 4;
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(1900);
  a.kind = FaultAction::Kind::kLinkUp;
  a.a = 1;
  a.b = 4;
  plan.actions.push_back(a);
  return plan;
}

TEST(NemesisPlan, TextRoundTripIsExact) {
  const FaultPlan plan = AllKindsPlan();
  const std::string text = plan.ToText();
  Result<FaultPlan> parsed = FaultPlan::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToText(), text);
  EXPECT_EQ(parsed.value().actions.size(), plan.actions.size());
  EXPECT_EQ(parsed.value().n_processors, plan.n_processors);
  EXPECT_DOUBLE_EQ(parsed.value().reorder_prob, plan.reorder_prob);
}

TEST(NemesisPlan, FractionalKnobsSurviveRoundTrip) {
  FaultPlan plan;
  plan.read_fraction = 0.88064270068605421;  // Needs %.17g to survive.
  plan.dup_prob = 1.0 / 3.0;
  Result<FaultPlan> parsed = FaultPlan::FromText(plan.ToText());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().read_fraction, plan.read_fraction);
  EXPECT_EQ(parsed.value().dup_prob, plan.dup_prob);
}

TEST(NemesisPlan, ParserRejectsGarbage) {
  EXPECT_FALSE(FaultPlan::FromText("protocol time-travel\n").ok());
  EXPECT_FALSE(FaultPlan::FromText("action warp 10 0\n").ok());
  // Action referencing a processor outside the cluster.
  EXPECT_FALSE(
      FaultPlan::FromText("processors 3\naction crash 10 7\n").ok());
}

TEST(NemesisPlan, GeneratorIsAPureFunctionOfSeed) {
  const FaultPlan a = GeneratePlan(7);
  const FaultPlan b = GeneratePlan(7);
  EXPECT_EQ(a.ToText(), b.ToText());
  EXPECT_NE(GeneratePlan(8).ToText(), a.ToText());
}

TEST(CorruptionPlan, RoundTripKeepsCorruptionActionsAndIntegrity) {
  FaultPlan plan;
  plan.n_processors = 4;
  plan.n_objects = 3;
  plan.durability = storage::DurabilityMode::kWal;
  plan.integrity = storage::IntegrityMode::kNoChecksum;

  FaultAction a;
  a.at = sim::Millis(200);
  a.kind = FaultAction::Kind::kBitRot;
  a.a = 1;
  a.wal_index = 2;
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(300);
  a.kind = FaultAction::Kind::kBitRot;
  a.a = 2;
  a.corrupt_obj = 1;
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(400);
  a.kind = FaultAction::Kind::kTornWrite;
  a.a = 0;
  a.corrupt_obj = 2;
  plan.actions.push_back(a);

  a = {};
  a.at = sim::Millis(500);
  a.kind = FaultAction::Kind::kCrashAmnesiaTorn;
  a.a = 3;
  a.count = 1;  // drop_tail.
  plan.actions.push_back(a);

  const std::string text = plan.ToText();
  EXPECT_NE(text.find("integrity nochecksum"), std::string::npos);
  EXPECT_NE(text.find("action bit_rot 200000 1 wal:2"), std::string::npos);
  EXPECT_NE(text.find("action bit_rot 300000 2 copy:1"), std::string::npos);
  EXPECT_NE(text.find("action torn_write 400000 0 copy:2"), std::string::npos);
  EXPECT_NE(text.find("action crash_torn 500000 3 1"), std::string::npos);

  Result<FaultPlan> parsed = FaultPlan::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ToText(), text);
  EXPECT_EQ(parsed.value().integrity, storage::IntegrityMode::kNoChecksum);
  ASSERT_EQ(parsed.value().actions.size(), 4u);
  EXPECT_EQ(parsed.value().actions[0].wal_index, 2u);
  EXPECT_EQ(parsed.value().actions[0].corrupt_obj, kInvalidObject);
  EXPECT_EQ(parsed.value().actions[1].corrupt_obj, 1u);
  EXPECT_EQ(parsed.value().actions[3].count, 1u);
}

TEST(CorruptionPlan, DefaultIntegrityIsNotSerialized) {
  // Legacy plans must stay byte-identical: the integrity key only appears
  // when the mode differs from the checksummed default.
  FaultPlan plan;
  EXPECT_EQ(plan.ToText().find("integrity"), std::string::npos);
  Result<FaultPlan> parsed = FaultPlan::FromText(plan.ToText());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().integrity, storage::IntegrityMode::kChecksum);
}

TEST(CorruptionPlan, ParserRejectsBadCorruptionLines) {
  EXPECT_FALSE(FaultPlan::FromText("integrity trustme\n").ok());
  EXPECT_FALSE(FaultPlan::FromText("action bit_rot 10 0\n").ok())
      << "missing target";
  EXPECT_FALSE(FaultPlan::FromText("action bit_rot 10 0 sector:3\n").ok())
      << "unknown target kind";
  EXPECT_FALSE(FaultPlan::FromText("action torn_write 10 0 wal:x\n").ok())
      << "non-numeric index";
  EXPECT_FALSE(
      FaultPlan::FromText("objects 2\naction bit_rot 10 0 copy:5\n").ok())
      << "object out of range";
}

TEST(CorruptionPlan, GeneratorWithCorruptionIsDeterministicAndCovers) {
  GeneratorConfig cfg;
  cfg.enable_corruption = true;
  bool saw_rot = false;
  bool saw_torn = false;
  bool saw_crash_torn = false;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const FaultPlan a = GeneratePlan(seed, cfg);
    const FaultPlan b = GeneratePlan(seed, cfg);
    EXPECT_EQ(a.ToText(), b.ToText()) << "seed " << seed;
    Result<FaultPlan> parsed = FaultPlan::FromText(a.ToText());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    for (const FaultAction& act : a.actions) {
      if (act.kind == FaultAction::Kind::kBitRot) saw_rot = true;
      if (act.kind == FaultAction::Kind::kTornWrite) saw_torn = true;
      if (act.kind == FaultAction::Kind::kCrashAmnesiaTorn) {
        saw_crash_torn = true;
      }
    }
  }
  EXPECT_TRUE(saw_rot);
  EXPECT_TRUE(saw_torn);
  EXPECT_TRUE(saw_crash_torn);

  // Without the knob the generator's output is untouched by the new draws.
  const FaultPlan legacy = GeneratePlan(5, GeneratorConfig{});
  EXPECT_EQ(legacy.integrity, storage::IntegrityMode::kChecksum);
  for (const FaultAction& act : legacy.actions) {
    EXPECT_NE(act.kind, FaultAction::Kind::kBitRot);
    EXPECT_NE(act.kind, FaultAction::Kind::kTornWrite);
    EXPECT_NE(act.kind, FaultAction::Kind::kCrashAmnesiaTorn);
  }
}

TEST(CorruptionRun, StormTraceIsDeterministic) {
  GeneratorConfig cfg;
  cfg.enable_corruption = true;
  const FaultPlan plan = GeneratePlan(9, cfg);
  const RunOutcome a = RunPlan(plan);
  const RunOutcome b = RunPlan(plan);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.committed, b.committed);
  for (const char* name : {"wal.torn_truncated", "storage.quarantined",
                           "storage.scrub_repairs"}) {
    EXPECT_EQ(a.metrics.CounterValue(name), b.metrics.CounterValue(name))
        << name;
  }
  EXPECT_FALSE(a.violation()) << a.failure;
}

TEST(NemesisRun, TraceIsByteIdenticalAcrossRuns) {
  // The determinism contract behind campaign search, shrinking, and
  // --replay: the same plan (including duplication, reordering, one-way
  // cuts, and churn) produces the same trace, byte for byte.
  const FaultPlan plan = AllKindsPlan();
  const RunOutcome first = RunPlan(plan);
  const RunOutcome second = RunPlan(plan);
  EXPECT_GT(first.duplicated, 0u);
  EXPECT_GT(first.reordered, 0u);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.aborted, second.aborted);
  EXPECT_EQ(first.failure, second.failure);
}

TEST(NemesisRun, VirtualPartitionSurvivesTheAllKindsStorm) {
  const RunOutcome out = RunPlan(AllKindsPlan());
  EXPECT_FALSE(out.violation()) << out.failure;
  EXPECT_TRUE(out.progress);
  EXPECT_TRUE(out.converged);
}

TEST(NemesisCampaign, VirtualPartitionPassesASeedSweep) {
  CampaignConfig config;
  config.protocol = harness::Protocol::kVirtualPartition;
  config.first_seed = 1;
  config.n_seeds = 10;
  config.shrink_failures = false;
  const CampaignResult result = RunCampaign(config);
  EXPECT_EQ(result.runs, 10u);
  EXPECT_EQ(result.violations, 0u) << FormatCampaign(config, result);
  EXPECT_GT(result.committed, 0u);
}

TEST(NemesisCampaign, NaiveViewViolatesAndShrinkReproduces) {
  // The strawman loses committed writes under partitions; the campaign
  // must catch it and the shrinker must hand back a smaller plan that
  // still reproduces a violation deterministically.
  FaultPlan plan = GeneratePlan(1);
  plan.protocol = harness::Protocol::kNaiveView;
  const RunOutcome out = RunPlan(plan);
  ASSERT_TRUE(out.violation()) << "naive-view unexpectedly passed seed 1";

  ShrinkConfig shrink;
  shrink.budget = 60;
  const ShrinkResult small = ShrinkPlan(plan, shrink);
  EXPECT_TRUE(small.input_failed);
  EXPECT_TRUE(small.outcome.violation());
  EXPECT_LE(small.final_actions, small.original_actions);
  EXPECT_LE(small.runs, shrink.budget);

  // The shrunk plan replays to the same verdict through the text form.
  Result<FaultPlan> reloaded = FaultPlan::FromText(small.plan.ToText());
  ASSERT_TRUE(reloaded.ok());
  const RunOutcome replay = RunPlan(reloaded.value());
  EXPECT_EQ(replay.failure, small.outcome.failure);
}

TEST(NemesisShrink, PassingInputIsReportedNotShrunk) {
  FaultPlan plan = GeneratePlan(1);  // Virtual partition: passes.
  ShrinkConfig shrink;
  shrink.budget = 5;
  const ShrinkResult r = ShrinkPlan(plan, shrink);
  EXPECT_FALSE(r.input_failed);
  EXPECT_FALSE(r.outcome.violation());
  EXPECT_EQ(r.plan.ToText(), plan.ToText());
}

}  // namespace
}  // namespace vp::nemesis
