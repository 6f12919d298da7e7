// Unit tests for copy placement (weighted accessibility), the replica
// store (staging, recovery, write logs), and the storage corruption model
// (WAL framing, salvage, image quarantine).
#include <gtest/gtest.h>

#include <set>

#include "obs/metrics.h"
#include "storage/placement.h"
#include "storage/replica_store.h"
#include "storage/stable_store.h"
#include "storage/wal.h"

namespace vp::storage {
namespace {

TEST(Placement, FullReplicationBasics) {
  auto pl = CopyPlacement::FullReplication(3, 2);
  EXPECT_EQ(pl.object_count(), 2u);
  for (ObjectId obj = 0; obj < 2; ++obj) {
    EXPECT_EQ(pl.CopyHolders(obj).size(), 3u);
    EXPECT_EQ(pl.TotalWeight(obj), 3u);
    for (ProcessorId p = 0; p < 3; ++p) {
      EXPECT_TRUE(pl.HasCopy(obj, p));
      EXPECT_EQ(pl.WeightOf(obj, p), 1u);
    }
  }
}

TEST(Placement, MajorityAccessibility) {
  auto pl = CopyPlacement::FullReplication(5, 1);
  EXPECT_TRUE(pl.Accessible(0, std::set<ProcessorId>{0, 1, 2}));
  EXPECT_FALSE(pl.Accessible(0, std::set<ProcessorId>{0, 1}));
  EXPECT_TRUE(pl.Accessible(0, std::set<ProcessorId>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(pl.Accessible(0, std::set<ProcessorId>{}));
}

TEST(Placement, EvenCopyCountNeedsStrictMajority) {
  auto pl = CopyPlacement::FullReplication(4, 1);
  // 2 of 4 votes is NOT a majority.
  EXPECT_FALSE(pl.Accessible(0, std::set<ProcessorId>{0, 1}));
  EXPECT_TRUE(pl.Accessible(0, std::set<ProcessorId>{0, 1, 2}));
}

TEST(Placement, WeightedMajority) {
  // Example 2's object a: weight 2 at A(0), weight 1 at D(3).
  CopyPlacement pl;
  pl.AddCopy(0, 0, 2);
  pl.AddCopy(0, 3, 1);
  EXPECT_EQ(pl.TotalWeight(0), 3u);
  // A alone has 2/3 — a strict majority.
  EXPECT_TRUE(pl.Accessible(0, std::set<ProcessorId>{0}));
  // D alone has 1/3 — not a majority.
  EXPECT_FALSE(pl.Accessible(0, std::set<ProcessorId>{3}));
}

TEST(Placement, ReWeightingReplaces) {
  CopyPlacement pl;
  pl.AddCopy(0, 1, 1);
  pl.AddCopy(0, 1, 5);
  EXPECT_EQ(pl.WeightOf(0, 1), 5u);
  EXPECT_EQ(pl.TotalWeight(0), 5u);
  EXPECT_EQ(pl.CopyHolders(0).size(), 1u);
}

TEST(Placement, LocalObjects) {
  CopyPlacement pl;
  pl.AddCopy(0, 0, 1);
  pl.AddCopy(1, 1, 1);
  pl.AddCopy(2, 0, 1);
  EXPECT_EQ(pl.LocalObjects(0), (std::vector<ObjectId>{0, 2}));
  EXPECT_EQ(pl.LocalObjects(1), (std::vector<ObjectId>{1}));
  EXPECT_TRUE(pl.LocalObjects(2).empty());
}

TEST(Placement, UnknownObjectQueries) {
  CopyPlacement pl;
  EXPECT_FALSE(pl.HasObject(5));
  EXPECT_FALSE(pl.HasCopy(5, 0));
  EXPECT_EQ(pl.WeightOf(5, 0), 0u);
  EXPECT_TRUE(pl.CopyHolders(5).empty());
  EXPECT_FALSE(pl.Accessible(5, std::set<ProcessorId>{0, 1, 2}));
}

// --- ReplicaStore ---

TEST(ReplicaStore, CreateAndRead) {
  ReplicaStore s;
  s.CreateCopy(0, "init");
  ASSERT_TRUE(s.HasCopy(0));
  auto v = s.Read(0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().value, "init");
  EXPECT_EQ(v.value().date, kEpochDate);
  EXPECT_TRUE(s.Read(1).status().IsNotFound());
}

TEST(ReplicaStore, StageCommitCycle) {
  ReplicaStore s;
  s.CreateCopy(0, "old");
  TxnId t{1, 1};
  ASSERT_TRUE(s.StageWrite(t, 0, "new", VpId{3, 1}).ok());
  // Committed value unchanged until the stage commits.
  EXPECT_EQ(s.Read(0).value().value, "old");
  EXPECT_TRUE(s.HasStage(0));
  EXPECT_EQ(*s.StageOwner(0), t);
  ASSERT_TRUE(s.CommitStage(t, 0).ok());
  EXPECT_EQ(s.Read(0).value().value, "new");
  EXPECT_EQ(s.Read(0).value().date, (VpId{3, 1}));
  EXPECT_FALSE(s.HasStage(0));
}

TEST(ReplicaStore, DiscardStageKeepsCommitted) {
  ReplicaStore s;
  s.CreateCopy(0, "keep");
  TxnId t{1, 1};
  ASSERT_TRUE(s.StageWrite(t, 0, "drop", VpId{1, 0}).ok());
  s.DiscardStage(t, 0);
  EXPECT_EQ(s.Read(0).value().value, "keep");
  EXPECT_FALSE(s.HasStage(0));
}

TEST(ReplicaStore, SecondStageByOtherTxnRejected) {
  ReplicaStore s;
  s.CreateCopy(0);
  ASSERT_TRUE(s.StageWrite(TxnId{1, 1}, 0, "a", VpId{1, 0}).ok());
  EXPECT_TRUE(s.StageWrite(TxnId{2, 1}, 0, "b", VpId{1, 0}).IsBusy());
  // Same txn may restage.
  EXPECT_TRUE(s.StageWrite(TxnId{1, 1}, 0, "a2", VpId{1, 0}).ok());
}

TEST(ReplicaStore, StagedValueVisibleToOwnerOnly) {
  ReplicaStore s;
  s.CreateCopy(0, "base");
  TxnId owner{1, 1};
  ASSERT_TRUE(s.StageWrite(owner, 0, "mine", VpId{2, 0}).ok());
  ASSERT_TRUE(s.StagedValue(owner, 0).has_value());
  EXPECT_EQ(s.StagedValue(owner, 0)->value, "mine");
  EXPECT_FALSE(s.StagedValue(TxnId{2, 2}, 0).has_value());
}

TEST(ReplicaStore, CommitStageRespectsDateGuard) {
  ReplicaStore s;
  s.CreateCopy(0, "newer");
  // Copy already advanced to date (5,0) by recovery.
  ASSERT_TRUE(s.InstallRecovery(0, "recovered", VpId{5, 0}).ok());
  // A very late commit from an older partition must not regress the copy.
  TxnId t{1, 1};
  ASSERT_TRUE(s.StageWrite(t, 0, "stale", VpId{2, 0}).ok());
  ASSERT_TRUE(s.CommitStage(t, 0).ok());
  EXPECT_EQ(s.Read(0).value().value, "recovered");
  EXPECT_EQ(s.Read(0).value().date, (VpId{5, 0}));
}

TEST(ReplicaStore, InstallRecoveryNeverRegresses) {
  ReplicaStore s;
  s.CreateCopy(0, "v5");
  ASSERT_TRUE(s.InstallRecovery(0, "v5", VpId{5, 0}).ok());
  ASSERT_TRUE(s.InstallRecovery(0, "v3", VpId{3, 0}).ok());
  EXPECT_EQ(s.Read(0).value().value, "v5");
  ASSERT_TRUE(s.InstallRecovery(0, "v7", VpId{7, 0}).ok());
  EXPECT_EQ(s.Read(0).value().value, "v7");
}

TEST(ReplicaStore, CommitOfUnknownStageIsNoop) {
  ReplicaStore s;
  s.CreateCopy(0, "x");
  EXPECT_TRUE(s.CommitStage(TxnId{9, 9}, 0).ok());
  EXPECT_EQ(s.Read(0).value().value, "x");
}

TEST(ReplicaStore, LogRecordsCommittedWritesInOrder) {
  ReplicaStore s;
  s.CreateCopy(0, "0");
  for (uint64_t i = 1; i <= 3; ++i) {
    TxnId t{0, i};
    ASSERT_TRUE(s.StageWrite(t, 0, "v" + std::to_string(i), VpId{i, 0}).ok());
    ASSERT_TRUE(s.CommitStage(t, 0).ok());
  }
  auto all = s.LogSince(0, kEpochDate);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].value, "v1");
  EXPECT_EQ(all[2].value, "v3");
  auto suffix = s.LogSince(0, VpId{1, 0});
  ASSERT_EQ(suffix.size(), 2u);
  EXPECT_EQ(suffix[0].value, "v2");
}

TEST(ReplicaStore, ApplyLogSuffixCatchesUp) {
  ReplicaStore a, b;
  a.CreateCopy(0, "0");
  b.CreateCopy(0, "0");
  for (uint64_t i = 1; i <= 4; ++i) {
    TxnId t{0, i};
    ASSERT_TRUE(a.StageWrite(t, 0, "v" + std::to_string(i), VpId{i, 0}).ok());
    ASSERT_TRUE(a.CommitStage(t, 0).ok());
  }
  // b missed everything; fetch the suffix after its date and apply.
  auto suffix = a.LogSince(0, b.Read(0).value().date);
  ASSERT_TRUE(b.ApplyLogSuffix(0, suffix).ok());
  EXPECT_EQ(b.Read(0).value().value, "v4");
  EXPECT_EQ(b.Read(0).value().date, (VpId{4, 0}));
  EXPECT_EQ(b.stats().log_catchup_records, 4u);
  // b's own log is now complete: it can serve catch-ups itself.
  EXPECT_EQ(b.LogSince(0, VpId{2, 0}).size(), 2u);
}

TEST(ReplicaStore, StatsCount) {
  ReplicaStore s;
  s.CreateCopy(0);
  TxnId t{1, 1};
  ASSERT_TRUE(s.StageWrite(t, 0, "a", VpId{1, 0}).ok());
  ASSERT_TRUE(s.CommitStage(t, 0).ok());
  ASSERT_TRUE(s.StageWrite(t, 0, "b", VpId{1, 0}).ok());
  s.DiscardStage(t, 0);
  EXPECT_EQ(s.stats().stages, 2u);
  EXPECT_EQ(s.stats().commits, 1u);
  EXPECT_EQ(s.stats().discards, 1u);
}

TEST(ReplicaStore, LocalObjectsSorted) {
  ReplicaStore s;
  s.CreateCopy(5);
  s.CreateCopy(1);
  s.CreateCopy(3);
  EXPECT_EQ(s.LocalObjects(), (std::vector<ObjectId>{1, 3, 5}));
}

// --- WAL framing and salvage ---

WalRecord MakePrepare(uint64_t seq, Value value = "payload") {
  WalRecord rec;
  rec.type = WalRecord::Type::kPrepare;
  rec.txn = TxnId{1, seq};
  rec.obj = 0;
  rec.value = std::move(value);
  rec.date = VpId{seq, 1};
  return rec;
}

WalRecord MakeOutcome(uint64_t seq, bool committed) {
  WalRecord rec;
  rec.type = WalRecord::Type::kOutcome;
  rec.txn = TxnId{1, seq};
  rec.committed = committed;
  return rec;
}

WalRecord MakeDecision(uint64_t seq) {
  WalRecord rec;
  rec.type = WalRecord::Type::kDecision;
  rec.txn = TxnId{1, seq};
  return rec;
}

TEST(Wal, AppendedFramesVerify) {
  WriteAheadLog wal;
  wal.Append(MakePrepare(1));
  wal.Append(MakeDecision(1));
  wal.Append(MakeOutcome(1, true));
  ASSERT_EQ(wal.frames().size(), 3u);
  uint64_t expect_bytes = 0;
  for (const WalFrame& f : wal.frames()) {
    EXPECT_TRUE(WriteAheadLog::Intact(f));
    expect_bytes += f.len;
  }
  EXPECT_EQ(wal.bytes(), expect_bytes);
}

TEST(Wal, RotBreaksVerificationPerRecordType) {
  WriteAheadLog wal;
  wal.Append(MakePrepare(1, "value"));
  wal.Append(MakeOutcome(2, true));
  wal.Append(MakeDecision(3));
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.RotRecord(i));
    EXPECT_FALSE(WriteAheadLog::Intact(wal.frames()[i])) << "frame " << i;
  }
  // The rot changed semantics, not just framing: a checksum-less reader
  // would replay a flipped value, a flipped outcome, a misdirected decision.
  EXPECT_NE(wal.frames()[0].rec.value, "value");
  EXPECT_FALSE(wal.frames()[1].rec.committed);
  EXPECT_NE(wal.frames()[2].rec.txn.seq, 3u);
  EXPECT_FALSE(wal.RotRecord(99));
}

TEST(Wal, TornRecordFailsVerification) {
  WriteAheadLog wal;
  wal.Append(MakePrepare(1, "longer payload"));
  ASSERT_TRUE(wal.TearRecord(0));
  const WalFrame& f = wal.frames()[0];
  EXPECT_TRUE(f.torn);
  EXPECT_FALSE(WriteAheadLog::Intact(f));
  EXPECT_LT(f.rec.value.size(), Value("longer payload").size());
}

TEST(Wal, TearTailDropRemovesNewestFrame) {
  WriteAheadLog wal;
  wal.Append(MakePrepare(1));
  wal.Append(MakePrepare(2));
  const uint64_t first_len = wal.frames()[0].len;
  wal.TearTail(/*drop=*/true);
  ASSERT_EQ(wal.frames().size(), 1u);
  EXPECT_EQ(wal.frames()[0].rec.txn.seq, 1u);
  EXPECT_EQ(wal.bytes(), first_len);
}

TEST(Wal, TearTailHalfLeavesTornFrame) {
  WriteAheadLog wal;
  wal.Append(MakePrepare(1));
  wal.Append(MakePrepare(2, "0123456789"));
  const uint64_t before = wal.bytes();
  wal.TearTail(/*drop=*/false);
  ASSERT_EQ(wal.frames().size(), 2u);
  EXPECT_TRUE(wal.frames()[1].torn);
  EXPECT_FALSE(WriteAheadLog::Intact(wal.frames()[1]));
  EXPECT_LT(wal.bytes(), before);
}

TEST(Wal, TearTailOnEmptyLogAppendsPhantom) {
  WriteAheadLog wal;
  wal.TearTail(/*drop=*/true);
  ASSERT_EQ(wal.frames().size(), 1u);
  EXPECT_TRUE(wal.frames()[0].torn);
  EXPECT_FALSE(WriteAheadLog::Intact(wal.frames()[0]));
}

TEST(Wal, SalvageTruncatesExactlyTheTornTail) {
  WriteAheadLog wal;
  wal.Append(MakePrepare(1));
  wal.Append(MakeDecision(1));
  wal.Append(MakePrepare(2));
  wal.TearTail(/*drop=*/false);  // Frame 2 half-written by the crash.
  auto res = wal.Salvage();
  EXPECT_EQ(res.tail_truncated, 1u);
  EXPECT_EQ(res.mid_dropped, 0u);
  EXPECT_FALSE(res.quarantined());
  // Exactly the half-written record is gone; the intact prefix survives.
  ASSERT_EQ(wal.frames().size(), 2u);
  EXPECT_EQ(wal.frames()[1].rec.type, WalRecord::Type::kDecision);
  uint64_t expect_bytes = 0;
  for (const WalFrame& f : wal.frames()) expect_bytes += f.len;
  EXPECT_EQ(wal.bytes(), expect_bytes);
}

TEST(Wal, SalvageIsIdempotent) {
  WriteAheadLog wal;
  wal.Append(MakePrepare(1));
  wal.Append(MakePrepare(2));
  wal.TearTail(/*drop=*/false);
  ASSERT_EQ(wal.Salvage().tail_truncated, 1u);
  const size_t frames_after = wal.frames().size();
  // A second crash during replay reruns salvage: same truncation point,
  // nothing further lost.
  auto second = wal.Salvage();
  EXPECT_EQ(second.tail_truncated, 0u);
  EXPECT_EQ(second.mid_dropped, 0u);
  EXPECT_EQ(wal.frames().size(), frames_after);
}

TEST(Wal, SalvageQuarantinesMidLogRot) {
  WriteAheadLog wal;
  wal.Append(MakePrepare(1));
  wal.Append(MakeDecision(1));
  wal.Append(MakePrepare(2));
  ASSERT_TRUE(wal.RotRecord(1));  // Rot followed by a valid frame.
  auto res = wal.Salvage();
  EXPECT_EQ(res.tail_truncated, 0u);
  EXPECT_EQ(res.mid_dropped, 1u);
  EXPECT_TRUE(res.quarantined());
  // The rotted frame is dropped; the surviving frames verify.
  ASSERT_EQ(wal.frames().size(), 2u);
  for (const WalFrame& f : wal.frames()) EXPECT_TRUE(WriteAheadLog::Intact(f));
}

TEST(Wal, SalvageAllInvalidIsATornTailNotRot) {
  WriteAheadLog wal;
  wal.Append(MakePrepare(1));
  wal.Append(MakePrepare(2));
  ASSERT_TRUE(wal.TearRecord(0));
  ASSERT_TRUE(wal.TearRecord(1));
  // No valid frame anywhere: everything is explainable as a torn tail, so
  // the log empties without declaring mid-log corruption.
  auto res = wal.Salvage();
  EXPECT_EQ(res.tail_truncated, 2u);
  EXPECT_FALSE(res.quarantined());
  EXPECT_TRUE(wal.frames().empty());
  EXPECT_EQ(wal.bytes(), 0u);
}

// --- StableStore integrity ---

/// Value of a counter in `metrics` (each test's device counts into a
/// registry of its own).
uint64_t Count(const obs::MetricsRegistry& metrics, const char* name) {
  return metrics.Snapshot().CounterValue(name);
}

TEST(StableStore, PersistedImageVerifies) {
  StableStore dev(DurabilityMode::kWal);
  dev.PersistCopy(0, "value", VpId{3, 1}, {});
  const auto& image = dev.copies().at(0);
  EXPECT_TRUE(dev.ImageIntact(image));
}

TEST(StableStore, RottedImageFailsVerification) {
  StableStore dev(DurabilityMode::kWal);
  dev.PersistCopy(0, "value", VpId{3, 1}, {});
  dev.CorruptCopyImage(0);
  EXPECT_FALSE(dev.ImageIntact(dev.copies().at(0)));
}

TEST(StableStore, TornImageFailsVerification) {
  StableStore dev(DurabilityMode::kWal);
  dev.PersistCopy(0, "longvalue", VpId{3, 1}, {});
  dev.TearCopyImage(0);
  const auto& image = dev.copies().at(0);
  EXPECT_TRUE(image.torn);
  EXPECT_FALSE(dev.ImageIntact(image));
}

TEST(StableStore, NoChecksumServesRotVerbatim) {
  StableStore dev(DurabilityMode::kWal, IntegrityMode::kNoChecksum);
  obs::MetricsRegistry metrics(obs::RegistryMode::kSerial);
  dev.AttachMetrics(&metrics);
  dev.PersistCopy(0, "value", VpId{3, 1}, {});
  dev.CorruptCopyImage(0);
  // The strawman accepts the rot — this is what corruption campaigns must
  // catch violating durability.
  EXPECT_TRUE(dev.ImageIntact(dev.copies().at(0)));
  dev.AppendWal(MakePrepare(1));
  dev.RotWalFrame(0);
  dev.BeginReplay();
  // No salvage ran: the rotted frame is still there to be replayed.
  EXPECT_EQ(dev.wal().frames().size(), 1u);
  EXPECT_FALSE(dev.quarantined());
  EXPECT_EQ(Count(metrics, "wal.torn_truncated"), 0u);
  dev.EndReplay();
}

TEST(StableStore, BeginReplaySalvagesTornTail) {
  StableStore dev(DurabilityMode::kWal);
  obs::MetricsRegistry metrics(obs::RegistryMode::kSerial);
  dev.AttachMetrics(&metrics);
  dev.AppendWal(MakePrepare(1));
  dev.AppendWal(MakeOutcome(1, /*committed=*/true));
  dev.TearTailOnCrash(/*drop=*/false);
  dev.BeginReplay();
  EXPECT_TRUE(dev.replaying());
  EXPECT_EQ(Count(metrics, "wal.torn_truncated"), 1u);
  EXPECT_FALSE(dev.quarantined());
  ASSERT_EQ(dev.wal().frames().size(), 1u);
  EXPECT_EQ(dev.wal().frames()[0].rec.txn.seq, 1u);
  dev.EndReplay();
  EXPECT_FALSE(dev.replaying());
}

TEST(StableStore, BeginReplayQuarantinesMidLogRot) {
  StableStore dev(DurabilityMode::kWal);
  dev.AppendWal(MakePrepare(1));
  dev.AppendWal(MakeDecision(1));
  dev.RotWalFrame(0);
  dev.BeginReplay();
  EXPECT_TRUE(dev.quarantined());
  dev.EndReplay();
}

TEST(StableStore, TearTailOnCrashAfterDecisionIsAPhantom) {
  StableStore dev(DurabilityMode::kWal);
  obs::MetricsRegistry metrics(obs::RegistryMode::kSerial);
  dev.AttachMetrics(&metrics);
  dev.AppendWal(MakePrepare(1));
  dev.AppendWal(MakeDecision(1));
  // The decision's fsync completed and was externalized as the commit
  // announcement; the crash can only have torn a *later* persist. The
  // decision must survive salvage.
  dev.TearTailOnCrash(/*drop=*/true);
  ASSERT_EQ(dev.wal().frames().size(), 3u);
  EXPECT_TRUE(dev.wal().frames()[2].torn);
  dev.BeginReplay();
  ASSERT_EQ(dev.wal().frames().size(), 2u);
  EXPECT_EQ(dev.wal().frames()[1].rec.type, WalRecord::Type::kDecision);
  EXPECT_EQ(Count(metrics, "wal.torn_truncated"), 1u);
  EXPECT_FALSE(dev.quarantined());
  dev.EndReplay();
}

TEST(StableStore, TearTailOnCrashAfterPrepareIsAPhantom) {
  StableStore dev(DurabilityMode::kWal);
  obs::MetricsRegistry metrics(obs::RegistryMode::kSerial);
  dev.AttachMetrics(&metrics);
  dev.AppendWal(MakeDecision(1));
  dev.AppendWal(MakePrepare(2));
  // The prepare's fsync completed before the participant acked the write;
  // the coordinator may have committed on that ack. Tearing it would
  // silently drop a committed write from this copy, and when the write
  // carries the same date as the value before it (two writes in one vp),
  // no max-date recovery can notice the loss.
  dev.TearTailOnCrash(/*drop=*/true);
  ASSERT_EQ(dev.wal().frames().size(), 3u);
  EXPECT_TRUE(dev.wal().frames()[2].torn);
  dev.BeginReplay();
  ASSERT_EQ(dev.wal().frames().size(), 2u);
  EXPECT_EQ(dev.wal().frames()[1].rec.type, WalRecord::Type::kPrepare);
  EXPECT_EQ(Count(metrics, "wal.torn_truncated"), 1u);
  dev.EndReplay();
}

TEST(StableStore, DoubleCrashDuringReplayRestartsSalvageCleanly) {
  StableStore dev(DurabilityMode::kWal);
  obs::MetricsRegistry metrics(obs::RegistryMode::kSerial);
  dev.AttachMetrics(&metrics);
  dev.AppendWal(MakePrepare(1));
  dev.AppendWal(MakeDecision(1));
  dev.AppendWal(MakeOutcome(2, /*committed=*/false));
  dev.TearTailOnCrash(/*drop=*/false);
  dev.BeginIncarnation();
  dev.BeginReplay();
  ASSERT_TRUE(dev.replaying());
  EXPECT_EQ(Count(metrics, "wal.torn_truncated"), 1u);
  const size_t frames_after_first = dev.wal().frames().size();
  // Second amnesia crash mid-replay: the reboot tears whatever persist was
  // in flight (here a phantom — the salvaged tail ends in the decision) and
  // restarts salvage from scratch. It must converge to the same truncation
  // point: only the new tear goes, nothing already salvaged is lost.
  dev.TearTailOnCrash(/*drop=*/false);
  dev.BeginIncarnation();
  EXPECT_FALSE(dev.replaying());
  dev.BeginReplay();
  EXPECT_EQ(Count(metrics, "wal.torn_truncated"), 2u);
  EXPECT_EQ(dev.wal().frames().size(), frames_after_first);
  EXPECT_EQ(dev.wal().frames().back().rec.type, WalRecord::Type::kDecision);
  EXPECT_FALSE(dev.quarantined());
  dev.EndReplay();
}

TEST(StableStore, NoWalTearTailIsNoop) {
  StableStore dev(DurabilityMode::kNoWal);
  dev.AppendWal(MakePrepare(1));  // Dropped: kNoWal keeps no records.
  dev.TearTailOnCrash(/*drop=*/true);
  EXPECT_TRUE(dev.wal().frames().empty());
}

TEST(StableStore, AppendsSuppressedDuringReplay) {
  StableStore dev(DurabilityMode::kWal);
  dev.AppendWal(MakePrepare(1));
  dev.BeginReplay();
  dev.AppendWal(MakePrepare(2));  // Re-staging during replay: not re-logged.
  EXPECT_EQ(dev.wal().frames().size(), 1u);
  dev.EndReplay();
  dev.AppendWal(MakePrepare(3));
  EXPECT_EQ(dev.wal().frames().size(), 2u);
}

TEST(StableStore, CorruptWalPrepareIndexesNewestFirst) {
  StableStore dev(DurabilityMode::kWal);
  dev.AppendWal(MakePrepare(1));
  dev.AppendWal(MakeDecision(1));
  dev.AppendWal(MakePrepare(2));
  dev.CorruptWalPrepare(0);  // Newest prepare = seq 2.
  EXPECT_FALSE(WriteAheadLog::Intact(dev.wal().frames()[2]));
  EXPECT_TRUE(WriteAheadLog::Intact(dev.wal().frames()[0]));
  dev.CorruptWalPrepare(1);  // Next-newest = seq 1; decision untouched.
  EXPECT_FALSE(WriteAheadLog::Intact(dev.wal().frames()[0]));
  EXPECT_TRUE(WriteAheadLog::Intact(dev.wal().frames()[1]));
}

// --- Quarantine round trip through the replica store ---

TEST(ReplicaStore, AttachStableQuarantinesRottedImage) {
  StableStore dev(DurabilityMode::kWal);
  obs::MetricsRegistry metrics(obs::RegistryMode::kSerial);
  dev.AttachMetrics(&metrics);
  {
    // First incarnation persists two committed copies.
    ReplicaStore s;
    s.AttachStable(&dev);
    s.CreateCopy(0, "zero");
    s.CreateCopy(1, "one");
    TxnId t{1, 1};
    ASSERT_TRUE(s.StageWrite(t, 0, "committed", VpId{4, 2}).ok());
    ASSERT_TRUE(s.CommitStage(t, 0).ok());
  }
  dev.CorruptCopyImage(0);  // Rot at rest while the node is down.
  dev.BeginIncarnation();
  ReplicaStore reborn;
  reborn.CreateCopy(0, "zero");
  reborn.CreateCopy(1, "one");
  reborn.AttachStable(&dev);
  // The intact image loads; the rotted one is quarantined at kEpochDate so
  // copy-update treats it as maximally stale rather than serving the rot.
  EXPECT_EQ(reborn.Read(1).value().value, "one");
  EXPECT_TRUE(reborn.IsQuarantined(0));
  EXPECT_FALSE(reborn.IsQuarantined(1));
  EXPECT_EQ(reborn.Read(0).value().date, kEpochDate);
  EXPECT_NE(reborn.Read(0).value().value, "committed");
  EXPECT_EQ(Count(metrics, "storage.quarantined"), 1u);
  // Recovery rebuilds the copy from a live one; clearing the quarantine is
  // the scrub repair.
  ASSERT_TRUE(reborn.InstallRecovery(0, "committed", VpId{4, 2}).ok());
  EXPECT_TRUE(reborn.ClearQuarantine(0));
  EXPECT_FALSE(reborn.ClearQuarantine(0));
  EXPECT_EQ(reborn.Read(0).value().value, "committed");
}

TEST(ReplicaStore, AttachStableLoadsRotUnderNoChecksum) {
  StableStore dev(DurabilityMode::kWal, IntegrityMode::kNoChecksum);
  {
    ReplicaStore s;
    s.AttachStable(&dev);
    s.CreateCopy(0, "good");
  }
  dev.CorruptCopyImage(0);
  dev.BeginIncarnation();
  ReplicaStore reborn;
  reborn.CreateCopy(0, "good");
  reborn.AttachStable(&dev);
  // The strawman loads whatever the device holds.
  EXPECT_FALSE(reborn.IsQuarantined(0));
  EXPECT_NE(reborn.Read(0).value().value, "good");
}

}  // namespace
}  // namespace vp::storage
