// Per-processor storage of physical copies.
//
// Each copy carries, per the paper (§5):
//   value(l) — the bytes last committed into the local copy, and
//   date(l)  — the vp-id of the virtual partition in which the last
//              logical write of l executed.
//
// Transactional writes are *staged* first (under an exclusive lock owned by
// the CC layer) and made durable only by CommitStage; this gives strict-2PL
// executions without undo logging. R5 recovery installs values directly via
// InstallRecovery.
//
// A per-copy write log (date, value) records committed writes in date order,
// supporting the §6 "missing writes" catch-up optimization: a recovering
// copy with date v fetches only the log suffix with dates > v instead of the
// entire value history.
#ifndef VPART_STORAGE_REPLICA_STORE_H_
#define VPART_STORAGE_REPLICA_STORE_H_

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/vp_id.h"

namespace vp::storage {

class StableStore;

/// A committed write, as recorded in a copy's log.
struct LogRecord {
  VpId date;
  Value value;
  TxnId txn;
};

/// The committed state of one physical copy.
struct CopyVersion {
  Value value;
  VpId date = kEpochDate;
};

/// Storage statistics for one replica store.
struct StoreStats {
  uint64_t commits = 0;
  uint64_t stages = 0;
  uint64_t discards = 0;
  uint64_t recoveries = 0;
  uint64_t recovery_bytes = 0;  // Bytes installed by full-copy recovery.
  uint64_t log_catchup_records = 0;
};

/// The physical copies stored at one processor.
class ReplicaStore {
 public:
  ReplicaStore() = default;

  /// Attaches the processor's stable device. Committed-state mutations
  /// persist their copy image through it, and StageWrite appends a prepare
  /// record to its WAL. If the device already holds copy images from a
  /// previous incarnation (crash-amnesia reboot), they are loaded now —
  /// under the checksummed integrity mode each image is verified first, and
  /// a failing image quarantines the copy (see QuarantineCopy) instead of
  /// loading the rot.
  void AttachStable(StableStore* stable);

  /// Marks `obj`'s copy untrustworthy: its date is forced to kEpochDate and
  /// its log cleared, so the copy-update / missing-writes recovery path
  /// rebuilds it in full from live copies before it serves reads or votes.
  /// Counted in the stable device's storage.quarantined.
  void QuarantineCopy(ObjectId obj);

  bool IsQuarantined(ObjectId obj) const {
    return quarantined_.count(obj) > 0;
  }
  /// Recovery completed for a quarantined copy (the scrub round trip).
  /// Returns true if `obj` was quarantined (the caller counts the repair).
  bool ClearQuarantine(ObjectId obj) { return quarantined_.erase(obj) > 0; }

  /// Creates the copy of `obj` with the given initial committed value.
  void CreateCopy(ObjectId obj, Value initial = "", VpId date = kEpochDate);

  bool HasCopy(ObjectId obj) const { return copies_.count(obj) > 0; }

  /// Committed version of the local copy.
  Result<CopyVersion> Read(ObjectId obj) const;

  /// Stages `value` on behalf of `txn`. At most one stage per copy may
  /// exist (the CC layer's exclusive lock enforces this); staging over an
  /// existing stage by the same txn replaces it — unless the stage came
  /// from a newer op (`op_id` greater than this one's), in which case the
  /// call is a late duplicate of an older write and fails with Aborted
  /// ("stale-op"). Both writes carry the same date, so letting the older
  /// value win could never be repaired by a max-date read. `epoch` and
  /// `op_id` are stamped on the WAL prepare record.
  Status StageWrite(TxnId txn, ObjectId obj, Value value, VpId date,
                    EpochId epoch = 0, uint64_t op_id = 0);

  /// True if `obj` has a staged-but-undecided write.
  bool HasStage(ObjectId obj) const { return stages_.count(obj) > 0; }
  /// Owner of the stage on `obj`, if any.
  std::optional<TxnId> StageOwner(ObjectId obj) const;
  /// The value staged on `obj` by `txn`, if any (read-your-own-writes).
  std::optional<CopyVersion> StagedValue(TxnId txn, ObjectId obj) const;

  /// Makes txn's stage on `obj` the committed version and appends it to the
  /// copy's log. No-op (OK) if txn holds no stage on obj (e.g. the write
  /// raced a recovery that superseded it — the stage's date guard drops it).
  Status CommitStage(TxnId txn, ObjectId obj);

  /// Drops txn's stage on `obj` (abort path). No-op if absent.
  void DiscardStage(TxnId txn, ObjectId obj);

  /// R5: installs `value`/`date` as the committed version, bypassing
  /// staging. Only applied if `date` >= the current date (never regresses).
  Status InstallRecovery(ObjectId obj, Value value, VpId date);

  /// Committed log records with date strictly greater than `after`,
  /// ascending (§6 missing-writes catch-up).
  std::vector<LogRecord> LogSince(ObjectId obj, VpId after) const;

  /// Applies a fetched log suffix to the local copy (catch-up recovery).
  Status ApplyLogSuffix(ObjectId obj, const std::vector<LogRecord>& records);

  const StoreStats& stats() const { return stats_; }

  /// Objects with copies here, ascending (the paper's `local` set).
  std::vector<ObjectId> LocalObjects() const;

 private:
  struct Copy {
    CopyVersion committed;
    std::vector<LogRecord> log;  // Ascending by date.
  };
  struct Stage {
    TxnId txn;
    Value value;
    VpId date;
    uint64_t op_id = 0;
  };

  /// Writes obj's full committed image to the stable device (no-op when
  /// no device is attached).
  void PersistCopy(ObjectId obj, const Copy& copy);

  std::unordered_map<ObjectId, Copy> copies_;
  std::unordered_map<ObjectId, Stage> stages_;
  std::set<ObjectId> quarantined_;
  StoreStats stats_;
  StableStore* stable_ = nullptr;
};

}  // namespace vp::storage

#endif  // VPART_STORAGE_REPLICA_STORE_H_
