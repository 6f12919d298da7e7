// Write-ahead log of transaction state transitions, kept on the simulated
// stable device (see stable_store.h).
//
// The protocol's atomic-commitment layer is presumed-abort 2PC: a
// participant that staged a write and then lost its memory must be able to
// tell, after reboot, whether the transaction (a) is still undecided — in
// which case it re-stages the write and asks the coordinator — or (b) was
// already resolved locally before the crash. A coordinator must remember
// the commit decisions it announced (aborts are presumed and need no
// record). Three record types cover this:
//
//   kPrepare  — participant staged a write for (txn, obj): value + date,
//               and the id of the physical op that carried it.
//   kOutcome  — participant applied the decision for txn locally
//               (committed or aborted); earlier prepares for txn are dead.
//   kDecision — coordinator decided commit for txn. Abort decisions are
//               never logged (presumed abort).
//
// Every record is framed with its on-device length and an FNV-1a checksum
// of its content, exactly as written. The device may lie afterwards: a
// crash can tear the in-flight frame (torn tail) and at-rest faults can
// flip bytes in a frame (bit rot) — the frame then fails verification
// while still carrying whatever content the rot produced, which is what a
// checksum-less reader would serve verbatim. Salvage() is the recovery
// pass: it truncates an invalid tail (safe under presumed abort — a frame
// that never completed its fsync never had externally visible effects) and
// flags mid-log corruption, which cannot be truncated away and poisons
// everything derived from the log (see StableStore quarantine).
//
// Replay is a single forward pass; see NodeBase::ReplayWal.
#ifndef VPART_STORAGE_WAL_H_
#define VPART_STORAGE_WAL_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "common/vp_id.h"

namespace vp::storage {

struct WalRecord {
  enum class Type : uint8_t { kPrepare, kOutcome, kDecision };

  Type type = Type::kPrepare;
  TxnId txn;
  // Configuration epoch the transition executed under: every record — and
  // hence every decision replayed after a crash — is attributable to
  // exactly one epoch.
  EpochId epoch = 0;
  // kPrepare only:
  ObjectId obj = kInvalidObject;
  Value value;
  VpId date = kEpochDate;
  // kOutcome only:
  bool committed = false;
  // kPrepare only: the coordinator's id of the physical op that staged the
  // write. Replay restores it with the stage, so a pre-crash duplicate of
  // an older op of the transaction still cannot replace the stage.
  uint64_t op_id = 0;
};

const char* WalRecordTypeName(WalRecord::Type type);

/// One record as framed on the device: the content plus the length and
/// checksum that were written alongside it. Corruption mutates the content
/// (or tears the frame) while the framing keeps its as-written values, so
/// verification fails exactly when content and framing disagree.
struct WalFrame {
  WalRecord rec;
  uint32_t len = 0;       // Frame length as written.
  uint64_t checksum = 0;  // FNV-1a of the content as written.
  bool torn = false;      // Half-written by a crashed persist.
};

/// Append-only record sequence with byte accounting. Each record models one
/// device write; the owning StableStore charges the fsync.
class WriteAheadLog {
 public:
  void Append(WalRecord rec);

  const std::vector<WalFrame>& frames() const { return frames_; }
  uint64_t bytes() const { return bytes_; }
  void Clear();

  /// Size one record would occupy on the device (header + payload bytes).
  static uint64_t RecordBytes(const WalRecord& rec);
  /// FNV-1a checksum over the record's serialized content.
  static uint64_t Checksum(const WalRecord& rec);
  /// Frame verification: not torn, and length + checksum match the content.
  static bool Intact(const WalFrame& frame);

  // --- Device-fault entry points (simulated corruption) ---

  /// Bit rot: flips a byte of frame `index`'s content at rest. The framing
  /// keeps its as-written checksum, so verification now fails while the
  /// rotted content is what a checksum-less reader replays. Returns false
  /// (no-op) for an out-of-range index.
  bool RotRecord(size_t index);

  /// Torn write at rest: frame `index` turns out to be half-written (its
  /// payload truncated, its framing short). Returns false if out of range.
  bool TearRecord(size_t index);

  /// Crash tearing of the newest frame (the persist in flight at crash
  /// time): `drop` removes it outright, otherwise it is half-written.
  void TearTail(bool drop);

  /// A phantom in-flight frame: garbage that never completed its write.
  /// Used when the crash tears a persist whose completion was never
  /// observed by the node (empty log, or a tail whose completion was
  /// already externalized — see StableStore::TearTailOnCrash).
  void AppendTornPhantom();

  /// Salvage pass over the frames (run by StableStore::BeginReplay under
  /// the checksummed integrity mode). Invalid frames at the tail are
  /// truncated; an invalid frame *before* valid frames cannot be explained
  /// as a torn in-flight write, so it is dropped and reported as mid-log
  /// corruption (the caller quarantines the device's copies).
  struct SalvageResult {
    uint32_t tail_truncated = 0;
    uint32_t mid_dropped = 0;
    bool quarantined() const { return mid_dropped > 0; }
  };
  SalvageResult Salvage();

 private:
  std::vector<WalFrame> frames_;
  uint64_t bytes_ = 0;
};

}  // namespace vp::storage

#endif  // VPART_STORAGE_WAL_H_
