// Simulated per-processor stable-storage device.
//
// Under the crash-amnesia fault model a crashed processor loses every byte
// of volatile state; on recovery the harness rebuilds the node from this
// device alone. The device holds three things:
//
//   1. Copy images — committed value/date/write-log per local copy, updated
//      at every CommitStage / InstallRecovery / ApplyLogSuffix (the paper's
//      copies and their *dates* implicitly live on stable storage; R5 and
//      the §6 missing-writes optimization depend on dates surviving
//      crashes).
//   2. A write-ahead log of transaction prepare/outcome/decision records
//      (see wal.h) so in-doubt transactions can be resolved after reboot.
//   3. View metadata — the greatest virtual-partition id this processor has
//      seen (max_id), the id it last committed to (cur_id), and the
//      configuration epoch it was serving, so a reboot can generate a
//      strictly larger vp id (never violating the recorder's monotonic-join
//      check) and resume in the epoch it actually occupied rather than
//      guessing at the cluster's current one.
//   4. The reconfiguration chain — every (epoch, ReconfigOp batch) this
//      processor committed or learned, so a reboot can re-derive per-epoch
//      placements and attribute replayed WAL records to the right one.
//
// Every mutation is an explicit persist point and counts one fsync; the
// fsync/byte counters make recovery cost visible in bench output.
//
// The device may lie. Corruption faults (bit rot, torn writes — injected by
// the nemesis via the harness) mutate images and WAL frames at rest, and a
// crash can tear the persist in flight. Under the checksummed integrity
// mode every image and WAL frame is verified at load: BeginReplay salvages
// the log (an invalid tail is truncated — wal.torn_truncated — while
// mid-log rot quarantines the device's copies), and ReplicaStore::
// AttachStable quarantines any image failing verification. A quarantined
// copy restarts with its date forced to kEpochDate, so the protocol's
// existing copy-update / missing-writes machinery rebuilds it from live
// copies before it serves reads or votes — corruption degrades to the
// already-proven stale-copy case (storage.quarantined /
// storage.scrub_repairs count the round trip).
//
// Durability modes:
//   kRetainMemory — legacy fault model: crashes keep volatile state, the
//                   device is bookkeeping only (fsyncs still counted).
//   kWal          — crash-amnesia with full write-ahead logging.
//   kNoWal        — deliberately broken strawman: copy images and view
//                   metadata persist but transaction records are dropped,
//                   so a reboot forgets commit decisions and in-doubt
//                   stages. Nemesis campaigns must catch this losing
//                   committed writes (negative control).
#ifndef VPART_STORAGE_STABLE_STORE_H_
#define VPART_STORAGE_STABLE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/vp_id.h"
#include "obs/metrics.h"
#include "storage/replica_store.h"
#include "storage/wal.h"

namespace vp::storage {

enum class DurabilityMode : uint8_t {
  kRetainMemory,  // Legacy: crashes preserve volatile state.
  kWal,           // Crash-amnesia + write-ahead log.
  kNoWal,         // Crash-amnesia, WAL dropped (broken strawman).
};

const char* DurabilityModeName(DurabilityMode mode);

/// What the device does about lying hardware.
///   kChecksum   — images and WAL frames are verified at load; salvage and
///                 quarantine recover from torn writes and bit rot.
///   kNoChecksum — deliberately broken strawman: rotted bytes are served
///                 verbatim and torn frames replay as whatever half-written
///                 garbage they hold. Corruption campaigns must catch this
///                 violating durability/1SR (negative control, mirroring
///                 kNoWal).
enum class IntegrityMode : uint8_t {
  kChecksum,
  kNoChecksum,
};

const char* IntegrityModeName(IntegrityMode mode);

/// Counters for one processor's stable device.
struct StableStats {
  uint64_t fsyncs = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t copy_persist_bytes = 0;
  uint64_t wal_replay_records = 0;
  uint64_t reboots = 0;
  /// Invalid WAL tail frames truncated by salvage.
  uint64_t torn_truncated = 0;
  /// Copies quarantined after a failed load (bad image or mid-log rot).
  uint64_t quarantined = 0;
  /// Quarantined copies rebuilt from live copies via copy-update.
  uint64_t scrub_repairs = 0;
};

class StableStore {
 public:
  explicit StableStore(DurabilityMode mode,
                       IntegrityMode integrity = IntegrityMode::kChecksum)
      : mode_(mode), integrity_(integrity) {
    AttachMetrics(obs::MetricsRegistry::Default());
  }

  /// Mirrors fsync/WAL counters into `registry` ("wal.fsyncs",
  /// "wal.appends", "wal.bytes", "wal.replay_records", "wal.torn_truncated",
  /// "storage.quarantined", "storage.scrub_repairs") from this call on; the
  /// harness attaches its per-cluster registry at node construction.
  void AttachMetrics(obs::MetricsRegistry* registry) {
    ctr_fsyncs_ = registry->counter("wal.fsyncs");
    ctr_wal_appends_ = registry->counter("wal.appends");
    ctr_wal_bytes_ = registry->counter("wal.bytes");
    ctr_replayed_ = registry->counter("wal.replay_records");
    ctr_torn_truncated_ = registry->counter("wal.torn_truncated");
    ctr_quarantined_ = registry->counter("storage.quarantined");
    ctr_scrub_repairs_ = registry->counter("storage.scrub_repairs");
  }

  /// Observability hook fired at every persist point and salvage action.
  /// `what` names the device event — "wal" (a = record bytes, b = WalRecord
  /// type), "copy" (a = image bytes), "viewmeta", "reconfig" (a = ops in
  /// the batch), "salvage.torn" (a = frames truncated), or
  /// "salvage.quarantine". The harness maps these to flight-recorder
  /// events; the device itself knows neither clock nor node id, so the
  /// closure supplies both.
  using EventHook =
      std::function<void(const char* what, uint64_t a, uint64_t b)>;
  void set_event_hook(EventHook hook) { event_hook_ = std::move(hook); }

  DurabilityMode mode() const { return mode_; }
  IntegrityMode integrity() const { return integrity_; }
  /// True when crashes destroy volatile state (kWal and kNoWal).
  bool amnesia() const { return mode_ != DurabilityMode::kRetainMemory; }

  /// Persisted committed image of one copy, framed with the checksum it was
  /// written with. Corruption mutates the payload (or tears the image)
  /// while the framing keeps its as-written value.
  struct StableCopy {
    Value value;
    VpId date = kEpochDate;
    std::vector<LogRecord> log;
    uint64_t checksum = 0;
    bool torn = false;
  };

  /// FNV-1a checksum over an image's payload.
  static uint64_t CopyChecksum(const Value& value, VpId date,
                               const std::vector<LogRecord>& log);
  /// Image verification under this device's integrity mode (kNoChecksum
  /// accepts everything — rot is served verbatim).
  bool ImageIntact(const StableCopy& copy) const;

  /// Writes the full committed image of `obj` (one fsync).
  void PersistCopy(ObjectId obj, const Value& value, VpId date,
                   const std::vector<LogRecord>& log);

  /// Writes the view metadata (one fsync).
  void PersistViewMeta(VpId max_id, VpId cur_id, EpochId epoch);

  /// Appends one committed reconfiguration to the persisted chain (one
  /// fsync). Idempotent per epoch: re-persisting an epoch already in the
  /// chain is a no-op (the crash-retry path re-announces commits).
  void PersistReconfig(EpochId epoch, const std::vector<ReconfigOp>& ops);

  /// Appends a transaction record (one fsync). Dropped entirely in kNoWal
  /// mode and while a reboot is replaying the existing log.
  void AppendWal(WalRecord rec);

  const std::map<ObjectId, StableCopy>& copies() const { return copies_; }
  const WriteAheadLog& wal() const { return wal_; }
  VpId max_view() const { return max_view_; }
  VpId cur_view() const { return cur_view_; }
  EpochId epoch() const { return epoch_; }
  bool has_view_meta() const { return has_view_meta_; }
  /// Committed reconfigurations in epoch order.
  const std::vector<std::pair<EpochId, std::vector<ReconfigOp>>>& reconfigs()
      const {
    return reconfigs_;
  }

  // --- Device-fault entry points (driven by the harness corruption hook) ---

  /// Bit rot in the `index`-th most recent *prepare* frame (modulo the
  /// number of prepares; no-op without any). Campaign rot targets the data
  /// plane: a commit decision is the single durable witness of its commit,
  /// so rotting one is outside the repairable envelope by construction —
  /// unit tests cover detection (quarantine) for that case via RotWalFrame.
  void CorruptWalPrepare(uint32_t index);
  /// Torn write discovered at rest in the `index`-th most recent prepare.
  void TearWalPrepare(uint32_t index);
  /// Direct frame corruption by absolute index (unit tests).
  void RotWalFrame(size_t index) { wal_.RotRecord(index); }
  void TearWalFrame(size_t index) { wal_.TearRecord(index); }
  /// Bit rot / torn write in `obj`'s persisted image.
  void CorruptCopyImage(ObjectId obj);
  void TearCopyImage(ObjectId obj);
  /// Crash tearing of the persist in flight: the newest WAL frame is
  /// dropped (`drop`) or half-written. A torn in-flight *decision* or
  /// *prepare* cannot be modeled retroactively — completing that fsync is
  /// what announced the commit, or acked the write to its coordinator — so
  /// those cases (and an empty log) tear a phantom in-flight frame instead.
  void TearTailOnCrash(bool drop);

  /// Called by the harness when rebuilding the node after an amnesia crash.
  /// Returns the new incarnation number (first boot is incarnation 0).
  uint32_t BeginIncarnation();
  uint32_t incarnation() const { return incarnation_; }

  /// Brackets WAL replay: appends are suppressed (replayed stages must not
  /// be re-logged) and replayed records are counted. Re-entrant safe so a
  /// double crash during replay starts over cleanly — the salvage pass is
  /// idempotent, so a restarted replay converges to the same truncation
  /// point. Under kChecksum, BeginReplay runs salvage: an invalid tail is
  /// truncated (wal.torn_truncated) and mid-log rot sets quarantined().
  void BeginReplay();
  void EndReplay();
  bool replaying() const { return replaying_; }
  /// True when the last salvage found corruption the log cannot explain as
  /// a torn in-flight write; every local copy must be rebuilt from live
  /// copies before serving (see NodeBase::ReplayWal).
  bool quarantined() const { return quarantined_; }
  void CountReplayedRecord() {
    ++stats_.wal_replay_records;
    ctr_replayed_->Increment();
  }
  /// Accounting hooks for the quarantine → copy-update round trip.
  void NoteQuarantined() {
    ++stats_.quarantined;
    ctr_quarantined_->Increment();
  }
  void NoteScrubRepair() {
    ++stats_.scrub_repairs;
    ctr_scrub_repairs_->Increment();
  }

  const StableStats& stats() const { return stats_; }

 private:
  DurabilityMode mode_;
  IntegrityMode integrity_;
  std::map<ObjectId, StableCopy> copies_;
  WriteAheadLog wal_;
  VpId max_view_ = kEpochDate;
  VpId cur_view_ = kEpochDate;
  EpochId epoch_ = 0;
  bool has_view_meta_ = false;
  std::vector<std::pair<EpochId, std::vector<ReconfigOp>>> reconfigs_;
  uint32_t incarnation_ = 0;
  bool replaying_ = false;
  bool quarantined_ = false;
  EventHook event_hook_;
  StableStats stats_;
  obs::Counter* ctr_fsyncs_ = nullptr;
  obs::Counter* ctr_wal_appends_ = nullptr;
  obs::Counter* ctr_wal_bytes_ = nullptr;
  obs::Counter* ctr_replayed_ = nullptr;
  obs::Counter* ctr_torn_truncated_ = nullptr;
  obs::Counter* ctr_quarantined_ = nullptr;
  obs::Counter* ctr_scrub_repairs_ = nullptr;
};

}  // namespace vp::storage

#endif  // VPART_STORAGE_STABLE_STORE_H_
