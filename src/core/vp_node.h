// The virtual-partition replica control protocol (paper §5), implemented as
// an event-driven state machine per processor:
//
//   Fig. 4  Create-new-VP        → CreateNewVp()
//   Fig. 5  Create-VP            → StartCreateVp() / FinishCreateVp()
//   Fig. 6  Monitor-VP-Creations → HandleNewVp() / HandleVpCommit() /
//                                  OnMonitorTimeout()
//   Fig. 7  Send-Probes          → ProbeTick() / FinishProbeRound()
//   Fig. 8  Monitor-Probes       → HandleProbe()
//   Fig. 9  Update-Copies-in-View→ StartUpdateCopies() et al., one
//                                  RecoveryRead per holder per join
//   Fig. 10 Logical-Read         → LogicalRead()
//   Fig. 11 Logical-Write        → LogicalWrite()
//   Fig. 12 Physical-Access      → NodeBase handlers + ValidateAccess/
//                                  MaybeDefer overrides
//
// Deviations from the printed pseudocode (each documented in DESIGN.md):
//   * physical-access requests whose vp-id cannot currently be honored are
//     nacked explicitly ("wrong-vp") instead of silently dropped, so the
//     coordinator aborts promptly instead of always burning the 2δ timeout;
//   * a processor only commits to a partition whose view contains itself
//     (preserving S2 when its acceptance message was lost);
//   * a failed Create-VP attempt re-arms the 3δ timer so an isolated
//     processor cannot stall unassigned forever.
#ifndef VPART_CORE_VP_NODE_H_
#define VPART_CORE_VP_NODE_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/node_base.h"
#include "core/vp_config.h"
#include "runtime/timer.h"

namespace vp::core {

class VpNode : public NodeBase {
 public:
  VpNode(ProcessorId id, NodeEnv env, VpConfig config);

  void Start() override;
  void Retire() override;

  // --- ReplicaControl ---
  void LogicalRead(TxnId txn, ObjectId obj, ReadCallback cb) override;
  void LogicalWrite(TxnId txn, ObjectId obj, Value value,
                    WriteCallback cb) override;
  std::string name() const override { return "virtual-partition"; }

  // --- Introspection (tests, harness) ---
  bool assigned() const { return assigned_; }
  VpId cur_id() const { return cur_id_; }
  VpId max_id() const { return max_id_; }
  EpochId epoch() const { return epoch_; }
  const std::set<ProcessorId>& view() const { return lview_; }
  const std::set<ObjectId>& locked_objects() const { return locked_; }
  const VpConfig& config() const { return config_; }

  /// Placement in force under this node's current epoch.
  const storage::CopyPlacement& CurrentPlacement() const {
    if (env_.placements != nullptr && env_.placements->Has(epoch_)) {
      return env_.placements->At(epoch_);
    }
    return *env_.placement;
  }

  /// The paper's accessible(l, view) from this node's perspective.
  bool Accessible(ObjectId obj) const {
    return assigned_ && CurrentPlacement().Accessible(obj, lview_);
  }

  /// Queues a reconfiguration batch and triggers a partition creation to
  /// carry it. The batch takes effect only at the vp boundary whose view
  /// passes the authoritativeness gate (a strict weighted majority of
  /// every object under BOTH the current and the candidate placement — the
  /// second half guarantees a majority of each object's new copies is
  /// brought current before the new epoch serves). Until then it stays
  /// pending and is retried at probe-period pace. Requires
  /// NodeEnv::placements; a directory-less node ignores the call.
  void ProposeReconfig(std::vector<ReconfigOp> ops);

  /// Forces an immediate partition-creation attempt (tests).
  void ForceCreateNewVp() { CreateNewVp(); }

 protected:
  // --- NodeBase hooks ---
  Status ValidateAccess(const TxnId& txn, VpId v, ObjectId obj,
                        const std::set<ProcessorId>& footprint,
                        bool is_recovery, bool is_write) override;
  bool MaybeDefer(const net::Message& m) override;
  Status ValidateCommit(const TxnRec& rec) override;
  bool HandleProtocolMessage(const net::Message& m) override;
  EpochId CurrentEpoch() const override { return epoch_; }
  bool EpochGated() const override { return config_.epoch_gating; }

 private:
  // --- Virtual partition management ---
  void CreateNewVp();
  void Depart();
  void StartCreateVp(VpId new_id);
  void FinishCreateVp(uint64_t generation);
  void HandleNewVp(const msg::NewVp& body);
  void HandleVpOk(const msg::VpOk& body);
  void HandleVpCommit(const net::Message& m, const msg::VpCommit& body);
  void OnMonitorTimeout();
  /// `commit_trace` is the causal trace the VpCommit message carried (the
  /// initiator's reconfig trace when the formation carries a reconfig
  /// batch, its view-change trace otherwise); the epoch-switch instant is
  /// attributed to it so a reconfiguration is traceable end to end across
  /// every member that adopts its epoch.
  void CommitToVp(VpId v, std::set<ProcessorId> view,
                  std::map<ProcessorId, VpId> previous, EpochId epoch,
                  const std::vector<ReconfigOp>& reconfig,
                  uint64_t commit_trace = 0);
  /// True iff `view` holds a strict weighted majority of every object under
  /// both `cur` and `next` (the reconfig authoritativeness gate).
  bool AuthoritativeForReconfig(const storage::CopyPlacement& cur,
                                const storage::CopyPlacement& next,
                                const std::set<ProcessorId>& view) const;
  /// Arms a probe-period retry formation while a reconfig batch is pending
  /// (covers deferred batches and batches queued on non-initiators).
  void ArmReconfigRetry();
  /// Opens the view-change span (one per formation episode, from the first
  /// departure/invitation until every locked copy is re-initialized).
  /// Idempotent while a span is open: competing invitations and failed
  /// Create-VP attempts extend the same episode.
  void BeginViewChangeSpan(const char* reason);
  /// Closes the span once this node is assigned and `locked_` has drained;
  /// records the observed convergence time against Δ = π + 8δ.
  void MaybeEndViewChangeSpan();
  /// Persists (max_id_, cur_id_) to the stable device, if any. Called at
  /// every max-id movement and every join so a reboot can generate a vp id
  /// above anything this processor ever saw or accepted.
  void PersistViewMeta();

  // --- Probing ---
  void ProbeTick();
  void FinishProbeRound();
  void HandleProbe(const msg::Probe& body);
  void HandleProbeAck(const msg::ProbeAck& body);

  // --- R5: Update-Copies-in-View ---
  void StartUpdateCopies(const std::set<ObjectId>& was_dirty);
  /// Registers `obj`'s recovery in the configured mode (R5 or a §6
  /// variant) and queues its items for the holders it polls. Items leave
  /// at the next FlushRecoveryReads.
  void StartObjectRecovery(ObjectId obj);
  /// Sends the queued items: one RecoveryRead per holder.
  void FlushRecoveryReads();
  /// Fails `op_id`'s recovery if no answer completes it in time.
  runtime::TaskId ArmRecoveryTimeout(uint64_t op_id);
  /// In-view processors a full-read recovery of `obj` polls. With an epoch
  /// directory this is the union of `obj`'s holders over every epoch up to
  /// the current one: at an epoch boundary a freshly created copy has no
  /// current-epoch source that is up to date yet, and departing holders keep
  /// their (read-only) data precisely to serve these reads.
  std::set<ProcessorId> RecoverySources(ObjectId obj) const;
  void HandleRecoveryReply(const net::Message& m,
                           const msg::RecoveryReply& body);
  /// Folds one holder's answer into its object's recovery.
  void HandleRecoveryItem(ProcessorId from,
                          const msg::RecoveryReply::Item& item);
  void FinishRecovery(uint64_t op_id);
  void RecoveryFailed(uint64_t op_id);
  /// Removes `op_id`'s entry from the by-object index — but only when the
  /// index still points at it. A successor join may already have registered
  /// a newer recovery for the same object; a stale operation's teardown must
  /// never destroy the live one (that strands the object's R5 lock until an
  /// unrelated view change happens to re-initialize it).
  void UnindexRecovery(ObjectId obj, uint64_t op_id);
  void Unlock(ObjectId obj);

  // --- Logical operations ---
  /// Checks assignment + R1 and pins the transaction's vp (R4). Returns
  /// non-OK (and dooms the txn) if the operation must abort.
  Status AdmitLogicalOp(TxnId txn, ObjectId obj, TxnRec** rec_out);
  /// True if `txn`'s logical op should wait for the formation in flight
  /// instead of failing: the node is between views and the transaction is
  /// not yet bound to a vp, so it can run wholly in the next one (R4).
  bool ShouldPark(TxnId txn) const;
  /// Reissues the parked logical ops once the formation has ended without
  /// a join, so each fails as inaccessible (R1).
  void FailParkedOps();
  ProcessorId Nearest(ObjectId obj) const;
  /// Replays parked messages and, once assigned, parked logical ops.
  void ReprocessDeferred();

  const VpConfig config_;

  // Paper Fig. 3 shared variables.
  VpId cur_id_;
  VpId max_id_;
  bool assigned_ = true;
  std::set<ProcessorId> lview_;
  std::set<ObjectId> locked_;

  /// Objects whose initialization started in SOME partition but never
  /// completed (the partition died mid-recovery). The §6 same-previous
  /// skip is unsound for these: membership in the shared previous
  /// partition does not imply the copy was brought up to date there.
  /// Cleared per object when its recovery completes (Unlock).
  std::set<ObjectId> dirty_;

  /// previous_v(q) for the current vp's view (§6 optimization 1).
  std::map<ProcessorId, VpId> previous_;

  /// Bumps on every join/depart; in-flight async work carries the
  /// generation it started under and dies quietly when superseded.
  uint64_t join_generation_ = 0;

  // Configuration-epoch state. `epoch_` names the placement this node serves
  // under; it only moves forward, and only at a vp boundary (CommitToVp).
  EpochId epoch_ = 0;
  /// Reconfig batch queued by ProposeReconfig, awaiting a formation whose
  /// view passes the authoritativeness gate.
  std::vector<ReconfigOp> pending_reconfig_;
  bool reconfig_retry_armed_ = false;
  runtime::TimePoint reconfig_proposed_at_ = 0;
  uint64_t reconfig_trace_ = 0;

  // Create-VP (initiator) state.
  bool create_open_ = false;
  uint64_t create_generation_ = 0;
  VpId create_id_;
  std::set<ProcessorId> accepting_;
  std::map<ProcessorId, VpId> accept_previous_;
  /// Epoch each acceptor reported in its VpOk; the committed view adopts
  /// the max (nobody's epoch ever regresses).
  std::map<ProcessorId, EpochId> accept_epochs_;

  runtime::Timer monitor_timer_;  // Fig. 6's T (3δ).

  // Probe round state.
  uint64_t probe_seq_ = 0;
  bool probe_round_open_ = false;
  int probe_attempt_ = 0;  // Retries used within the current round.
  std::set<ProcessorId> probe_acks_;

  // Coordinator-side pending logical operations.
  struct PendingRead {
    TxnId txn;
    ObjectId obj;
    ReadCallback cb;
    ProcessorId target = kInvalidProcessor;
    std::vector<ProcessorId> fallbacks;  // For config_.read_retry.
    runtime::TaskId timeout_event = runtime::kInvalidTask;
    /// Issue time of the FIRST attempt (retries keep it), so the latency
    /// histogram covers the whole logical read.
    runtime::TimePoint issued_at = 0;
    uint64_t trace = 0;
    /// The view the current attempt was issued in (NoResponseSuspectsView).
    VpId issued_vp;
  };
  struct PendingWrite {
    TxnId txn;
    ObjectId obj;
    WriteCallback cb;
    Value value;
    std::set<ProcessorId> awaiting;
    runtime::TaskId timeout_event = runtime::kInvalidTask;
    bool failed = false;
    runtime::TimePoint issued_at = 0;
    uint64_t trace = 0;
    /// Slowest participant-reported lock wait so far — the copy the
    /// write-all actually waited on (critical-path attribution).
    uint64_t max_lock_wait_us = 0;
    /// The view the write was issued in (NoResponseSuspectsView).
    VpId issued_vp;
  };
  std::map<uint64_t, PendingRead> pending_reads_;
  std::map<uint64_t, PendingWrite> pending_writes_;
  /// Registers `pr` under `op_id`, sends its physical read to `pr.target`,
  /// and arms the no-response timer if the read is still pending (a local
  /// copy replies inline).
  void SendRead(uint64_t op_id, PendingRead pr,
                const std::set<ProcessorId>& footprint);
  /// True if an op issued in view `issued_vp` that got no reply from
  /// `silent` must suspect the current view (Fig. 10's no-response
  /// handler): only while that view still stands and still counts one of
  /// the silent holders. A join since the issue already re-checked the
  /// membership, and excluded a holder it found missing.
  bool NoResponseSuspectsView(VpId issued_vp,
                              const std::set<ProcessorId>& silent) const;

  // R5 recovery state, per object being initialized.
  struct PendingRecovery {
    ObjectId obj = kInvalidObject;
    uint64_t join_gen = 0;
    /// What the awaited holders are asked for. Date-poll starts at kDate
    /// and, unless the local copy is freshest, moves to kValue to fetch
    /// from `best_holder` alone.
    msg::RecoveryWant want = msg::RecoveryWant::kValue;
    std::set<ProcessorId> awaiting;
    Value best_value;
    VpId best_date = kEpochDate;
    bool have_value = false;
    // Log-catchup mode: per-source suffixes. Dates do not order writes
    // WITHIN a partition, so suffixes must be applied in their original
    // per-copy order; FinishRecovery picks the freshest source.
    std::map<ProcessorId, std::vector<storage::LogRecord>> records_by_src;
    ProcessorId best_holder = kInvalidProcessor;
    runtime::TaskId timeout_event = runtime::kInvalidTask;
  };
  std::map<uint64_t, PendingRecovery> pending_recoveries_;
  std::map<ObjectId, uint64_t> recovery_by_object_;
  /// Recovery items queued per holder, not yet sent.
  std::map<ProcessorId, std::vector<msg::RecoveryRead::Item>>
      recovery_outbox_;
  /// Per-object recovery retry budget within the current join (lock waits
  /// can make individual recovery reads fail transiently).
  static constexpr int kMaxRecoveryRetries = 3;
  std::map<ObjectId, int> recovery_retries_;

  // Messages parked by MaybeDefer, reprocessed on join / unlock /
  // max-id movement.
  std::vector<net::Message> deferred_;
  /// Logical ops parked by ShouldPark, each a closure reissuing the op.
  /// Reissued on join; failed when the formation ends unassigned.
  std::vector<std::function<void()>> parked_ops_;
  /// Set while FailParkedOps reissues them, so they fail, not re-park.
  bool parking_closed_ = false;

  // View-change span state (open from first departure/invitation until the
  // new view's copies finish initializing). Independent of whether the
  // tracer is enabled: the convergence histogram always fills.
  bool view_span_open_ = false;
  uint64_t view_trace_ = 0;
  runtime::TimePoint view_change_start_ = 0;

  // Cached metric handles (registry owns them; see ctor).
  obs::Counter* ctr_phys_reads_issued_ = nullptr;
  obs::Counter* ctr_phys_reads_completed_ = nullptr;
  obs::Counter* ctr_phys_writes_issued_ = nullptr;
  obs::Counter* ctr_phys_writes_completed_ = nullptr;
  obs::Counter* ctr_view_changes_ = nullptr;
  obs::Counter* ctr_conv_within_delta_ = nullptr;
  obs::Counter* ctr_conv_exceeded_delta_ = nullptr;
  obs::Counter* ctr_reconfigs_proposed_ = nullptr;
  obs::Counter* ctr_reconfigs_committed_ = nullptr;
  obs::Counter* ctr_reconfigs_deferred_ = nullptr;
  /// R5 requests sent to remote holders, and the items they carried.
  obs::Counter* ctr_recovery_requests_ = nullptr;
  obs::Counter* ctr_recovery_items_ = nullptr;
  obs::Gauge* gauge_epoch_ = nullptr;
  obs::Histogram* hist_phys_read_us_ = nullptr;
  obs::Histogram* hist_phys_write_us_ = nullptr;
  obs::Histogram* hist_view_conv_us_ = nullptr;
  obs::Histogram* hist_reconfig_us_ = nullptr;
};

}  // namespace vp::core

#endif  // VPART_CORE_VP_NODE_H_
