// Protocol-independent machinery shared by every replica-control
// implementation (the VP protocol and the baselines):
//
//  * coordinator-side transaction records and decisions (presumed abort),
//  * outcome broadcast with periodic retry until every participant acks,
//    the acks riding on whatever traffic next goes to the coordinator,
//  * participant-side physical access: strict-2PL locking, write staging,
//    outcome application, and in-doubt resolution by querying the
//    coordinator,
//  * per-node protocol statistics.
//
// Derived protocols plug in their policies via the Validate*/MaybeDefer
// hooks and implement the logical read/write translation.
#ifndef VPART_CORE_NODE_BASE_H_
#define VPART_CORE_NODE_BASE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/lock_manager.h"
#include "cc/txn.h"
#include "common/status.h"
#include "common/types.h"
#include "common/vp_id.h"
#include "core/replica_control.h"
#include "core/vp_messages.h"
#include "history/recorder.h"
#include "net/network.h"
#include "net/reliable_channel.h"
#include "obs/critical_path.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "storage/placement.h"
#include "storage/replica_store.h"
#include "storage/stable_store.h"

namespace vp::core {

class TestEnv;  // core/test_env.h

/// Everything a node needs from its environment. The execution substrate
/// enters only through the three runtime interfaces, so the same node code
/// runs on the deterministic simulator and on real threads.
struct NodeEnv {
  runtime::Clock* clock = nullptr;
  runtime::Executor* executor = nullptr;
  runtime::Transport* transport = nullptr;
  const storage::CopyPlacement* placement = nullptr;
  /// Per-epoch placement chain for online reconfiguration. May be null
  /// (legacy single-epoch setups); then `placement` is the only epoch.
  /// When set, slot 0 must equal `*placement`, and protocols that commit
  /// reconfigurations (VpNode) register new epochs here.
  storage::PlacementDirectory* placements = nullptr;
  storage::ReplicaStore* store = nullptr;
  cc::LockManager* locks = nullptr;
  history::Recorder* recorder = nullptr;
  /// Stable device for crash-amnesia durability. May be null (tests that
  /// build a NodeEnv by hand); then no persist points fire and crashes
  /// retain memory.
  storage::StableStore* stable = nullptr;
  /// Reliable-delivery knobs for physical operations. Disabled by default
  /// (sends go straight to the lossy network, the pre-reliability
  /// behavior); the harness enables it per run.
  net::ReliableConfig reliable;
  /// Metrics registry and tracer shared by the cluster. Null = the
  /// process-global default registry / a disabled tracer, so node code
  /// never null-checks either.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Always-on flight recorder shared by the cluster (obs/
  /// flight_recorder.h). Null = a process-global recorder that drops
  /// everything, so node code never null-checks.
  obs::FlightRecorder* fdr = nullptr;

  /// Builder for unit tests: wires every field except `stable` from a
  /// TestEnv (defined in core/test_env.h, where this is implemented).
  static NodeEnv ForTest(TestEnv& env, ProcessorId p = 0);
};

/// Base class of all protocol nodes. See file comment.
class NodeBase : public net::NodeInterface, public ReplicaControl {
 public:
  NodeBase(ProcessorId id, NodeEnv env, runtime::Duration lock_timeout,
           runtime::Duration outcome_retry_period);
  ~NodeBase() override = default;

  // --- ReplicaControl (common parts) ---
  void Begin(TxnId txn) override;
  void Abort(TxnId txn) override;
  void Commit(TxnId txn, CommitCallback cb) override;
  ProcessorId processor() const override { return id_; }

  /// Allocates a fresh client transaction id coordinated here.
  TxnId NewTxnId() { return TxnId{id_, next_txn_seq_++}; }

  /// Registers with the network and starts periodic tasks. Derived classes
  /// extend this. On a crash-amnesia reboot (stable device incarnation > 0)
  /// this first replays the WAL to restore participant stages, learned
  /// outcomes, and coordinator commit decisions.
  virtual void Start();

  /// Permanently stops this node object: cancels its timers, fails its
  /// pending work, and marks it retired so already-scheduled closures
  /// become no-ops. Called by the harness just before a crash-amnesia
  /// reboot replaces the object. The retired object is kept alive (never
  /// destroyed mid-run) so captured `this` pointers stay valid.
  virtual void Retire();

  // --- NodeInterface ---
  void HandleMessage(const net::Message& m) override;

 protected:
  /// Coordinator-side record of a transaction this node coordinates.
  struct TxnRec {
    cc::TxnOutcome st = cc::TxnOutcome::kActive;
    /// An operation failed; the transaction can only abort.
    bool doomed = false;
    /// Virtual partition the transaction executes in (R4); protocols
    /// without partitions leave vp_set false.
    VpId vp;
    bool vp_set = false;
    /// Configuration epoch the transaction runs under, fixed at Begin.
    /// Every physical op and WAL record it produces carries this epoch.
    EpochId epoch = 0;
    /// Processors whose copies this transaction physically touched.
    std::set<ProcessorId> participants;
    /// Participants that have not yet acknowledged the outcome.
    std::set<ProcessorId> outcome_unacked;
    /// A physical write was issued. Only then can a participant hold a
    /// durable prepare, so only then does a commit need a decision record.
    bool wrote = false;
    runtime::TaskId retry_event = runtime::kInvalidTask;
    /// Causal trace id stamped on every message this transaction emits
    /// (0 when tracing is disabled — carried but never recorded).
    uint64_t trace = 0;
    runtime::TimePoint begun_at = 0;
    runtime::TimePoint decided_at = 0;
    /// Critical-path phase accumulator; finalized (and observed into the
    /// txn.path.* histograms) at Decide for committed transactions.
    obs::TxnPathTracker path;
  };

  /// Participant-side record of a transaction that touched local copies.
  struct RemoteTxn {
    ProcessorId coordinator = kInvalidProcessor;
    std::set<ObjectId> staged;  // Local copies with pending writes.
    runtime::TimePoint last_activity = 0;
  };

  // --- hooks for derived protocols ---
  /// Accepts or rejects a physical access tagged with partition id `v`.
  /// Returning non-OK nacks the request with the status message as the
  /// error string. The base accepts everything.
  virtual Status ValidateAccess(const TxnId& txn, VpId v, ObjectId obj,
                                const std::set<ProcessorId>& footprint,
                                bool is_recovery, bool is_write);
  /// Returns true to park the message for later reprocessing (e.g. the VP
  /// protocol defers accesses during partition initialization).
  virtual bool MaybeDefer(const net::Message& m);
  /// Commit-time admission check (e.g. R4: still in the transaction's vp).
  virtual Status ValidateCommit(const TxnRec& rec);
  /// Configuration epoch this node currently serves under. Protocols
  /// without reconfiguration stay at epoch 0 forever.
  virtual EpochId CurrentEpoch() const { return 0; }
  /// When true (default), transactional physical accesses whose epoch
  /// differs from CurrentEpoch() are nacked deterministically
  /// ("stale-epoch"/"future-epoch"). VpNode wires this to
  /// VpConfig::epoch_gating so the nemesis negative control can turn the
  /// gate off.
  virtual bool EpochGated() const { return true; }
  /// Dispatch for protocol-specific message types. Return false if the
  /// type is unknown.
  virtual bool HandleProtocolMessage(const net::Message& m) = 0;

  // --- coordinator-side helpers ---
  TxnRec* FindTxn(TxnId txn);
  /// Dooms and aborts an active transaction; broadcasts the abort outcome.
  void InternalAbort(TxnId txn);
  /// Decides and broadcasts; rec.st must be kActive.
  void Decide(TxnId txn, TxnRec* rec, bool committed);
  /// Sends the outcome to every participant that has not acked it. The
  /// first broadcast goes through the reliable channel (when enabled); a
  /// retry goes raw: the retry loop is itself the retransmission, and the
  /// channel's retransmits under it would multiply the traffic to a
  /// participant that is down or cut off.
  void BroadcastOutcome(TxnId txn, bool retry);

  // --- participant-side helpers ---
  void HandlePhysRead(const net::Message& m, const msg::PhysRead& req);
  void HandlePhysWrite(const net::Message& m, const msg::PhysWrite& req);
  /// Serves one recovering member's R5 request. Every item served within
  /// this dispatch goes back in one reply; an item whose copy is
  /// write-locked waits for its lock alone and is answered alone, so no
  /// object's recovery waits on another object's lock.
  void HandleRecoveryRead(const net::Message& m, const msg::RecoveryRead& req);
  void HandleTxnOutcome(const net::Message& m, const msg::TxnOutcomeMsg& body);
  void HandleTxnOutcomeAck(TxnId txn, ProcessorId from);
  void HandleTxnStatusQuery(const net::Message& m,
                            const msg::TxnStatusQuery& body);
  void HandleTxnStatusReply(const msg::TxnStatusReply& body);
  /// Counts a physical-access nack and sends it as a failed reply.
  void NackRead(ProcessorId to, uint64_t op_id, std::string error,
                uint64_t trace);
  void NackWrite(ProcessorId to, uint64_t op_id, std::string error,
                 uint64_t trace);
  /// Applies a learned outcome to local stages and locks.
  void ApplyOutcomeLocally(TxnId txn, bool committed);
  void InDoubtSweep();

  /// True if this processor is currently crashed (then handlers and timers
  /// do nothing; the network already drops inbound messages).
  bool Crashed() const { return !env_.transport->Alive(id_); }

  /// Replays the stable WAL after an amnesia reboot: re-stages in-doubt
  /// prepares (re-acquiring their exclusive locks), restores learned
  /// outcomes and commit decisions, and queues unresolved transactions for
  /// the in-doubt sweep to resolve against their coordinators.
  void ReplayWal();

  /// Sends `body` raw: no retransmission, no dedup. It still carries
  /// every ack this node owes `dst`: its outcome acks, and the reliable
  /// channel's ack of the message being handled.
  void Send(ProcessorId dst, net::Body body, uint64_t trace = 0) {
    net::Message m;
    m.src = id_;
    m.dst = dst;
    m.body = std::move(body);
    m.trace = trace;
    CarryOwedAcks(m);
    if (rel_ != nullptr) rel_->CarryAck(m);
    env_.transport->Send(std::move(m));
  }

  /// Sends a physical-operation message (request, reply, 2PC outcome)
  /// through the reliable channel when it is enabled: retransmitted until
  /// acked or its delivery deadline passes, at which point `on_timeout`
  /// (if given) fires so the caller can fail the operation explicitly.
  /// A disabled channel sends straight to the network.
  ///
  /// A message to this node itself never touches a transport: it is
  /// dispatched by direct call (DeliverLocal), so the handler — and any
  /// reply, lock grant or client callback it triggers — may run before
  /// SendPhys returns. Callers must register whatever the reply looks up
  /// before sending, and must re-find (not hold) map entries across it.
  /// Returns the channel message id (0 for raw and local sends, which need
  /// no cancellation); pass it to CancelPhys when the reply becomes
  /// irrelevant before it arrives.
  uint64_t SendPhys(ProcessorId dst, net::Body body,
                    net::ReliableChannel::TimeoutFn on_timeout = nullptr,
                    uint64_t trace = 0,
                    net::ReliableChannel::RetransmitFn on_retransmit =
                        nullptr) {
    if (const auto* w = std::get_if<msg::PhysWrite>(&body)) {
      if (TxnRec* rec = FindTxn(w->txn); rec != nullptr) rec->wrote = true;
    }
    if (dst == id_) {
      DeliverLocal(std::move(body), trace);
      return 0;
    }
    if (rel_ == nullptr) {
      Send(dst, std::move(body), trace);
      return 0;
    }
    return rel_->Send(dst, std::move(body), std::move(on_timeout), trace,
                      std::move(on_retransmit));
  }

  /// Dispatches a message from this node to itself on the caller's strand.
  /// Dropped, as a transport would drop it, when the node is crashed or
  /// retired.
  void DeliverLocal(net::Body body, uint64_t trace);

  /// Retransmit hook for SendPhys requests issued on behalf of `txn`:
  /// charges each retransmission's stall (time since the previous copy of
  /// the request went out) to the transaction's critical path, so
  /// retransmit storms show up in txn.path.retransmit_stall rather than
  /// inflating quorum RTT.
  net::ReliableChannel::RetransmitFn RetransmitToPath(TxnId txn) {
    return [this, txn](runtime::Duration stall) {
      TxnRec* r = FindTxn(txn);
      if (r != nullptr) {
        r->path.AddRetransmitStall(static_cast<uint64_t>(stall));
      }
    };
  }

  /// Stops retransmitting a SendPhys whose reply no longer matters (e.g.
  /// a quorum was reached without it). Without this, the leftover request
  /// keeps retrying until its delivery deadline and can be served at the
  /// copy AFTER the transaction decided — a physical access outside the
  /// transaction's two-phase-locking window that the conflict checker
  /// would (rightly) flag.
  void CancelPhys(uint64_t rel_id) {
    if (rel_ != nullptr && rel_id != 0) rel_->Cancel(rel_id);
  }

  /// Records a flight-recorder event stamped with this node and the
  /// current runtime time. Pass TxnId{} for events not tied to a
  /// transaction.
  void Fdr(obs::FdrKind kind, TxnId txn, uint64_t a = 0, uint64_t b = 0) {
    obs::FdrEvent e;
    e.ts_us = static_cast<int64_t>(env_.clock->Now());
    e.node = id_;
    e.kind = kind;
    e.txn = txn;
    e.a = a;
    e.b = b;
    fdr_->Record(e);
  }

  /// Synthetic transaction id for short-lived recovery-read locks.
  TxnId SyntheticTxnId() { return TxnId{id_, kSyntheticBase + synth_seq_++}; }

  static constexpr uint64_t kSyntheticBase = uint64_t{1} << 62;

  const ProcessorId id_;
  const NodeEnv env_;
  const runtime::Duration lock_timeout_;
  const runtime::Duration outcome_retry_period_;

  /// Reliable-delivery endpoint; null when env_.reliable.enabled is false.
  std::unique_ptr<net::ReliableChannel> rel_;

  /// Observability (resolved from env_ in the constructor; never null).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* fdr_ = nullptr;
  obs::Counter* ctr_phys_reads_served_ = nullptr;
  obs::Counter* ctr_phys_writes_served_ = nullptr;
  obs::Counter* ctr_phys_nacks_ = nullptr;
  obs::Counter* ctr_acks_piggybacked_ = nullptr;
  obs::Counter* ctr_ack_flushes_ = nullptr;
  /// Transactions this node coordinated and decided to abort; logical
  /// reads entered (before admission); and physical requests sent to copy
  /// holders, self included: R2 retries and each R3 target count.
  obs::Counter* ctr_txns_aborted_ = nullptr;
  obs::Counter* ctr_reads_attempted_ = nullptr;
  obs::Counter* ctr_phys_reads_sent_ = nullptr;
  obs::Counter* ctr_phys_writes_sent_ = nullptr;
  obs::Histogram* hist_txn_us_ = nullptr;
  obs::Histogram* hist_outcome_ack_us_ = nullptr;
  obs::PathHistograms path_hists_;

  uint64_t next_txn_seq_ = 1;
  uint64_t synth_seq_ = 1;
  uint64_t next_op_id_ = 1;

  std::unordered_map<TxnId, TxnRec, TxnIdHash> txns_;
  cc::DecisionLog decisions_;
  std::unordered_map<TxnId, RemoteTxn, TxnIdHash> remote_txns_;
  /// Outcomes this node learned as a PARTICIPANT (decisions_ only covers
  /// transactions coordinated here). A duplicated or reordered physical
  /// request that arrives after the outcome must be nacked, never
  /// re-staged: re-staging would later re-commit a stale value over newer
  /// committed writes and double-record the op in the conflict graph.
  std::unordered_map<TxnId, bool, TxnIdHash> remote_outcomes_;
  /// Set by Retire(); gates every self-rescheduling timer loop and retry
  /// closure so a replaced node object goes quiet.
  bool retired_ = false;

  /// Dispatch on the body's alternative, past the reliable channel (a
  /// parked message replays through here: it was acked and deduplicated
  /// when it first arrived).
  void Dispatch(const net::Message& m);

 private:
  /// Outcome acks this node owes one coordinator as a participant. They
  /// ride on the next message to it (CarryOwedAcks); a flush sends them
  /// alone once the oldest has waited AckFlushDelay().
  struct OwedAcks {
    std::vector<TxnId> txns;
    runtime::TimePoint since = 0;  // When the oldest listed ack was owed.
    bool flush_armed = false;
  };

  void ScheduleInDoubtSweep();
  void ScheduleOutcomeRetry(TxnId txn);
  /// Queues the ack of `txn`'s applied outcome for `coordinator`.
  void OweOutcomeAck(ProcessorId coordinator, TxnId txn);
  /// Moves the outcome acks owed to m.dst into m's header.
  void CarryOwedAcks(net::Message& m);
  void ArmAckFlush(ProcessorId coordinator, runtime::Duration delay);
  void OnAckFlush(ProcessorId coordinator);
  /// Longest an owed ack waits for a carrier: a quarter of the outcome
  /// retry period, so the flush lands well before the coordinator retries.
  runtime::Duration AckFlushDelay() const {
    return outcome_retry_period_ / 4;
  }

  /// Indexed by coordinator.
  std::vector<OwedAcks> owed_acks_;
};

}  // namespace vp::core

#endif  // VPART_CORE_NODE_BASE_H_
