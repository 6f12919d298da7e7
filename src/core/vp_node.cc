#include "core/vp_node.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace vp::core {

VpNode::VpNode(ProcessorId id, NodeEnv env, VpConfig config)
    : NodeBase(id, env, config.lock_timeout, config.outcome_retry_period),
      config_(config),
      cur_id_{0, id},
      max_id_{0, id},
      lview_{id},
      monitor_timer_(env.executor) {
  ctr_phys_reads_issued_ = metrics_->counter("phys.reads_issued");
  ctr_phys_reads_completed_ = metrics_->counter("phys.reads_completed");
  ctr_phys_writes_issued_ = metrics_->counter("phys.writes_issued");
  ctr_phys_writes_completed_ = metrics_->counter("phys.writes_completed");
  ctr_view_changes_ = metrics_->counter("vp.view_changes");
  ctr_conv_within_delta_ = metrics_->counter("vp.convergence_within_delta");
  ctr_conv_exceeded_delta_ =
      metrics_->counter("vp.convergence_exceeded_delta");
  ctr_reconfigs_proposed_ = metrics_->counter("vp.reconfigs_proposed");
  ctr_reconfigs_committed_ = metrics_->counter("vp.reconfigs_committed");
  ctr_reconfigs_deferred_ = metrics_->counter("vp.reconfigs_deferred");
  ctr_recovery_requests_ = metrics_->counter("vp.recovery_requests");
  ctr_recovery_items_ = metrics_->counter("vp.recovery_items");
  gauge_epoch_ = metrics_->gauge("vp.epoch");
  hist_phys_read_us_ = metrics_->histogram("phys.read_us");
  hist_phys_write_us_ = metrics_->histogram("phys.write_us");
  hist_view_conv_us_ = metrics_->histogram("vp.view_convergence_us");
  hist_reconfig_us_ = metrics_->histogram("vp.reconfig_us");
}

void VpNode::BeginViewChangeSpan(const char* reason) {
  if (view_span_open_) return;  // Same formation episode; keep the span.
  view_span_open_ = true;
  view_trace_ = tracer_->NewTraceId();
  view_change_start_ = env_.clock->Now();
  ctr_view_changes_->Increment();
  tracer_->AsyncBegin(view_trace_, id_, view_change_start_, "vp.view_change",
                      "vp", {{"reason", reason}});
}

void VpNode::MaybeEndViewChangeSpan() {
  if (!view_span_open_ || !assigned_ || !locked_.empty()) return;
  view_span_open_ = false;
  const runtime::TimePoint now = env_.clock->Now();
  const uint64_t dur = static_cast<uint64_t>(now - view_change_start_);
  hist_view_conv_us_->Observe(dur);
  // L1's convergence bound: views stabilize within Δ = π + 8δ of the last
  // topology change. One node's formation episode should fit well inside.
  const runtime::Duration delta_bound =
      config_.probe_period + 8 * config_.delta;
  if (dur <= static_cast<uint64_t>(delta_bound)) {
    ctr_conv_within_delta_->Increment();
  } else {
    ctr_conv_exceeded_delta_->Increment();
  }
  tracer_->AsyncEnd(view_trace_, id_, now, "vp.view_change", "vp",
                    {{"vp", cur_id_.ToString()},
                     {"view_size", std::to_string(lview_.size())}});
  view_trace_ = 0;
}

void VpNode::PersistViewMeta() {
  if (env_.stable != nullptr) {
    env_.stable->PersistViewMeta(max_id_, cur_id_, epoch_);
  }
}

void VpNode::Start() {
  if (env_.stable != nullptr && env_.stable->incarnation() > 0) {
    // Any reboot (amnesia or not) resumes the persisted configuration epoch:
    // the decision to serve under a placement is durable, so an in-doubt
    // transaction left in the WAL resolves against the placement it ran
    // under, never an older one.
    epoch_ = env_.stable->epoch();
    if (env_.placements != nullptr) {
      for (const auto& [e, ops] : env_.stable->reconfigs()) {
        if (!env_.placements->Has(e)) env_.placements->Register(e, ops);
      }
    }
    gauge_epoch_->Set(epoch_);
  }
  if (env_.stable != nullptr && env_.stable->amnesia() &&
      env_.stable->incarnation() > 0 && env_.stable->has_view_meta()) {
    // Crash-amnesia reboot: resume as a singleton partition whose id is
    // strictly above anything this processor saw or accepted in a previous
    // life (monotonic joins, and any stale acceptance it gave is dead).
    // Probing merges it back and R5 refreshes its copies.
    VpId pmax = env_.stable->max_view();
    if (pmax < env_.stable->cur_view()) pmax = env_.stable->cur_view();
    cur_id_ = VpId{pmax.n + 1, id_};
    max_id_ = cur_id_;
    lview_ = {id_};
    assigned_ = true;
    previous_.clear();
    // Conservatively treat every local copy as possibly stale: recoveries
    // in flight at crash time never completed.
    for (ObjectId obj : env_.store->LocalObjects()) dirty_.insert(obj);
    PersistViewMeta();
  }
  NodeBase::Start();
  // The initial assignment is the singleton partition (0, myid), per
  // Fig. 3's initializers; probing merges the system into larger
  // partitions within Δ.
  env_.recorder->JoinVp(id_, cur_id_, lview_, env_.clock->Now());
  // Stagger first probes so n probe storms do not collide at t=π.
  const runtime::Duration stagger =
      config_.probe_period * (id_ + 1) / (env_.transport->size() + 1);
  env_.executor->ScheduleAfter(stagger, [this]() { ProbeTick(); });
}

// ---------------------------------------------------------------------------
// Virtual partition management (Fig. 4, 5, 6).
// ---------------------------------------------------------------------------

void VpNode::CreateNewVp() {
  // Fig. 4: only an assigned processor initiates; an unassigned one already
  // has a creation in progress (or a monitor timer pending).
  if (!assigned_) return;
  BeginViewChangeSpan("initiate");
  Depart();
  max_id_ = VpId{max_id_.n + 1, id_};
  PersistViewMeta();
  StartCreateVp(max_id_);
}

void VpNode::Retire() {
  Depart();
  monitor_timer_.Reset();
  create_open_ = false;
  probe_round_open_ = false;
  // Fail callers waiting on logical operations; their transactions die
  // with the coordinator's volatile state.
  auto reads = std::move(pending_reads_);
  pending_reads_.clear();
  for (auto& [op_id, pr] : reads) {
    env_.executor->Cancel(pr.timeout_event);
    pr.cb(Status::Aborted("processor crashed"));
  }
  auto writes = std::move(pending_writes_);
  pending_writes_.clear();
  for (auto& [op_id, pw] : writes) {
    env_.executor->Cancel(pw.timeout_event);
    pw.cb(Status::Aborted("processor crashed"));
  }
  for (auto& [op_id, rec] : pending_recoveries_) {
    env_.executor->Cancel(rec.timeout_event);
  }
  pending_recoveries_.clear();
  recovery_by_object_.clear();
  recovery_retries_.clear();
  deferred_.clear();
  locked_.clear();
  FailParkedOps();
  NodeBase::Retire();
}

void VpNode::Depart() {
  if (!assigned_) return;
  assigned_ = false;
  ++join_generation_;
  recovery_outbox_.clear();  // Items of the departed view's recoveries.
  env_.recorder->DepartVp(id_, env_.clock->Now());
  Fdr(obs::FdrKind::kViewDepart, TxnId{},
      obs::FlightRecorder::PackVpId(cur_id_));
}

void VpNode::StartCreateVp(VpId new_id) {
  ++stats_.vp_creations_initiated;
  create_open_ = true;
  ++create_generation_;
  create_id_ = new_id;
  accepting_ = {id_};
  accept_previous_ = {{id_, cur_id_}};
  accept_epochs_ = {{id_, epoch_}};
  const uint32_t n = env_.transport->size();
  for (ProcessorId p = 0; p < n; ++p) {
    if (p == id_) continue;
    Send(p, msg::NewVp{new_id}, view_trace_);
  }
  const uint64_t gen = create_generation_;
  env_.executor->ScheduleAfter(2 * config_.delta,
                                [this, gen]() { FinishCreateVp(gen); });
}

void VpNode::FinishCreateVp(uint64_t generation) {
  if (retired_) return;
  if (generation != create_generation_) return;  // Superseded attempt.
  create_open_ = false;
  if (Crashed()) {
    // Crashed mid-attempt while unassigned. Probes are ignored while
    // unassigned, so without a pending monitor timer the processor would
    // stall unassigned forever after recovery; the timer re-arms itself
    // until recovery and then initiates a fresh partition.
    if (!monitor_timer_.armed()) {
      monitor_timer_.Set(3 * config_.delta, [this]() { OnMonitorTimeout(); });
    }
    FailParkedOps();
    return;
  }
  // Fig. 5 line 14: commit only if no higher-numbered invitation was seen
  // while collecting acceptances.
  if (create_id_ == max_id_) {
    std::set<ProcessorId> view = accepting_;
    std::map<ProcessorId, VpId> previous = accept_previous_;
    // The committed view adopts the newest epoch any member occupies
    // (epochs never regress; a behind member catches up at commit).
    EpochId epoch = epoch_;
    for (const auto& [p, e] : accept_epochs_) {
      if (epoch < e) epoch = e;
    }
    std::vector<ReconfigOp> reconfig;
    // The trace stamped on the VpCommit broadcast: the reconfig trace when
    // this formation carries a batch (so every member's epoch switch is
    // attributable to the originating ProposeReconfig), the view-change
    // trace otherwise.
    uint64_t commit_trace = view_trace_;
    if (env_.placements != nullptr && epoch > 0 &&
        env_.placements->Has(epoch)) {
      // Carry the adopted epoch's ops so behind members can cross-check the
      // directory entry they committed under.
      reconfig = env_.placements->OpsFor(epoch);
    }
    if (!pending_reconfig_.empty() && env_.placements != nullptr &&
        env_.placements->Has(epoch) &&
        epoch + 1 < storage::PlacementDirectory::kMaxEpochs) {
      const storage::CopyPlacement& cur = env_.placements->At(epoch);
      const storage::CopyPlacement next = cur.Apply(pending_reconfig_);
      if (!config_.epoch_gating ||
          AuthoritativeForReconfig(cur, next, view)) {
        // The batch rides this formation: the new epoch takes effect at the
        // vp boundary, and R5 brings every in-view copy of the new
        // placement current before the view serves.
        std::vector<ReconfigOp> ops = std::move(pending_reconfig_);
        pending_reconfig_.clear();
        env_.placements->Register(epoch + 1, ops);
        ++epoch;
        // Under the gated protocol the slot is ours (the gate serializes
        // introducers through a common majority); ungated races may lose
        // first-wins registration, in which case the directory's ops — not
        // ours — define the epoch. Either way the directory is the truth.
        reconfig = env_.placements->OpsFor(epoch);
        ctr_reconfigs_committed_->Increment();
        const runtime::TimePoint now = env_.clock->Now();
        hist_reconfig_us_->Observe(
            static_cast<uint64_t>(now - reconfig_proposed_at_));
        tracer_->AsyncEnd(reconfig_trace_, id_, now, "vp.reconfig", "vp",
                          {{"epoch", std::to_string(epoch)},
                           {"ops", std::to_string(reconfig.size())}});
        commit_trace = reconfig_trace_;
        reconfig_trace_ = 0;
      } else {
        // Not authoritative for the change from this view; the batch stays
        // pending and ArmReconfigRetry (below, via CommitToVp) retries.
        ctr_reconfigs_deferred_->Increment();
      }
    } else if (!pending_reconfig_.empty() && env_.placements != nullptr &&
               epoch + 1 >= storage::PlacementDirectory::kMaxEpochs) {
      // Directory exhausted: the batch can never commit; drop it so the
      // retry timer stops churning formations.
      pending_reconfig_.clear();
    }
    // Phase 2: distribute the view. The paper broadcasts to all of P;
    // commit_to_acceptors_only narrows this to the acceptors.
    const uint32_t n = env_.transport->size();
    for (ProcessorId p = 0; p < n; ++p) {
      if (p == id_) continue;
      if (config_.commit_to_acceptors_only && view.count(p) == 0) continue;
      Send(p,
           msg::VpCommit{create_id_, view, previous, epoch, reconfig},
           commit_trace);
    }
    monitor_timer_.Reset();
    CommitToVp(create_id_, std::move(view), std::move(previous), epoch,
               reconfig, commit_trace);
    return;
  }
  // The attempt failed (a higher invitation arrived). Progress guarantee:
  // if the competing initiator's commit never arrives, the monitor timer
  // must eventually fire; arm it if the acceptance path has not.
  if (!assigned_ && !monitor_timer_.armed()) {
    monitor_timer_.Set(3 * config_.delta, [this]() { OnMonitorTimeout(); });
    // No accepted formation is in flight to join: parked ops fail now.
    FailParkedOps();
  }
}

void VpNode::HandleNewVp(const msg::NewVp& body) {
  const VpId v = body.new_id;
  // Fig. 6 lines 5-10: accept iff strictly higher than anything seen.
  if (!(max_id_ < v)) return;
  max_id_ = v;
  PersistViewMeta();
  BeginViewChangeSpan("invited");
  Depart();
  Send(v.p, msg::VpOk{v, id_, cur_id_, epoch_}, view_trace_);
  monitor_timer_.Set(3 * config_.delta, [this]() { OnMonitorTimeout(); });
  // max-id moved: parked accesses tagged with lower vp-ids are now dead.
  ReprocessDeferred();
}

void VpNode::HandleVpOk(const msg::VpOk& body) {
  if (!create_open_ || !(body.v == create_id_)) return;
  accepting_.insert(body.r);
  accept_previous_[body.r] = body.previous;
  accept_epochs_[body.r] = body.epoch;
}

void VpNode::HandleVpCommit(const net::Message& m,
                            const msg::VpCommit& body) {
  // Fig. 6 lines 12-20: commit iff this is the partition we accepted last.
  if (!(body.v == max_id_)) return;
  if (assigned_ && cur_id_ == body.v) return;  // Duplicate commit.
  if (body.view.count(id_) == 0) {
    // Our acceptance was lost: the view omits us. Committing would break
    // S2 (reflexivity), so start our own partition instead.
    monitor_timer_.Reset();
    OnMonitorTimeout();
    return;
  }
  monitor_timer_.Reset();
  CommitToVp(body.v, body.view, body.previous, body.epoch, body.reconfig,
             m.trace);
}

void VpNode::OnMonitorTimeout() {
  if (retired_) return;
  // Fig. 6 lines 22-24: the promised commit never arrived; initiate a
  // fresh, higher-numbered partition. Ops parked for the failed formation
  // fail rather than wait on another.
  FailParkedOps();
  if (Crashed()) {
    // Retry after recovery; otherwise a crashed processor would stay
    // unassigned forever once it recovers.
    monitor_timer_.Set(3 * config_.delta, [this]() { OnMonitorTimeout(); });
    return;
  }
  BeginViewChangeSpan("monitor-timeout");
  max_id_ = VpId{max_id_.n + 1, id_};
  PersistViewMeta();
  StartCreateVp(max_id_);
}

void VpNode::CommitToVp(VpId v, std::set<ProcessorId> view,
                        std::map<ProcessorId, VpId> previous, EpochId epoch,
                        const std::vector<ReconfigOp>& reconfig,
                        uint64_t commit_trace) {
  ++join_generation_;
  cur_id_ = v;
  if (max_id_ < v) max_id_ = v;
  lview_ = std::move(view);
  previous_ = std::move(previous);
  assigned_ = true;
  const EpochId prev_epoch = epoch_;
  if (epoch_ < epoch) {
    // Epochs move only here, at the vp boundary; the directory (shared)
    // already holds the new placement — the ops on the commit message are
    // redundant cross-checking material for a receiver whose directory
    // somehow lags (cannot happen in-process, defensive for fidelity).
    if (env_.placements != nullptr && !env_.placements->Has(epoch) &&
        env_.placements->LatestEpoch() + 1 == epoch) {
      env_.placements->Register(epoch, reconfig);
    }
    epoch_ = epoch;
    gauge_epoch_->Set(epoch_);
    tracer_->Instant(commit_trace != 0 ? commit_trace : view_trace_, id_,
                     env_.clock->Now(), "vp.epoch_switch", "vp",
                     {{"epoch", std::to_string(epoch_)}});
    Fdr(obs::FdrKind::kEpochSwitch, TxnId{}, epoch_,
        obs::FlightRecorder::PackVpId(v));
    if (env_.stable != nullptr && env_.placements != nullptr) {
      // Durable before the view serves: a reboot must resolve in-doubt
      // transactions against this placement, not an older one. A member
      // that skipped epochs persists the whole chain it jumped over.
      for (EpochId e = prev_epoch + 1; e <= epoch_; ++e) {
        if (env_.placements->Has(e)) {
          env_.stable->PersistReconfig(e, env_.placements->OpsFor(e));
        }
      }
    }
  }
  PersistViewMeta();
  ++stats_.vp_joins;
  Fdr(obs::FdrKind::kViewCommit, TxnId{}, obs::FlightRecorder::PackVpId(v),
      obs::FlightRecorder::MemberMask(lview_));
  env_.recorder->JoinVp(id_, v, lview_, env_.clock->Now());
  tracer_->Instant(view_trace_, id_, env_.clock->Now(), "vp.join", "vp",
                   {{"vp", v.ToString()},
                    {"view_size", std::to_string(lview_.size())}});
  VP_LOG(kInfo, env_.clock->Now())
      << "p" << id_ << " joined vp " << v.ToString() << " (|view|="
      << lview_.size() << ")";

  // R4: transactions of earlier partitions abort when their coordinator
  // joins a new one. Under the §6 weakening a transaction survives if its
  // footprint is contained in the new view (condition (2)); condition (1)
  // is re-checked per-operation and condition (3) holds structurally.
  std::vector<TxnId> doomed;
  for (auto& [txn, rec] : txns_) {
    if (rec.st != cc::TxnOutcome::kActive || !rec.vp_set) continue;
    // Drain rule: a transaction begun under an older epoch never commits in
    // a newer one, even when the weakened R4 would let it survive the view
    // change — its footprint was planned against a placement that no longer
    // governs votes.
    if (config_.epoch_gating && rec.epoch != epoch_) {
      doomed.push_back(txn);
      continue;
    }
    if (rec.vp == v) continue;
    if (config_.weakened_r4) {
      bool contained = true;
      for (ProcessorId p : rec.participants) {
        if (lview_.count(p) == 0) {
          contained = false;
          break;
        }
      }
      // §6 soundness condition: containment alone is not enough. The
      // transaction's reads stay current across the boundary only when the
      // new view is a re-formation of the partition it executed in — every
      // member arrives from rec.vp, so nobody carries committed writes this
      // node's copies missed, and R5's same-previous skip leaves every
      // non-dirty copy untouched. A member with a different previous
      // partition may bring newer data that copy-update installs over
      // values this transaction already read; letting it continue would
      // commit a fused snapshot no serial order explains (e.g. a stale
      // pre-join read next to a post-join read of the refreshed copy).
      bool same_previous = true;
      for (ProcessorId p : lview_) {
        auto it = previous_.find(p);
        if (it == previous_.end() || !(it->second == rec.vp)) {
          same_previous = false;
          break;
        }
      }
      if (contained && same_previous) {
        // The transaction continues in (and serializes with) this
        // partition; keep its vp current so chained re-formations compare
        // against the view it actually rides.
        rec.vp = v;
        env_.recorder->TxnSetVp(txn, v);
        continue;
      }
    }
    doomed.push_back(txn);
  }

  // Copy bring-up: placement gained under the new epoch materializes as an
  // empty copy (date ⊥) that R5 fills before it can serve. Departing
  // holders keep their copies — vote-less, read-only — as recovery sources.
  if (env_.placements != nullptr) {
    for (ObjectId obj : CurrentPlacement().LocalObjects(id_)) {
      if (!env_.store->HasCopy(obj)) {
        env_.store->CreateCopy(obj);
        dirty_.insert(obj);  // Never initialized; recovery is mandatory.
      }
    }
  }

  // R5: lock accessible local copies until initialized (Fig. 5 line 18).
  recovery_retries_.clear();
  locked_.clear();
  // Dirt carried from before this join: these copies' previous recovery
  // never completed, so the same-previous skip must not trust them.
  const std::set<ObjectId> was_dirty = dirty_;
  for (ObjectId obj : env_.store->LocalObjects()) {
    if (CurrentPlacement().Accessible(obj, lview_)) {
      locked_.insert(obj);
      dirty_.insert(obj);  // Pending until Unlock.
    }
  }
  // The doomed transactions abort only now that the R5 locks are in place:
  // their local outcome applies inline and its lock release can wake local
  // waiters whose client code issues new operations in this vp, which must
  // find the uninitialized copies locked.
  for (TxnId txn : doomed) InternalAbort(txn);
  StartUpdateCopies(was_dirty);
  MaybeEndViewChangeSpan();
  ReprocessDeferred();
  ArmReconfigRetry();
}

bool VpNode::AuthoritativeForReconfig(const storage::CopyPlacement& cur,
                                      const storage::CopyPlacement& next,
                                      const std::set<ProcessorId>& view) const {
  // Majority under `cur`: the forming view can still read every object's
  // latest committed value. Majority under `next`: R5 initializes a
  // majority of each object's NEW copies before the new epoch serves, so
  // any later view with a new-placement majority intersects an initialized
  // copy (the usual quorum-intersection argument, carried across the
  // boundary).
  for (ObjectId obj = 0; obj < cur.object_count(); ++obj) {
    if (!cur.Accessible(obj, view)) return false;
  }
  for (ObjectId obj = 0; obj < next.object_count(); ++obj) {
    if (!next.Accessible(obj, view)) return false;
  }
  return true;
}

void VpNode::ArmReconfigRetry() {
  if (pending_reconfig_.empty() || reconfig_retry_armed_) return;
  reconfig_retry_armed_ = true;
  // Probe-period pacing: frequent enough for liveness once the topology
  // admits the change, slow enough not to storm formations while it
  // cannot commit (e.g. mid-partition).
  env_.executor->ScheduleAfter(config_.probe_period, [this]() {
    reconfig_retry_armed_ = false;
    if (retired_ || Crashed() || pending_reconfig_.empty()) return;
    CreateNewVp();
    ArmReconfigRetry();
  });
}

void VpNode::ProposeReconfig(std::vector<ReconfigOp> ops) {
  if (retired_ || Crashed() || ops.empty()) return;
  if (env_.placements == nullptr) return;  // No directory: unsupported.
  ctr_reconfigs_proposed_->Increment();
  const bool had_pending = !pending_reconfig_.empty();
  for (ReconfigOp& op : ops) pending_reconfig_.push_back(op);
  if (!had_pending) {
    reconfig_proposed_at_ = env_.clock->Now();
    reconfig_trace_ = tracer_->NewTraceId();
    tracer_->AsyncBegin(reconfig_trace_, id_, reconfig_proposed_at_,
                        "vp.reconfig", "vp",
                        {{"ops", std::to_string(pending_reconfig_.size())}});
  }
  // Reconfiguration rides a partition creation; if this node is currently
  // unassigned (a formation is already in flight) the retry timer carries
  // the batch to the next boundary.
  CreateNewVp();
  ArmReconfigRetry();
}

// ---------------------------------------------------------------------------
// Probing (Fig. 7, 8).
// ---------------------------------------------------------------------------

void VpNode::ProbeTick() {
  if (retired_) return;
  // The loop persists across crashes; a crashed processor skips the round.
  env_.executor->ScheduleAfter(config_.probe_period,
                                [this]() { ProbeTick(); });
  if (Crashed() || !assigned_) return;
  ++probe_seq_;
  probe_round_open_ = true;
  probe_attempt_ = 0;
  probe_acks_ = {id_};
  const uint32_t n = env_.transport->size();
  for (ProcessorId p = 0; p < n; ++p) {
    if (p == id_) continue;
    Send(p, msg::Probe{id_, cur_id_, probe_seq_});
  }
  env_.executor->ScheduleAfter(
      2 * config_.delta, [this, seq = probe_seq_]() {
        if (seq == probe_seq_) FinishProbeRound();
      });
}

void VpNode::FinishProbeRound() {
  if (retired_ || !probe_round_open_) return;
  if (Crashed()) {
    probe_round_open_ = false;
    return;
  }
  if (!assigned_ || probe_acks_ == lview_) {
    probe_round_open_ = false;
    return;
  }
  // Discrepancy. A single missing ack may be a dropped message rather than
  // a topology change; re-probe the unresponsive members before acting
  // (config_.probe_retries = 0 reproduces Fig. 7 exactly).
  if (probe_attempt_ < config_.probe_retries) {
    ++probe_attempt_;
    for (ProcessorId p : lview_) {
      if (probe_acks_.count(p) == 0) {
        Send(p, msg::Probe{id_, cur_id_, probe_seq_});
      }
    }
    env_.executor->ScheduleAfter(
        2 * config_.delta, [this, seq = probe_seq_]() {
          if (seq == probe_seq_) FinishProbeRound();
        });
    return;
  }
  probe_round_open_ = false;
  // Fig. 7 line 21: the discrepancy is real; change partitions.
  CreateNewVp();
}

void VpNode::HandleProbe(const msg::Probe& body) {
  if (!assigned_) return;
  if (body.v == cur_id_) {
    Send(body.q, msg::ProbeAck{id_, body.seq});
  } else if (cur_id_ < body.v) {
    // Communication across partitions demonstrated; merge (Fig. 8 line 7).
    // Fold the demonstrated id into max_id_ first: max_id must be the
    // largest id *seen*, and the probe's id counts. Proposing the successor
    // of a stale local max loses the creation race against the probing side
    // (which ignores the lower id as stale) and costs a full extra probe
    // period before the next merge attempt — breaking the Δ = π + 8δ
    // convergence bound after a heal.
    if (max_id_ < body.v) max_id_ = body.v;
    CreateNewVp();
  }
  // body.v < cur_id_: stale probe; ignore.
}

void VpNode::HandleProbeAck(const msg::ProbeAck& body) {
  if (!probe_round_open_ || body.seq != probe_seq_) return;
  probe_acks_.insert(body.q);
}

// ---------------------------------------------------------------------------
// R5: Update-Copies-in-View (Fig. 9, plus the §6 optimizations).
// ---------------------------------------------------------------------------

void VpNode::StartUpdateCopies(const std::set<ObjectId>& was_dirty) {
  if (locked_.empty()) return;

  if (config_.recovery != RecoveryMode::kFullRead && !previous_.empty()) {
    // §6 optimization 1, common case: every member split off from the same
    // previous partition, so every accessible copy is already up to date —
    // EXCEPT copies whose initialization in that previous partition never
    // completed (`was_dirty`): membership alone does not make them fresh.
    bool all_same = true;
    const VpId first = previous_.begin()->second;
    for (ProcessorId p : lview_) {
      auto it = previous_.find(p);
      if (it == previous_.end() || !(it->second == first)) {
        all_same = false;
        break;
      }
    }
    if (all_same) {
      const std::vector<ObjectId> all(locked_.begin(), locked_.end());
      for (ObjectId obj : all) {
        if (was_dirty.count(obj) > 0) {
          StartObjectRecovery(obj);
        } else {
          ++stats_.recovery_skipped_objects;
          Unlock(obj);
        }
      }
      FlushRecoveryReads();
      return;
    }
  }

  const std::vector<ObjectId> objs(locked_.begin(), locked_.end());
  for (ObjectId obj : objs) StartObjectRecovery(obj);
  FlushRecoveryReads();
}

void VpNode::StartObjectRecovery(ObjectId obj) {
  msg::RecoveryWant want = msg::RecoveryWant::kValue;
  if (config_.recovery == RecoveryMode::kLogCatchup) {
    want = msg::RecoveryWant::kLog;
  } else if (config_.recovery == RecoveryMode::kDatePoll) {
    want = msg::RecoveryWant::kDate;
  }
  if (want != msg::RecoveryWant::kValue && env_.placements != nullptr &&
      env_.placements->LatestEpoch() > 0) {
    // Once a reconfiguration has happened, the log/date shortcuts are only
    // sound against sources that saw every committed write of the object —
    // at an epoch boundary the freshest in-view copy may belong to a
    // departing holder the current placement no longer lists, and a
    // freshly materialized copy (date ⊥) has no log to catch up from at
    // its new-placement peers. Fall back to a max-date full read over the
    // all-epochs holder union whenever either condition can hold.
    auto local = env_.store->Read(obj);
    const bool fresh = !local.ok() || local.value().date == kEpochDate;
    std::set<ProcessorId> cur_in_view;
    for (ProcessorId q : CurrentPlacement().CopyHolders(obj)) {
      if (lview_.count(q) > 0) cur_in_view.insert(q);
    }
    if (fresh || RecoverySources(obj) != cur_in_view) {
      want = msg::RecoveryWant::kValue;
    }
  }

  const uint64_t op_id = next_op_id_++;
  PendingRecovery rec;
  rec.obj = obj;
  rec.join_gen = join_generation_;
  rec.want = want;
  VpId after = kEpochDate;
  if (want == msg::RecoveryWant::kValue) {
    rec.awaiting = RecoverySources(obj);
    // Self always qualifies: `obj` is locked, hence local, and a copy
    // exists only because some epoch <= epoch_ placed it here.
    VP_CHECK(!rec.awaiting.empty());
  } else {
    auto local = env_.store->Read(obj);
    VP_CHECK(local.ok());
    after = local.value().date;
    rec.best_date = after;
    rec.best_holder = id_;
    for (ProcessorId q : CurrentPlacement().CopyHolders(obj)) {
      if (q != id_ && lview_.count(q) > 0) rec.awaiting.insert(q);
    }
    if (rec.awaiting.empty()) {
      // All in-view copies are local; nothing can be newer.
      Unlock(obj);
      return;
    }
  }
  recovery_by_object_[obj] = op_id;
  const std::set<ProcessorId> targets = rec.awaiting;
  rec.timeout_event = ArmRecoveryTimeout(op_id);
  pending_recoveries_[op_id] = std::move(rec);

  for (ProcessorId q : targets) {
    if (want == msg::RecoveryWant::kDate) {
      ++stats_.recovery_date_polls;
    } else if (q != id_) {
      ++stats_.recovery_reads_sent;
    }
    recovery_outbox_[q].push_back(
        msg::RecoveryRead::Item{obj, op_id, want, after});
  }
}

runtime::TaskId VpNode::ArmRecoveryTimeout(uint64_t op_id) {
  return env_.executor->ScheduleAfter(
      2 * config_.delta + config_.lock_timeout, [this, op_id]() {
        RecoveryFailed(op_id);
        FlushRecoveryReads();
      });
}

void VpNode::FlushRecoveryReads() {
  // Moved out first: a local holder answers inline, and a retry started by
  // its answer queues (and flushes) items of its own.
  std::map<ProcessorId, std::vector<msg::RecoveryRead::Item>> outbox =
      std::move(recovery_outbox_);
  recovery_outbox_.clear();
  for (auto& [q, items] : outbox) {
    if (q != id_) {
      ctr_recovery_requests_->Increment();
      ctr_recovery_items_->Add(items.size());
    }
    SendPhys(q, msg::RecoveryRead{cur_id_, std::move(items)}, nullptr,
             view_trace_);
  }
}

std::set<ProcessorId> VpNode::RecoverySources(ObjectId obj) const {
  std::set<ProcessorId> out;
  if (env_.placements != nullptr) {
    for (EpochId e = 0; e <= epoch_; ++e) {
      if (!env_.placements->Has(e) ||
          !env_.placements->At(e).HasObject(obj)) {
        continue;
      }
      for (ProcessorId q : env_.placements->At(e).CopyHolders(obj)) {
        if (lview_.count(q) > 0) out.insert(q);
      }
    }
  } else {
    for (ProcessorId q : env_.placement->CopyHolders(obj)) {
      if (lview_.count(q) > 0) out.insert(q);
    }
  }
  return out;
}

void VpNode::HandleRecoveryReply(const net::Message& m,
                                 const msg::RecoveryReply& body) {
  for (const msg::RecoveryReply::Item& item : body.items) {
    HandleRecoveryItem(m.src, item);
  }
  FlushRecoveryReads();
}

void VpNode::HandleRecoveryItem(ProcessorId from,
                                const msg::RecoveryReply::Item& item) {
  auto it = pending_recoveries_.find(item.op_id);
  if (it == pending_recoveries_.end()) return;
  PendingRecovery& rec = it->second;
  if (rec.join_gen != join_generation_) {
    // Joined another partition meanwhile; this task is dead.
    env_.executor->Cancel(rec.timeout_event);
    UnindexRecovery(rec.obj, item.op_id);
    pending_recoveries_.erase(it);
    return;
  }
  if (!item.ok) {
    // A holder listed by a past epoch that never materialized its copy
    // (added, then removed, without ever joining a view in between) misses
    // benignly as long as some source delivers a value; every source
    // missing means the view really is wrong. Any other failure retries.
    if (item.error != "no-copy" || rec.want != msg::RecoveryWant::kValue) {
      RecoveryFailed(item.op_id);
      return;
    }
  } else {
    switch (rec.want) {
      case msg::RecoveryWant::kValue:
        if (!rec.have_value || rec.best_date < item.date) {
          rec.best_value = item.value;
          rec.best_date = item.date;
          rec.have_value = true;
        }
        break;
      case msg::RecoveryWant::kLog: {
        auto& suffix = rec.records_by_src[from];
        for (const auto& [date, value, txn] : item.records) {
          suffix.push_back(storage::LogRecord{date, value, txn});
        }
        break;
      }
      case msg::RecoveryWant::kDate:
        if (rec.best_date < item.date) {
          rec.best_date = item.date;
          rec.best_holder = from;
        }
        break;
    }
  }
  rec.awaiting.erase(from);
  if (!rec.awaiting.empty()) return;
  if (rec.want == msg::RecoveryWant::kValue && !rec.have_value) {
    RecoveryFailed(item.op_id);
    return;
  }
  if (rec.want == msg::RecoveryWant::kDate && rec.best_holder != id_) {
    // Date-poll phase 2: fetch the value from the freshest copy only (the
    // local copy being freshest needs no fetch at all).
    rec.want = msg::RecoveryWant::kValue;
    rec.awaiting = {rec.best_holder};
    env_.executor->Cancel(rec.timeout_event);
    rec.timeout_event = ArmRecoveryTimeout(item.op_id);
    ++stats_.recovery_value_fetches;
    ++stats_.recovery_reads_sent;
    recovery_outbox_[rec.best_holder].push_back(msg::RecoveryRead::Item{
        rec.obj, item.op_id, msg::RecoveryWant::kValue, kEpochDate});
    return;
  }
  FinishRecovery(item.op_id);
}

void VpNode::UnindexRecovery(ObjectId obj, uint64_t op_id) {
  auto oit = recovery_by_object_.find(obj);
  if (oit != recovery_by_object_.end() && oit->second == op_id) {
    recovery_by_object_.erase(oit);
  }
}

void VpNode::FinishRecovery(uint64_t op_id) {
  auto it = pending_recoveries_.find(op_id);
  if (it == pending_recoveries_.end()) return;
  PendingRecovery rec = std::move(it->second);
  env_.executor->Cancel(rec.timeout_event);
  pending_recoveries_.erase(it);
  const ObjectId obj = rec.obj;
  UnindexRecovery(obj, op_id);
  // Fig. 9 lines 15-17: install only if still in the same partition.
  if (rec.join_gen != join_generation_ || !assigned_) return;

  if (rec.want == msg::RecoveryWant::kLog) {
    // Pick the freshest source: the suffix whose final record carries the
    // greatest date (ties: the longest suffix). Suffixes are applied in
    // their original per-copy order because dates do not order writes
    // within one partition.
    const std::vector<storage::LogRecord>* best = nullptr;
    for (const auto& [src, suffix] : rec.records_by_src) {
      if (suffix.empty()) continue;
      if (best == nullptr || best->back().date < suffix.back().date ||
          (best->back().date == suffix.back().date &&
           best->size() < suffix.size())) {
        best = &suffix;
      }
    }
    if (best != nullptr) {
      stats_.recovery_log_records += best->size();
      Status s = env_.store->ApplyLogSuffix(obj, *best);
      VP_CHECK(s.ok());
    }
  } else if (rec.have_value) {
    Status s = env_.store->InstallRecovery(obj, rec.best_value, rec.best_date);
    VP_CHECK(s.ok());
  }
  Unlock(obj);
}

void VpNode::RecoveryFailed(uint64_t op_id) {
  if (retired_) return;
  // Tear down by operation, never by object: a stale timeout or late reply
  // from a superseded join must not destroy the bookkeeping of the current
  // join's recovery for the same object.
  auto it = pending_recoveries_.find(op_id);
  if (it == pending_recoveries_.end()) return;
  const ObjectId obj = it->second.obj;
  const uint64_t join_gen = it->second.join_gen;
  env_.executor->Cancel(it->second.timeout_event);
  pending_recoveries_.erase(it);
  UnindexRecovery(obj, op_id);
  if (Crashed() || join_gen != join_generation_) return;
  // A recovery read can fail because the remote copy is write-locked by a
  // live transaction (§6 condition (3) makes it wait) rather than because
  // the view is wrong. Retry a few times before concluding the latter; the
  // caller flushes the retry's items.
  if (recovery_retries_[obj] < kMaxRecoveryRetries) {
    ++recovery_retries_[obj];
    StartObjectRecovery(obj);
    return;
  }
  // Fig. 9 line 12's exception handler: no-response ⇒ the view is wrong;
  // form a new partition. Remaining locked objects stay locked; the next
  // join restarts their initialization.
  CreateNewVp();
}

void VpNode::Unlock(ObjectId obj) {
  locked_.erase(obj);
  dirty_.erase(obj);  // Recovery completed; the copy is known fresh.
  if (env_.store->ClearQuarantine(obj)) {
    // Scrub round trip complete: the copy a lying device quarantined was
    // rebuilt from live copies by the ordinary copy-update path.
    if (env_.stable != nullptr) env_.stable->NoteScrubRepair();
    tracer_->Instant(view_trace_, id_, env_.clock->Now(), "storage.repair",
                     "storage", {{"obj", std::to_string(obj)}});
  }
  MaybeEndViewChangeSpan();
  ReprocessDeferred();
}

// ---------------------------------------------------------------------------
// Logical operations (Fig. 10, 11).
// ---------------------------------------------------------------------------

bool VpNode::ShouldPark(TxnId txn) const {
  if (assigned_ || parking_closed_) return false;
  if (!create_open_ && !monitor_timer_.armed()) return false;
  auto it = txns_.find(txn);
  return it != txns_.end() && it->second.st == cc::TxnOutcome::kActive &&
         !it->second.doomed && !it->second.vp_set;
}

void VpNode::FailParkedOps() {
  if (parked_ops_.empty()) return;
  std::vector<std::function<void()>> ops = std::move(parked_ops_);
  parked_ops_.clear();
  parking_closed_ = true;
  for (auto& op : ops) op();
  parking_closed_ = false;
}

Status VpNode::AdmitLogicalOp(TxnId txn, ObjectId obj, TxnRec** rec_out) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr) return Status::NotFound("unknown transaction");
  *rec_out = rec;
  if (rec->st != cc::TxnOutcome::kActive || rec->doomed) {
    return Status::Aborted("transaction already doomed");
  }
  if (!assigned_ || !CurrentPlacement().Accessible(obj, lview_)) {
    rec->doomed = true;
    InternalAbort(txn);
    return Status::Unavailable("object inaccessible (R1)");
  }
  if (!rec->vp_set) {
    // The first op binds the transaction to this vp and, since it has no
    // footprint yet, to this epoch: an op parked across an epoch-advancing
    // formation runs wholly under the new placement.
    rec->vp = cur_id_;
    rec->vp_set = true;
    rec->epoch = epoch_;
    env_.recorder->TxnSetVp(txn, cur_id_);
  } else if (!(rec->vp == cur_id_)) {
    if (config_.weakened_r4) {
      // The transaction continues in the new partition; Theorem 1' then
      // orders it with the latest partition it executed in.
      rec->vp = cur_id_;
      env_.recorder->TxnSetVp(txn, cur_id_);
    } else {
      // R4 violation (should have been aborted at join; defensive).
      rec->doomed = true;
      InternalAbort(txn);
      return Status::Aborted("R4: partition changed");
    }
  }
  return Status::Ok();
}

ProcessorId VpNode::Nearest(ObjectId obj) const {
  ProcessorId best = kInvalidProcessor;
  double best_cost = 0;
  for (ProcessorId q : CurrentPlacement().CopyHolders(obj)) {
    if (lview_.count(q) == 0) continue;
    const double cost = q == id_ ? 0.0 : env_.transport->Cost(id_, q);
    if (best == kInvalidProcessor || cost < best_cost) {
      best = q;
      best_cost = cost;
    }
  }
  return best;
}

void VpNode::LogicalRead(TxnId txn, ObjectId obj, ReadCallback cb) {
  if (ShouldPark(txn)) {
    parked_ops_.push_back([this, txn, obj, cb = std::move(cb)]() mutable {
      LogicalRead(txn, obj, std::move(cb));
    });
    return;
  }
  ++stats_.reads_attempted;
  TxnRec* rec = nullptr;
  Status admit = AdmitLogicalOp(txn, obj, &rec);
  if (!admit.ok()) {
    if (admit.IsUnavailable()) ++stats_.reads_unavailable;
    else ++stats_.reads_failed;
    cb(admit);
    return;
  }

  const uint64_t op_id = next_op_id_++;
  PendingRead pr;
  pr.txn = txn;
  pr.obj = obj;
  pr.cb = std::move(cb);
  pr.issued_at = env_.clock->Now();
  pr.trace = rec->trace;
  pr.target = Nearest(obj);
  VP_CHECK(pr.target != kInvalidProcessor);
  if (config_.read_retry) {
    // Remaining in-view copies, by ascending cost, as fallbacks.
    std::vector<std::pair<double, ProcessorId>> rest;
    for (ProcessorId q : CurrentPlacement().CopyHolders(obj)) {
      if (q == pr.target || lview_.count(q) == 0) continue;
      rest.emplace_back(q == id_ ? 0.0 : env_.transport->Cost(id_, q),
                        q);
    }
    std::sort(rest.begin(), rest.end());
    for (auto& [cost, q] : rest) pr.fallbacks.push_back(q);
  }
  ++stats_.phys_reads_sent;
  ctr_phys_reads_issued_->Increment();
  rec->path.OpIssued(env_.clock->Now());
  SendRead(op_id, std::move(pr), rec->participants);
}

void VpNode::SendRead(uint64_t op_id, PendingRead pr,
                      const std::set<ProcessorId>& footprint) {
  const ProcessorId target = pr.target;
  const TxnId txn = pr.txn;
  const uint64_t trace = pr.trace;
  msg::PhysRead req{txn, pr.obj, cur_id_, epoch_, /*for_update=*/false, op_id,
                    footprint};
  pr.issued_vp = cur_id_;
  pending_reads_[op_id] = std::move(pr);
  SendPhys(target, std::move(req), nullptr, trace, RetransmitToPath(txn));
  auto it = pending_reads_.find(op_id);
  if (it == pending_reads_.end()) return;  // Served inline.
  it->second.timeout_event = env_.executor->ScheduleAfter(
      2 * config_.delta + config_.lock_timeout, [this, op_id]() {
        auto it2 = pending_reads_.find(op_id);
        if (it2 == pending_reads_.end()) return;
        // No response within the deadline: the view is suspect (Fig. 10
        // line 5's no-response handler).
        PendingRead pr2 = std::move(it2->second);
        pending_reads_.erase(it2);
        ++stats_.reads_failed;
        TxnRec* r = FindTxn(pr2.txn);
        if (r != nullptr) {
          r->doomed = true;
          r->path.OpCompleted(env_.clock->Now(), 0);
        }
        InternalAbort(pr2.txn);
        if (!Crashed() &&
            NoResponseSuspectsView(pr2.issued_vp, {pr2.target})) {
          CreateNewVp();
        }
        pr2.cb(Status::Timeout("no response from copy holder"));
      });
}

void VpNode::LogicalWrite(TxnId txn, ObjectId obj, Value value,
                          WriteCallback cb) {
  if (ShouldPark(txn)) {
    parked_ops_.push_back([this, txn, obj, value = std::move(value),
                           cb = std::move(cb)]() mutable {
      LogicalWrite(txn, obj, std::move(value), std::move(cb));
    });
    return;
  }
  ++stats_.writes_attempted;
  TxnRec* rec = nullptr;
  Status admit = AdmitLogicalOp(txn, obj, &rec);
  if (!admit.ok()) {
    if (admit.IsUnavailable()) ++stats_.writes_unavailable;
    else ++stats_.writes_failed;
    cb(admit);
    return;
  }

  const uint64_t op_id = next_op_id_++;
  PendingWrite pw;
  pw.txn = txn;
  pw.obj = obj;
  pw.value = value;
  pw.cb = std::move(cb);
  pw.issued_at = env_.clock->Now();
  pw.trace = rec->trace;
  pw.issued_vp = cur_id_;
  for (ProcessorId q : CurrentPlacement().CopyHolders(obj)) {
    if (lview_.count(q) > 0) pw.awaiting.insert(q);
  }
  VP_CHECK(!pw.awaiting.empty());

  const std::set<ProcessorId> targets = pw.awaiting;
  const uint64_t trace = pw.trace;
  // Registered before the sends: a local copy replies inline.
  pending_writes_[op_id] = std::move(pw);
  // Targets become participants as soon as the request is issued: they may
  // stage the write even if this coordinator later aborts, so the outcome
  // broadcast must reach them. They are also part of the footprint §6
  // condition (2) checks at each server: a server whose view excludes a
  // copy this write lands on must refuse it, even on the first operation.
  for (ProcessorId q : targets) rec->participants.insert(q);
  const std::set<ProcessorId> footprint = rec->participants;
  ctr_phys_writes_issued_->Increment();
  rec->path.OpIssued(env_.clock->Now());
  // `rec` is not used past this point: an inline reply can run client code
  // that begins transactions.
  for (ProcessorId q : targets) {
    ++stats_.phys_writes_sent;
    SendPhys(q,
             msg::PhysWrite{txn, obj, value, cur_id_, epoch_, op_id,
                            footprint},
             nullptr, trace, RetransmitToPath(txn));
    // A local nack fails the write inline; the rest need not be sent.
    if (pending_writes_.count(op_id) == 0) return;
  }
  pending_writes_[op_id].timeout_event = env_.executor->ScheduleAfter(
      2 * config_.delta + config_.lock_timeout, [this, op_id]() {
        auto it2 = pending_writes_.find(op_id);
        if (it2 == pending_writes_.end()) return;
        PendingWrite pw2 = std::move(it2->second);
        pending_writes_.erase(it2);
        ++stats_.writes_failed;
        TxnRec* r = FindTxn(pw2.txn);
        if (r != nullptr) {
          r->doomed = true;
          r->path.OpCompleted(env_.clock->Now(), pw2.max_lock_wait_us);
        }
        InternalAbort(pw2.txn);
        if (!Crashed() &&
            NoResponseSuspectsView(pw2.issued_vp, pw2.awaiting)) {
          CreateNewVp();
        }
        pw2.cb(Status::Timeout("write-all incomplete"));
      });
}

bool VpNode::NoResponseSuspectsView(
    VpId issued_vp, const std::set<ProcessorId>& silent) const {
  if (!(issued_vp == cur_id_)) return false;
  for (ProcessorId q : silent) {
    if (lview_.count(q) > 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// NodeBase hooks (participant side; Fig. 12).
// ---------------------------------------------------------------------------

Status VpNode::ValidateAccess(const TxnId& txn, VpId v, ObjectId obj,
                              const std::set<ProcessorId>& footprint,
                              bool is_recovery, bool is_write) {
  (void)txn;
  (void)is_write;
  if (!assigned_) return Status::Aborted("wrong-vp");
  if (v == cur_id_) return Status::Ok();
  if (config_.weakened_r4 && !is_recovery) {
    // §6 conditions (1) and (2), evaluated against the server's view.
    bool contained = CurrentPlacement().Accessible(obj, lview_);
    for (ProcessorId p : footprint) {
      if (lview_.count(p) == 0) {
        contained = false;
        break;
      }
    }
    if (contained) return Status::Ok();
  }
  return Status::Aborted("wrong-vp");
}

bool VpNode::MaybeDefer(const net::Message& m) {
  // Park accesses addressed to the partition we are about to commit to.
  VpId v;
  ObjectId obj = kInvalidObject;
  bool transactional = false;
  EpochId msg_epoch = epoch_;
  if (const auto* r = std::get_if<msg::PhysRead>(&m.body)) {
    v = r->v;
    obj = r->obj;
    transactional = true;
    msg_epoch = r->epoch;
  } else if (const auto* w = std::get_if<msg::PhysWrite>(&m.body)) {
    v = w->v;
    obj = w->obj;
    transactional = true;
    msg_epoch = w->epoch;
  } else if (const auto* rr = std::get_if<msg::RecoveryRead>(&m.body)) {
    v = rr->v;  // Parked whole, if at all.
  } else {
    return false;
  }
  if (!assigned_ && v == max_id_) {
    deferred_.push_back(m);
    return true;
  }
  // An access stamped with a FUTURE epoch comes from a coordinator whose
  // commit beat ours here: our VpCommit for that epoch is in flight (or its
  // loss will surface as a monitor timeout). Park rather than nack — the
  // reprocess on join serves it, and if the epoch never arrives the
  // coordinator's own timeout cleans up.
  if (transactional && config_.epoch_gating && epoch_ < msg_epoch) {
    deferred_.push_back(m);
    return true;
  }
  // Fig. 12's "wait until l ∉ locked": transactional accesses to a copy
  // still being initialized wait; recovery reads are served from the
  // committed version (the max-date aggregation makes that sound). The
  // weakened-R4 path accepts accesses tagged with older vp-ids, so those
  // must wait on the initialization lock too.
  if (transactional && assigned_ && locked_.count(obj) > 0 &&
      (v == cur_id_ || config_.weakened_r4)) {
    deferred_.push_back(m);
    return true;
  }
  return false;
}

void VpNode::ReprocessDeferred() {
  std::vector<net::Message> msgs = std::move(deferred_);
  deferred_.clear();
  for (const net::Message& m : msgs) {
    // Re-run the normal pipeline: the handler's own MaybeDefer parks the
    // message again if its precondition still holds (e.g. a different
    // object still locked). Every message the replay sends — an inline
    // local request included — meets the same check afresh.
    if (Crashed()) {
      MaybeDefer(m);
      continue;
    }
    Dispatch(m);
  }
  if (!assigned_ || parked_ops_.empty()) return;
  // Joined: the parked ops run in this vp, which binds their transactions.
  std::vector<std::function<void()>> ops = std::move(parked_ops_);
  parked_ops_.clear();
  for (auto& op : ops) op();
}

Status VpNode::ValidateCommit(const TxnRec& rec) {
  if (!rec.vp_set) return Status::Ok();  // Pure begin/commit, no ops.
  if (!assigned_) return Status::Aborted("R4: not assigned at commit");
  if (config_.epoch_gating && rec.epoch != epoch_) {
    // Drain rule, commit-time edge: the epoch moved between this
    // transaction's operations and its commit request.
    return Status::Aborted("epoch changed before commit");
  }
  if (config_.weakened_r4) return Status::Ok();
  if (!(rec.vp == cur_id_)) {
    return Status::Aborted("R4: partition changed before commit");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Message dispatch.
// ---------------------------------------------------------------------------

bool VpNode::HandleProtocolMessage(const net::Message& m) {
  const net::Body& b = m.body;
  if (const auto* nv = std::get_if<msg::NewVp>(&b)) {
    HandleNewVp(*nv);
  } else if (const auto* ok = std::get_if<msg::VpOk>(&b)) {
    HandleVpOk(*ok);
  } else if (const auto* commit = std::get_if<msg::VpCommit>(&b)) {
    HandleVpCommit(m, *commit);
  } else if (const auto* probe = std::get_if<msg::Probe>(&b)) {
    HandleProbe(*probe);
  } else if (const auto* pa = std::get_if<msg::ProbeAck>(&b)) {
    HandleProbeAck(*pa);
  } else if (const auto* rr = std::get_if<msg::PhysReadReply>(&b)) {
    const msg::PhysReadReply& body = *rr;
    auto it = pending_reads_.find(body.op_id);
    if (it != pending_reads_.end()) {
      PendingRead pr = std::move(it->second);
      pending_reads_.erase(it);
      env_.executor->Cancel(pr.timeout_event);
      TxnRec* rec = FindTxn(pr.txn);
      if (rec == nullptr || rec->st != cc::TxnOutcome::kActive) {
        // Transaction is gone (aborted); nothing to deliver.
        pr.cb(Status::Aborted("transaction aborted"));
        return true;
      }
      if (body.ok) {
        ++stats_.reads_ok;
        rec->participants.insert(m.src);
        const runtime::TimePoint now = env_.clock->Now();
        rec->path.OpCompleted(now, body.lock_wait_us);
        env_.recorder->TxnRead(pr.txn, pr.obj, body.value, body.date, now);
        ctr_phys_reads_completed_->Increment();
        hist_phys_read_us_->Observe(
            static_cast<uint64_t>(now - pr.issued_at));
        tracer_->Complete(pr.trace, id_, pr.issued_at,
                          static_cast<uint64_t>(now - pr.issued_at),
                          "phys.read", "phys",
                          {{"obj", std::to_string(pr.obj)},
                           {"holder", std::to_string(m.src)}});
        pr.cb(ReadResult{body.value, body.date, m.src});
      } else if (config_.read_retry && !pr.fallbacks.empty() &&
                 body.error != "wrong-vp") {
        // R2's optional retry at the next-nearest copy.
        pr.target = pr.fallbacks.front();
        pr.fallbacks.erase(pr.fallbacks.begin());
        ++stats_.phys_reads_sent;
        SendRead(next_op_id_++, std::move(pr), rec->participants);
      } else {
        ++stats_.reads_failed;
        rec->doomed = true;
        rec->path.OpCompleted(env_.clock->Now(), body.lock_wait_us);
        InternalAbort(pr.txn);
        pr.cb(Status::Aborted("physical read failed: " + body.error));
      }
      return true;
    }
  } else if (const auto* wr = std::get_if<msg::PhysWriteReply>(&b)) {
    const msg::PhysWriteReply& body = *wr;
    auto it = pending_writes_.find(body.op_id);
    if (it == pending_writes_.end()) return true;
    PendingWrite& pw = it->second;
    TxnRec* rec = FindTxn(pw.txn);
    if (rec == nullptr || rec->st != cc::TxnOutcome::kActive) {
      env_.executor->Cancel(pw.timeout_event);
      PendingWrite done = std::move(it->second);
      pending_writes_.erase(it);
      done.cb(Status::Aborted("transaction aborted"));
      return true;
    }
    rec->participants.insert(m.src);
    if (pw.max_lock_wait_us < body.lock_wait_us) {
      pw.max_lock_wait_us = body.lock_wait_us;
    }
    if (!body.ok) {
      env_.executor->Cancel(pw.timeout_event);
      PendingWrite done = std::move(it->second);
      pending_writes_.erase(it);
      ++stats_.writes_failed;
      rec->doomed = true;
      rec->path.OpCompleted(env_.clock->Now(), done.max_lock_wait_us);
      InternalAbort(done.txn);
      done.cb(Status::Aborted("physical write failed: " + body.error));
      return true;
    }
    pw.awaiting.erase(m.src);
    if (pw.awaiting.empty()) {
      env_.executor->Cancel(pw.timeout_event);
      PendingWrite done = std::move(it->second);
      pending_writes_.erase(it);
      ++stats_.writes_ok;
      const runtime::TimePoint now = env_.clock->Now();
      rec->path.OpCompleted(now, done.max_lock_wait_us);
      env_.recorder->TxnWrite(done.txn, done.obj, done.value, now);
      ctr_phys_writes_completed_->Increment();
      hist_phys_write_us_->Observe(
          static_cast<uint64_t>(now - done.issued_at));
      tracer_->Complete(done.trace, id_, done.issued_at,
                        static_cast<uint64_t>(now - done.issued_at),
                        "phys.write", "phys",
                        {{"obj", std::to_string(done.obj)}});
      done.cb(Status::Ok());
    }
  } else if (const auto* rr = std::get_if<msg::RecoveryReply>(&b)) {
    HandleRecoveryReply(m, *rr);
  } else {
    return false;
  }
  return true;
}

}  // namespace vp::core
