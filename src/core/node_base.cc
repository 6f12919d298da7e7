#include "core/node_base.h"

#include <memory>
#include <utility>

#include "common/logging.h"

namespace vp::core {

NodeBase::NodeBase(ProcessorId id, NodeEnv env,
                   runtime::Duration lock_timeout,
                   runtime::Duration outcome_retry_period)
    : id_(id),
      env_(env),
      lock_timeout_(lock_timeout),
      outcome_retry_period_(outcome_retry_period) {
  VP_CHECK(env_.clock && env_.executor && env_.transport &&
           env_.placement && env_.store && env_.locks && env_.recorder);
  metrics_ = env_.metrics != nullptr ? env_.metrics
                                     : obs::MetricsRegistry::Default();
  tracer_ = env_.tracer != nullptr ? env_.tracer : obs::Tracer::Disabled();
  fdr_ = env_.fdr != nullptr ? env_.fdr : obs::FlightRecorder::Disabled();
  path_hists_ = obs::PathHistograms::Create(metrics_);
  ctr_phys_reads_served_ = metrics_->counter("node.phys_reads_served");
  ctr_phys_writes_served_ = metrics_->counter("node.phys_writes_served");
  ctr_phys_nacks_ = metrics_->counter("node.phys_nacks");
  ctr_acks_piggybacked_ = metrics_->counter("node.outcome_acks_piggybacked");
  ctr_ack_flushes_ = metrics_->counter("node.outcome_ack_flushes");
  ctr_txns_aborted_ = metrics_->counter("node.txns_aborted");
  ctr_reads_attempted_ = metrics_->counter("node.reads_attempted");
  ctr_phys_reads_sent_ = metrics_->counter("phys.reads_sent");
  ctr_phys_writes_sent_ = metrics_->counter("phys.writes_sent");
  owed_acks_.resize(env_.transport->size());
  hist_txn_us_ = metrics_->histogram("txn.duration_us");
  hist_outcome_ack_us_ = metrics_->histogram("txn.outcome_ack_us");
  if (env_.stable != nullptr) {
    // Salt all local sequence counters with the incarnation so a rebooted
    // processor never reissues a transaction or op id from a previous life
    // (the recorder rejects duplicate txn ids, and stale op-id matches
    // would corrupt pending-op bookkeeping).
    const uint64_t inc = env_.stable->incarnation();
    next_txn_seq_ = 1 + (inc << 40);
    synth_seq_ = 1 + (inc << 40);
    next_op_id_ = 1 + (inc << 40);
  }
  if (env_.reliable.enabled) {
    const uint32_t inc = env_.stable != nullptr
                             ? static_cast<uint32_t>(env_.stable->incarnation())
                             : 0;
    rel_ = std::make_unique<net::ReliableChannel>(
        env_.clock, env_.executor, env_.transport, id_, inc, env_.reliable,
        metrics_, tracer_, fdr_);
    rel_->set_stamp([this](net::Message& m) { CarryOwedAcks(m); });
  }
}

void NodeBase::Start() {
  env_.transport->Register(id_, this);
  if (env_.stable != nullptr && env_.stable->amnesia() &&
      env_.stable->incarnation() > 0) {
    ReplayWal();
  }
  ScheduleInDoubtSweep();
}

void NodeBase::Retire() {
  retired_ = true;
  // Orphan, not Shutdown: pending reliable sends — notably the abort
  // broadcasts issued while failing in-flight operations just above in
  // derived Retire()s — keep retransmitting until their delivery deadline,
  // so a quickly-revived processor still gets them out. Only the timeout
  // hooks are cleared (they capture this retired object).
  if (rel_ != nullptr) rel_->Orphan();
  for (auto& [txn, rec] : txns_) {
    if (rec.retry_event != runtime::kInvalidTask) {
      env_.executor->Cancel(rec.retry_event);
      rec.retry_event = runtime::kInvalidTask;
    }
  }
  // Volatile lock state dies with the crash; cancel queued waiters'
  // timeouts so their closures never fire against the retired object.
  env_.locks->Shutdown();
}

void NodeBase::ReplayWal() {
  storage::StableStore* stable = env_.stable;
  // Forward pass: collect prepares still unresolved at crash time, restore
  // learned outcomes, and restore coordinator commit decisions (aborts are
  // presumed and were never logged).
  struct PendingWrite {
    Value value;
    VpId date;
    EpochId epoch;
    uint64_t op_id;
  };
  std::map<TxnId, std::map<ObjectId, PendingWrite>> pending;
  // BeginReplay salvages the log first (checksummed integrity mode): an
  // invalid tail is truncated — those frames never completed their fsync,
  // so under presumed abort nothing externally visible depended on them —
  // and mid-log rot quarantines the device.
  stable->BeginReplay();
  if (stable->quarantined()) {
    // A record in the middle of the log was rotted away. Whatever it was —
    // a prepare whose in-doubt resolution would have applied a write, an
    // outcome already applied to a copy — the copies derived from this log
    // can no longer be trusted, so every local copy restarts at kEpochDate
    // and the copy-update path rebuilds it from live copies before it
    // serves reads or votes. Valid records still replay below: restoring
    // decisions and re-staging intact prepares is sound regardless.
    for (ObjectId obj : env_.store->LocalObjects()) {
      env_.store->QuarantineCopy(obj);
    }
  }
  for (const storage::WalFrame& frame : stable->wal().frames()) {
    const storage::WalRecord& rec = frame.rec;
    stable->CountReplayedRecord();
    switch (rec.type) {
      case storage::WalRecord::Type::kPrepare:
        // A checksum-less device replays torn garbage verbatim; a frame
        // whose txn id is not even well formed has no coordinator to
        // resolve against, so it cannot be re-staged.
        if (!rec.txn.valid()) break;
        pending[rec.txn][rec.obj] = PendingWrite{rec.value, rec.date,
                                                 rec.epoch, rec.op_id};
        break;
      case storage::WalRecord::Type::kOutcome:
        remote_outcomes_[rec.txn] = rec.committed;
        pending.erase(rec.txn);
        break;
      case storage::WalRecord::Type::kDecision:
        decisions_.Decide(rec.txn, /*committed=*/true);
        break;
    }
  }
  // Re-stage the in-doubt writes under fresh exclusive locks (the table is
  // empty, so every grant is synchronous). Holding the X lock again is what
  // makes late resolution safe: recovery reads of these copies block until
  // the transaction resolves (§6 condition (3)). last_activity = 0 ages the
  // record out instantly, so the first in-doubt sweep re-contacts the
  // coordinator (or the restored local decision log).
  for (auto& [txn, writes] : pending) {
    RemoteTxn& rt = remote_txns_[txn];
    rt.coordinator = txn.coordinator;
    rt.last_activity = 0;
    for (auto& [obj, w] : writes) {
      if (!env_.store->HasCopy(obj)) continue;
      bool granted = false;
      env_.locks->Acquire(txn, obj, cc::LockMode::kExclusive, lock_timeout_,
                          [&granted](Status s) { granted = s.ok(); });
      VP_CHECK_MSG(granted, "replay lock must grant on an empty table");
      Status st = env_.store->StageWrite(txn, obj, w.value, w.date, w.epoch,
                                         w.op_id);
      VP_CHECK(st.ok());
      rt.staged.insert(obj);
    }
  }
  stable->EndReplay();
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

NodeBase::TxnRec* NodeBase::FindTxn(TxnId txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

void NodeBase::Begin(TxnId txn) {
  VP_CHECK_MSG(txns_.count(txn) == 0, "duplicate transaction id");
  TxnRec& rec = txns_[txn];
  rec.trace = tracer_->NewTraceId();
  rec.epoch = CurrentEpoch();
  rec.begun_at = env_.clock->Now();
  decisions_.MarkActive(txn);
  env_.recorder->TxnBegin(txn, id_, rec.begun_at);
  tracer_->AsyncBegin(rec.trace, id_, rec.begun_at, "txn", "txn",
                      {{"txn", txn.ToString()}});
  Fdr(obs::FdrKind::kTxnBegin, txn, rec.epoch);
}

void NodeBase::Abort(TxnId txn) { InternalAbort(txn); }

void NodeBase::InternalAbort(TxnId txn) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr || rec->st != cc::TxnOutcome::kActive) return;
  Decide(txn, rec, /*committed=*/false);
}

void NodeBase::Commit(TxnId txn, CommitCallback cb) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr) {
    cb(Status::NotFound("unknown transaction"));
    return;
  }
  if (rec->st != cc::TxnOutcome::kActive) {
    cb(Status::Aborted("transaction already decided"));
    return;
  }
  if (rec->doomed) {
    InternalAbort(txn);
    cb(Status::Aborted("a prior operation failed"));
    return;
  }
  Status admit = ValidateCommit(*rec);
  if (!admit.ok()) {
    InternalAbort(txn);
    cb(admit);
    return;
  }
  Decide(txn, rec, /*committed=*/true);
  cb(Status::Ok());
}

void NodeBase::Decide(TxnId txn, TxnRec* rec, bool committed) {
  rec->st = committed ? cc::TxnOutcome::kCommitted : cc::TxnOutcome::kAborted;
  decisions_.Decide(txn, committed);
  if (committed && rec->wrote && env_.stable != nullptr) {
    // Commit decisions must survive a coordinator crash: participants in
    // doubt will query us, and presumed-abort turns a forgotten commit
    // into a lost write. Aborts need no record, and neither does a
    // read-only commit: no participant holds a prepare for it, so none can
    // be in doubt, and presumed abort merely releases its read locks.
    const runtime::TimePoint fsync_start = env_.clock->Now();
    env_.stable->AppendWal(storage::WalRecord{
        storage::WalRecord::Type::kDecision, txn, rec->epoch});
    rec->path.AddFsync(
        static_cast<uint64_t>(env_.clock->Now() - fsync_start));
  }
  rec->decided_at = env_.clock->Now();
  if (committed) {
    env_.recorder->TxnCommit(txn, rec->decided_at);
  } else {
    env_.recorder->TxnAbort(txn, rec->decided_at);
    ctr_txns_aborted_->Increment();
  }
  const uint64_t total_us =
      static_cast<uint64_t>(rec->decided_at - rec->begun_at);
  hist_txn_us_->Observe(total_us);
  Fdr(obs::FdrKind::kTxnDecide, txn, committed ? 1 : 0, total_us);
  obs::Tracer::Args end_args = {{"outcome", committed ? "commit" : "abort"}};
  if (committed) {
    // Critical-path attribution: committed transactions only — an abort's
    // path is cut short wherever the failure happened and would pollute
    // the latency decomposition.
    const obs::TxnPathTracker::Breakdown b = rec->path.Finalize(total_us);
    path_hists_.Observe(b);
    end_args.emplace_back("path.lock_wait_us",
                          std::to_string(b.lock_wait_us));
    end_args.emplace_back("path.quorum_rtt_us",
                          std::to_string(b.quorum_rtt_us));
    end_args.emplace_back("path.fsync_us", std::to_string(b.fsync_us));
    end_args.emplace_back("path.retransmit_stall_us",
                          std::to_string(b.retransmit_stall_us));
    end_args.emplace_back("path.queueing_us",
                          std::to_string(b.queueing_us));
  }
  tracer_->AsyncEnd(rec->trace, id_, rec->decided_at, "txn", "txn",
                    std::move(end_args));
  rec->outcome_unacked = rec->participants;
  if (!rec->outcome_unacked.empty()) {
    // The 2PC outcome phase: broadcast until the last participant acks.
    tracer_->AsyncBegin(rec->trace, id_, rec->decided_at, "2pc.outcome",
                        "txn", {{"participants",
                                 std::to_string(rec->participants.size())}});
  }
  BroadcastOutcome(txn, /*retry=*/false);
}

void NodeBase::BroadcastOutcome(TxnId txn, bool retry) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr || rec->outcome_unacked.empty()) return;
  const bool committed = rec->st == cc::TxnOutcome::kCommitted;
  const uint64_t trace = rec->trace;
  // Iterate a copy: the local participant applies and acks inline, erasing
  // itself from the set, and the waiters its lock release wakes may run
  // client code that begins transactions (so `rec` is re-found below).
  const std::set<ProcessorId> unacked = rec->outcome_unacked;
  for (ProcessorId p : unacked) {
    if (retry && p != id_) {
      Send(p, msg::TxnOutcomeMsg{txn, committed}, trace);
    } else {
      SendPhys(p, msg::TxnOutcomeMsg{txn, committed}, /*on_timeout=*/nullptr,
               trace);
    }
  }
  rec = FindTxn(txn);
  if (rec != nullptr && !rec->outcome_unacked.empty()) {
    ScheduleOutcomeRetry(txn);
  }
}

void NodeBase::ScheduleOutcomeRetry(TxnId txn) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr) return;
  if (rec->retry_event != runtime::kInvalidTask) {
    env_.executor->Cancel(rec->retry_event);
  }
  rec->retry_event =
      env_.executor->ScheduleAfter(outcome_retry_period_, [this, txn]() {
        if (retired_) return;
        TxnRec* r = FindTxn(txn);
        if (r == nullptr) return;
        r->retry_event = runtime::kInvalidTask;
        if (Crashed()) {
          // Keep the retry loop alive; it resumes doing useful work when
          // the processor recovers (state is durable).
          ScheduleOutcomeRetry(txn);
          return;
        }
        if (!r->outcome_unacked.empty()) BroadcastOutcome(txn, /*retry=*/true);
      });
}

// ---------------------------------------------------------------------------
// Participant side.
// ---------------------------------------------------------------------------

Status NodeBase::ValidateAccess(const TxnId&, VpId, ObjectId,
                                const std::set<ProcessorId>&, bool, bool) {
  return Status::Ok();
}

bool NodeBase::MaybeDefer(const net::Message&) { return false; }

Status NodeBase::ValidateCommit(const TxnRec&) { return Status::Ok(); }

void NodeBase::NackRead(ProcessorId to, uint64_t op_id, std::string error,
                        uint64_t trace) {
  ctr_phys_nacks_->Increment();
  SendPhys(to,
           msg::PhysReadReply{op_id, false, std::move(error), Value(),
                              kEpochDate},
           nullptr, trace);
}

void NodeBase::NackWrite(ProcessorId to, uint64_t op_id, std::string error,
                         uint64_t trace) {
  ctr_phys_nacks_->Increment();
  SendPhys(to, msg::PhysWriteReply{op_id, false, std::move(error)}, nullptr,
           trace);
}

void NodeBase::HandlePhysRead(const net::Message& m,
                              const msg::PhysRead& req) {
  if (MaybeDefer(m)) return;
  const ProcessorId reply_to = m.src;
  const uint64_t trace = m.trace;
  if (remote_outcomes_.count(req.txn) > 0) {
    // Duplicate/reordered request for an already-decided transaction.
    NackRead(reply_to, req.op_id, "stale-txn", trace);
    return;
  }
  if (EpochGated() && req.epoch != CurrentEpoch()) {
    // Deterministic cross-epoch rejection: a transactional access from an
    // epoch this replica is not serving must never touch its copies.
    // (R5's RecoveryRead is exempt — it is how a new epoch's copies are
    // brought current — and 2PC outcome traffic never passes through here,
    // so in-flight transactions still resolve across the boundary.)
    NackRead(reply_to, req.op_id,
             req.epoch < CurrentEpoch() ? "stale-epoch" : "future-epoch",
             trace);
    return;
  }
  Status admit = ValidateAccess(req.txn, req.v, req.obj, req.footprint,
                                /*is_recovery=*/false, /*is_write=*/false);
  if (!admit.ok()) {
    NackRead(reply_to, req.op_id, std::string(admit.message()), trace);
    return;
  }
  if (!env_.store->HasCopy(req.obj)) {
    NackRead(reply_to, req.op_id, "no-copy", trace);
    return;
  }
  const ObjectId obj = req.obj;
  const uint64_t op_id = req.op_id;
  const TxnId txn = req.txn;
  const cc::LockMode mode =
      req.for_update ? cc::LockMode::kExclusive : cc::LockMode::kShared;
  const runtime::TimePoint wait_start = env_.clock->Now();
  env_.locks->Acquire(
      txn, obj, mode, lock_timeout_,
      [this, obj, op_id, txn, reply_to, trace, wait_start](Status s) {
        if (!s.ok()) {
          NackRead(reply_to, op_id, "lock-timeout", trace);
          return;
        }
        if (remote_outcomes_.count(txn) > 0) {
          // The outcome landed while this request waited for the lock.
          env_.locks->ReleaseAll(txn);
          NackRead(reply_to, op_id, "stale-txn", trace);
          return;
        }
        auto version = env_.store->Read(obj);
        VP_CHECK(version.ok());
        // Read-your-own-writes: a transaction re-reading a copy it has
        // staged a write on must see that staged value.
        if (auto staged = env_.store->StagedValue(txn, obj);
            staged.has_value()) {
          version = *staged;
        }
        RemoteTxn& rt = remote_txns_[txn];
        rt.coordinator = txn.coordinator;
        rt.last_activity = env_.clock->Now();
        env_.recorder->PhysicalOp(id_, txn, obj, /*is_write=*/false,
                                  env_.clock->Now());
        ctr_phys_reads_served_->Increment();
        Fdr(obs::FdrKind::kPhysRead, txn, obj,
            obs::FlightRecorder::HashValue(version.value().value));
        SendPhys(reply_to,
                 msg::PhysReadReply{op_id, true, "", version.value().value,
                                    version.value().date,
                                    static_cast<uint64_t>(
                                        env_.clock->Now() - wait_start)},
                 nullptr, trace);
      });
}

void NodeBase::HandlePhysWrite(const net::Message& m,
                               const msg::PhysWrite& req) {
  if (MaybeDefer(m)) return;
  const ProcessorId reply_to = m.src;
  const uint64_t trace = m.trace;
  if (remote_outcomes_.count(req.txn) > 0) {
    // Duplicate/reordered request for an already-decided transaction.
    NackWrite(reply_to, req.op_id, "stale-txn", trace);
    return;
  }
  if (EpochGated() && req.epoch != CurrentEpoch()) {
    NackWrite(reply_to, req.op_id,
              req.epoch < CurrentEpoch() ? "stale-epoch" : "future-epoch",
              trace);
    return;
  }
  Status admit = ValidateAccess(req.txn, req.v, req.obj, req.footprint,
                                /*is_recovery=*/false, /*is_write=*/true);
  if (!admit.ok()) {
    NackWrite(reply_to, req.op_id, std::string(admit.message()), trace);
    return;
  }
  if (!env_.store->HasCopy(req.obj)) {
    NackWrite(reply_to, req.op_id, "no-copy", trace);
    return;
  }
  const TxnId txn = req.txn;
  const ObjectId obj = req.obj;
  const uint64_t op_id = req.op_id;
  const Value value = req.value;
  const VpId date = req.v;
  const EpochId epoch = req.epoch;
  const runtime::TimePoint wait_start = env_.clock->Now();
  env_.locks->Acquire(
      txn, obj, cc::LockMode::kExclusive, lock_timeout_,
      [this, txn, obj, op_id, value, date, epoch, reply_to, trace,
       wait_start](Status s) {
        if (!s.ok()) {
          NackWrite(reply_to, op_id, "lock-timeout", trace);
          return;
        }
        if (remote_outcomes_.count(txn) > 0) {
          // The outcome landed while this request waited for the lock.
          env_.locks->ReleaseAll(txn);
          NackWrite(reply_to, op_id, "stale-txn", trace);
          return;
        }
        // A late duplicate of an older write of this transaction is refused
        // here (stale-op); the coordinator no longer awaits its reply.
        Status st =
            env_.store->StageWrite(txn, obj, value, date, epoch, op_id);
        if (!st.ok()) {
          NackWrite(reply_to, op_id, std::string(st.message()), trace);
          return;
        }
        RemoteTxn& rt = remote_txns_[txn];
        rt.coordinator = txn.coordinator;
        rt.staged.insert(obj);
        rt.last_activity = env_.clock->Now();
        env_.recorder->PhysicalOp(id_, txn, obj, /*is_write=*/true,
                                  env_.clock->Now());
        ctr_phys_writes_served_->Increment();
        Fdr(obs::FdrKind::kPhysWrite, txn, obj,
            obs::FlightRecorder::HashValue(value));
        SendPhys(reply_to,
                 msg::PhysWriteReply{op_id, true, "",
                                     static_cast<uint64_t>(
                                         env_.clock->Now() - wait_start)},
                 nullptr, trace);
      });
}

void NodeBase::HandleRecoveryRead(const net::Message& m,
                                  const msg::RecoveryRead& req) {
  if (MaybeDefer(m)) return;
  const ProcessorId reply_to = m.src;
  const uint64_t trace = m.trace;
  // `open` while this dispatch runs: answers land in the shared reply.
  // Once it closes, an answer goes alone.
  struct Batch {
    msg::RecoveryReply reply;
    bool open = true;
  };
  auto batch = std::make_shared<Batch>();
  auto answer = [this, batch, reply_to, trace](msg::RecoveryReply::Item a) {
    if (batch->open) {
      batch->reply.items.push_back(std::move(a));
    } else {
      SendPhys(reply_to, msg::RecoveryReply{{std::move(a)}}, nullptr, trace);
    }
  };
  for (const msg::RecoveryRead::Item& item : req.items) {
    Status admit = ValidateAccess(TxnId{}, req.v, item.obj, {},
                                  /*is_recovery=*/true, /*is_write=*/false);
    if (!admit.ok() || !env_.store->HasCopy(item.obj)) {
      msg::RecoveryReply::Item nack;
      nack.op_id = item.op_id;
      nack.error = admit.ok() ? "no-copy" : std::string(admit.message());
      answer(std::move(nack));
      continue;
    }
    // The lock only waits out a staged write (§6 condition (3)): the item
    // reads the committed version and releases at once.
    const TxnId locker = SyntheticTxnId();
    env_.locks->Acquire(
        locker, item.obj, cc::LockMode::kShared, lock_timeout_,
        [this, locker, item, answer](Status s) {
          msg::RecoveryReply::Item a;
          a.op_id = item.op_id;
          a.ok = s.ok();
          if (!s.ok()) {
            a.error = "lock-timeout";
            answer(std::move(a));
            return;
          }
          auto version = env_.store->Read(item.obj);
          VP_CHECK(version.ok());
          a.date = version.value().date;
          switch (item.want) {
            case msg::RecoveryWant::kValue:
              a.value = version.value().value;
              ctr_phys_reads_served_->Increment();
              // No transaction (the online probes must not key ordering
              // rules on the synthetic lock holder), but the served value
              // IS hashed: a rotted image served verbatim through
              // copy-update is exactly what the durable-read probe is for.
              Fdr(obs::FdrKind::kPhysRead, TxnId{}, item.obj,
                  obs::FlightRecorder::HashValue(a.value));
              break;
            case msg::RecoveryWant::kLog:
              for (const storage::LogRecord& r :
                   env_.store->LogSince(item.obj, item.after)) {
                a.records.emplace_back(r.date, r.value, r.txn);
              }
              break;
            case msg::RecoveryWant::kDate:
              break;
          }
          env_.locks->ReleaseAll(locker);
          answer(std::move(a));
        });
  }
  batch->open = false;
  if (!batch->reply.items.empty()) {
    SendPhys(reply_to, std::move(batch->reply), nullptr, trace);
  }
}

void NodeBase::ApplyOutcomeLocally(TxnId txn, bool committed) {
  const bool first_application = remote_outcomes_.count(txn) == 0;
  if (env_.stable != nullptr && first_application) {
    // Participant outcome memory (the stale-txn guard) must survive a
    // crash, and resolved prepares must not be re-staged on replay.
    env_.stable->AppendWal(storage::WalRecord{
        storage::WalRecord::Type::kOutcome, txn, CurrentEpoch(),
        kInvalidObject, Value(), kEpochDate, committed});
  }
  if (first_application) {
    Fdr(obs::FdrKind::kOutcomeApplied, txn, committed ? 1 : 0);
  }
  remote_outcomes_[txn] = committed;
  auto it = remote_txns_.find(txn);
  if (it != remote_txns_.end()) {
    for (ObjectId obj : it->second.staged) {
      if (committed) {
        Status s = env_.store->CommitStage(txn, obj);
        VP_CHECK(s.ok());
      } else {
        env_.store->DiscardStage(txn, obj);
      }
    }
    remote_txns_.erase(it);
  }
  env_.locks->ReleaseAll(txn);
}

void NodeBase::HandleTxnOutcome(const net::Message& m,
                                const msg::TxnOutcomeMsg& body) {
  if (m.src == id_) {
    ApplyOutcomeLocally(body.txn, body.committed);
    HandleTxnOutcomeAck(body.txn, id_);
    return;
  }
  // Owed before the outcome applies, so that the replies its lock release
  // unblocks (typically the coordinator's next write) already carry it.
  OweOutcomeAck(m.src, body.txn);
  ApplyOutcomeLocally(body.txn, body.committed);
}

// The ack only lets the coordinator stop retrying the outcome, so it need
// not travel at once: it waits for the next message to the coordinator (a
// reply to its next physical operation, usually) and goes alone only if
// none comes within AckFlushDelay(). A lost carrier, or a crash while
// acks are owed, costs one outcome retry, which the participant acks again.
void NodeBase::OweOutcomeAck(ProcessorId coordinator, TxnId txn) {
  OwedAcks& owed = owed_acks_[coordinator];
  if (owed.txns.empty()) owed.since = env_.clock->Now();
  owed.txns.push_back(txn);
  if (!owed.flush_armed) ArmAckFlush(coordinator, AckFlushDelay());
}

void NodeBase::CarryOwedAcks(net::Message& m) {
  OwedAcks& owed = owed_acks_[m.dst];
  if (owed.txns.empty()) return;
  if (!std::holds_alternative<msg::TxnOutcomeAck>(m.body)) {
    ctr_acks_piggybacked_->Add(owed.txns.size());
  }
  m.outcome_acks.insert(m.outcome_acks.end(), owed.txns.begin(),
                        owed.txns.end());
  owed.txns.clear();
}

void NodeBase::ArmAckFlush(ProcessorId coordinator, runtime::Duration delay) {
  owed_acks_[coordinator].flush_armed = true;
  env_.executor->ScheduleAfter(
      delay, [this, coordinator]() { OnAckFlush(coordinator); });
}

void NodeBase::OnAckFlush(ProcessorId coordinator) {
  if (retired_) return;
  OwedAcks& owed = owed_acks_[coordinator];
  owed.flush_armed = false;
  if (owed.txns.empty()) return;
  if (Crashed()) {
    // Lost with the crash, like an ack in flight: the outcome retry asks
    // again after recovery.
    owed.txns.clear();
    return;
  }
  // One timer per link: acks owed after it was armed wait out their own
  // delay on a re-arm rather than arming timers of their own.
  const runtime::TimePoint due = owed.since + AckFlushDelay();
  const runtime::TimePoint now = env_.clock->Now();
  if (now < due) {
    ArmAckFlush(coordinator, due - now);
    return;
  }
  ctr_ack_flushes_->Increment();
  Send(coordinator, msg::TxnOutcomeAck{});
}

void NodeBase::HandleTxnOutcomeAck(TxnId txn, ProcessorId from) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr) return;
  const bool had_unacked = !rec->outcome_unacked.empty();
  rec->outcome_unacked.erase(from);
  if (rec->outcome_unacked.empty() && had_unacked) {
    const runtime::TimePoint now = env_.clock->Now();
    hist_outcome_ack_us_->Observe(
        static_cast<uint64_t>(now - rec->decided_at));
    tracer_->AsyncEnd(rec->trace, id_, now, "2pc.outcome", "txn");
  }
  if (rec->outcome_unacked.empty() &&
      rec->retry_event != runtime::kInvalidTask) {
    env_.executor->Cancel(rec->retry_event);
    rec->retry_event = runtime::kInvalidTask;
  }
}

void NodeBase::HandleTxnStatusQuery(const net::Message& m,
                                    const msg::TxnStatusQuery& body) {
  SendPhys(m.src, msg::TxnStatusReply{body.txn, decisions_.Query(body.txn)},
           nullptr, m.trace);
}

void NodeBase::HandleTxnStatusReply(const msg::TxnStatusReply& body) {
  switch (body.outcome) {
    case cc::TxnOutcome::kActive:
      if (auto it = remote_txns_.find(body.txn); it != remote_txns_.end()) {
        it->second.last_activity = env_.clock->Now();
      }
      break;
    case cc::TxnOutcome::kCommitted:
      ApplyOutcomeLocally(body.txn, /*committed=*/true);
      break;
    case cc::TxnOutcome::kAborted:
      ApplyOutcomeLocally(body.txn, /*committed=*/false);
      break;
  }
}

void NodeBase::InDoubtSweep() {
  const runtime::TimePoint now = env_.clock->Now();
  const runtime::Duration patience = 4 * outcome_retry_period_;
  std::vector<std::pair<TxnId, bool>> local_resolved;
  for (const auto& [txn, rt] : remote_txns_) {
    if (now - rt.last_activity < patience) continue;
    if (txn.coordinator == id_) {
      // Self-coordinated: consult the local decision log directly. This
      // covers stages created by a deferred physical write replayed AFTER
      // the outcome was already delivered and acknowledged (the outcome
      // broadcast will not repeat for us).
      const cc::TxnOutcome outcome = decisions_.Query(txn);
      if (outcome != cc::TxnOutcome::kActive) {
        local_resolved.emplace_back(txn,
                                    outcome == cc::TxnOutcome::kCommitted);
      }
      continue;
    }
    SendPhys(rt.coordinator, msg::TxnStatusQuery{txn, id_});
  }
  for (const auto& [txn, committed] : local_resolved) {
    ApplyOutcomeLocally(txn, committed);
  }
}

void NodeBase::ScheduleInDoubtSweep() {
  env_.executor->ScheduleAfter(2 * outcome_retry_period_, [this]() {
    if (retired_) return;
    if (!Crashed()) InDoubtSweep();
    ScheduleInDoubtSweep();
  });
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void NodeBase::HandleMessage(const net::Message& m) {
  if (Crashed()) return;  // Defensive; the network already drops these.
  // Piggybacked outcome acks settle on receipt, whatever carries them: a
  // RelAck or a duplicate the channel consumes below, or a request that
  // MaybeDefer parks. The channel settles its own carried ack the same way.
  for (const TxnId& txn : m.outcome_acks) HandleTxnOutcomeAck(txn, m.src);
  if (rel_ != nullptr &&
      rel_->HandleMessage(
          m, [this](const net::Message& inner) { Dispatch(inner); })) {
    return;  // Reliable data or ack, consumed by the channel.
  }
  Dispatch(m);
}

void NodeBase::DeliverLocal(net::Body body, uint64_t trace) {
  if (retired_ || Crashed()) return;
  net::Message m;
  m.src = id_;
  m.dst = id_;
  m.body = std::move(body);
  m.sent_at = env_.clock->Now();
  m.trace = trace;
  Dispatch(m);
}

void NodeBase::Dispatch(const net::Message& m) {
  const net::Body& b = m.body;
  if (const auto* req = std::get_if<msg::PhysRead>(&b)) {
    HandlePhysRead(m, *req);
  } else if (const auto* w = std::get_if<msg::PhysWrite>(&b)) {
    HandlePhysWrite(m, *w);
  } else if (const auto* rr = std::get_if<msg::RecoveryRead>(&b)) {
    HandleRecoveryRead(m, *rr);
  } else if (const auto* o = std::get_if<msg::TxnOutcomeMsg>(&b)) {
    HandleTxnOutcome(m, *o);
  } else if (std::holds_alternative<msg::TxnOutcomeAck>(b)) {
    // A flush: its acks rode the header and settled in HandleMessage.
  } else if (const auto* sq = std::get_if<msg::TxnStatusQuery>(&b)) {
    HandleTxnStatusQuery(m, *sq);
  } else if (const auto* sr = std::get_if<msg::TxnStatusReply>(&b)) {
    HandleTxnStatusReply(*sr);
  } else {
    const bool handled = HandleProtocolMessage(m);
    VP_CHECK_MSG(handled, "unknown message type");
  }
}

}  // namespace vp::core
