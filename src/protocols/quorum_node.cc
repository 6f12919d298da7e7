#include "protocols/quorum_node.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace vp::protocols {

using core::msg::PhysRead;
using core::msg::PhysReadReply;
using core::msg::PhysWrite;
using core::msg::PhysWriteReply;

QuorumConfig MajorityVotingConfig() {
  QuorumConfig c;
  c.read_quorum = 0;  // majority
  c.write_quorum = 0;
  c.display_name = "majority-voting";
  return c;
}

QuorumConfig RowaConfig() {
  QuorumConfig c;
  c.read_quorum = 1;
  c.write_quorum = 0;
  c.write_all = true;
  c.display_name = "rowa";
  return c;
}

QuorumNode::QuorumNode(ProcessorId id, core::NodeEnv env, QuorumConfig config)
    : NodeBase(id, env, config.lock_timeout, config.outcome_retry_period),
      config_(std::move(config)) {}

Weight QuorumNode::ReadQuorum(ObjectId obj) const {
  if (config_.read_quorum > 0) return config_.read_quorum;
  return env_.placement->TotalWeight(obj) / 2 + 1;
}

Weight QuorumNode::WriteQuorum(ObjectId obj) const {
  if (config_.write_all) return env_.placement->TotalWeight(obj);
  if (config_.write_quorum > 0) return config_.write_quorum;
  return env_.placement->TotalWeight(obj) / 2 + 1;
}

std::vector<ProcessorId> QuorumNode::SelectCopies(ObjectId obj,
                                                  Weight needed) const {
  // Cheapest-first greedy selection.
  std::vector<std::pair<double, ProcessorId>> ranked;
  for (ProcessorId q : env_.placement->CopyHolders(obj)) {
    ranked.emplace_back(q == id_ ? 0.0 : env_.transport->Cost(id_, q),
                        q);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<ProcessorId> out;
  Weight votes = 0;
  for (auto& [cost, q] : ranked) {
    if (!config_.poll_all && votes >= needed) break;
    out.push_back(q);
    votes += env_.placement->WeightOf(obj, q);
  }
  if (votes < needed) return {};
  return out;
}

Status QuorumNode::AdmitOp(TxnId txn, core::NodeBase::TxnRec** rec_out) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr) return Status::NotFound("unknown transaction");
  *rec_out = rec;
  if (rec->st != cc::TxnOutcome::kActive || rec->doomed) {
    return Status::Aborted("transaction already doomed");
  }
  return Status::Ok();
}

void QuorumNode::LogicalRead(TxnId txn, ObjectId obj, core::ReadCallback cb) {
  ++stats_.reads_attempted;
  TxnRec* rec = nullptr;
  Status admit = AdmitOp(txn, &rec);
  if (!admit.ok()) {
    ++stats_.reads_failed;
    cb(admit);
    return;
  }
  const Weight needed = ReadQuorum(obj);
  std::vector<ProcessorId> targets = SelectCopies(obj, needed);
  if (targets.empty()) {
    ++stats_.reads_unavailable;
    rec->doomed = true;
    InternalAbort(txn);
    cb(Status::Unavailable("no read quorum available"));
    return;
  }

  const uint64_t op_id = next_op_id_++;
  PendingRead pr;
  pr.txn = txn;
  pr.obj = obj;
  pr.cb = std::move(cb);
  pr.votes_needed = needed;
  pr.outstanding.insert(targets.begin(), targets.end());
  pending_reads_[op_id] = std::move(pr);
  rec->path.OpIssued(env_.clock->Now());
  // Targets are cheapest first, so the local copy (if any) is polled first
  // and replies inline; every send re-finds the op, which stops polling as
  // soon as the quorum is met or lost.
  for (ProcessorId q : targets) {
    if (TxnRec* r = FindTxn(txn); r != nullptr) r->participants.insert(q);
    ++stats_.phys_reads_sent;
    const uint64_t rel_id =
        SendPhys(q,
                 PhysRead{txn, obj, kEpochDate, /*epoch=*/0,
                          /*for_update=*/false, op_id, {}},
                 [this, op_id, q]() {
                   OnDeliveryTimeout(op_id, q, /*write_phase=*/false);
                 },
                 /*trace=*/0, RetransmitToPath(txn));
    auto live = pending_reads_.find(op_id);
    if (live == pending_reads_.end()) return;
    live->second.rel_ids[q] = rel_id;
  }
  pending_reads_[op_id].timeout_event = env_.executor->ScheduleAfter(
      config_.op_timeout + config_.lock_timeout,
      [this, op_id]() { FailRead(op_id, Status::Timeout("read quorum")); });
}

void QuorumNode::LogicalWrite(TxnId txn, ObjectId obj, Value value,
                              core::WriteCallback cb) {
  ++stats_.writes_attempted;
  TxnRec* rec = nullptr;
  Status admit = AdmitOp(txn, &rec);
  if (!admit.ok()) {
    ++stats_.writes_failed;
    cb(admit);
    return;
  }
  const Weight needed = WriteQuorum(obj);
  std::vector<ProcessorId> targets = SelectCopies(obj, needed);
  if (targets.empty()) {
    ++stats_.writes_unavailable;
    rec->doomed = true;
    InternalAbort(txn);
    cb(Status::Unavailable("no write quorum available"));
    return;
  }

  const uint64_t op_id = next_op_id_++;
  PendingWrite pw;
  pw.txn = txn;
  pw.obj = obj;
  pw.value = std::move(value);
  pw.cb = std::move(cb);
  pw.votes_needed = needed;
  pw.outstanding.insert(targets.begin(), targets.end());
  pending_writes_[op_id] = std::move(pw);
  // One attribution window spans both phases: the version poll and the
  // write are a single logical operation from the transaction's view.
  rec->path.OpIssued(env_.clock->Now());
  // Phase 1: version poll under exclusive locks. As in LogicalRead, each
  // send re-finds the op: an inline local reply can meet the poll quorum
  // (moving the op to phase 2) or fail it.
  for (ProcessorId q : targets) {
    if (TxnRec* r = FindTxn(txn); r != nullptr) r->participants.insert(q);
    ++stats_.phys_reads_sent;
    const uint64_t rel_id =
        SendPhys(q,
                 PhysRead{txn, obj, kEpochDate, /*epoch=*/0,
                          /*for_update=*/true, op_id, {}},
                 [this, op_id, q]() {
                   // Poll replies are read replies, so write_phase = false.
                   OnDeliveryTimeout(op_id, q, /*write_phase=*/false);
                 },
                 /*trace=*/0, RetransmitToPath(txn));
    auto live = pending_writes_.find(op_id);
    if (live == pending_writes_.end() || !live->second.polling) return;
    live->second.rel_ids[q] = rel_id;
  }
  pending_writes_[op_id].timeout_event = env_.executor->ScheduleAfter(
      config_.op_timeout + config_.lock_timeout, [this, op_id]() {
        FailWrite(op_id, Status::Timeout("write version poll"));
      });
}

void QuorumNode::Retire() {
  // Fail in-flight logical operations. Their abort broadcasts ride the
  // reliable channel when it is enabled: NodeBase::Retire (below) orphans
  // rather than cancels the pending sends, so the aborts keep
  // retransmitting until their delivery deadline and reach the
  // participants if the processor revives in time. Without the channel
  // (or past the deadline) the sends are dropped because the processor is
  // already marked dead, and participants fall back to the in-doubt sweep
  // against the coordinator's presumed-abort decision log.
  std::vector<uint64_t> reads;
  for (const auto& [op_id, pr] : pending_reads_) reads.push_back(op_id);
  for (uint64_t op_id : reads) {
    FailRead(op_id, Status::Aborted("processor crashed"));
  }
  std::vector<uint64_t> writes;
  for (const auto& [op_id, pw] : pending_writes_) writes.push_back(op_id);
  for (uint64_t op_id : writes) {
    FailWrite(op_id, Status::Aborted("processor crashed"));
  }
  NodeBase::Retire();
}

void QuorumNode::FailRead(uint64_t op_id, Status why) {
  auto it = pending_reads_.find(op_id);
  if (it == pending_reads_.end()) return;
  PendingRead pr = std::move(it->second);
  pending_reads_.erase(it);
  env_.executor->Cancel(pr.timeout_event);
  CancelOutstanding(pr);
  ++stats_.reads_failed;
  TxnRec* rec = FindTxn(pr.txn);
  if (rec != nullptr) {
    rec->doomed = true;
    rec->path.OpCompleted(env_.clock->Now(), pr.max_lock_wait_us);
  }
  InternalAbort(pr.txn);
  pr.cb(why);
}

void QuorumNode::FailWrite(uint64_t op_id, Status why) {
  auto it = pending_writes_.find(op_id);
  if (it == pending_writes_.end()) return;
  PendingWrite pw = std::move(it->second);
  pending_writes_.erase(it);
  env_.executor->Cancel(pw.timeout_event);
  CancelOutstanding(pw);
  ++stats_.writes_failed;
  TxnRec* rec = FindTxn(pw.txn);
  if (rec != nullptr) {
    rec->doomed = true;
    rec->path.OpCompleted(env_.clock->Now(), pw.max_lock_wait_us);
  }
  InternalAbort(pw.txn);
  pw.cb(why);
}

void QuorumNode::StartWritePhase2(uint64_t op_id) {
  auto it = pending_writes_.find(op_id);
  if (it == pending_writes_.end()) return;
  PendingWrite& pw = it->second;
  pw.polling = false;
  // A quorum of poll answers arrived; the unanswered poll requests must
  // stop retrying, or a late-served poll takes a lock (and records a read)
  // at a copy that is not part of the write — possibly after the
  // transaction has already decided.
  CancelOutstanding(pw);
  pw.rel_ids.clear();
  // New version: one past the largest seen, tie-broken by writer id.
  const VpId new_date{pw.max_date.n + 1, id_};
  pw.outstanding = pw.pollers;
  env_.executor->Cancel(pw.timeout_event);
  pw.timeout_event = env_.executor->ScheduleAfter(
      config_.op_timeout,
      [this, op_id]() { FailWrite(op_id, Status::Timeout("write phase")); });
  const TxnId txn = pw.txn;
  const ObjectId obj = pw.obj;
  const Value value = pw.value;
  const std::set<ProcessorId> targets = pw.pollers;
  for (ProcessorId q : targets) {
    ++stats_.phys_writes_sent;
    const uint64_t rel_id =
        SendPhys(q,
                 PhysWrite{txn, obj, value, new_date, /*epoch=*/0, op_id, {}},
                 [this, op_id, q]() {
                   OnDeliveryTimeout(op_id, q, /*write_phase=*/true);
                 },
                 /*trace=*/0, RetransmitToPath(txn));
    // Re-find: a local copy replies inline, and its reply can complete or
    // fail the write.
    auto live = pending_writes_.find(op_id);
    if (live == pending_writes_.end()) return;
    live->second.rel_ids[q] = rel_id;
  }
}

void QuorumNode::OnDeliveryTimeout(uint64_t op_id, ProcessorId q,
                                   bool write_phase) {
  if (retired_) return;
  // Feed a synthesized nack through the normal reply path: the pending op
  // (if still live) does its quorum-unreachable accounting exactly as if
  // `q` had nacked, and stale hooks for completed ops fall through the
  // "already completed" guards.
  if (write_phase) {
    HandleWriteReply(q, PhysWriteReply{op_id, false, "delivery-timeout"});
  } else {
    HandleReadReply(q, PhysReadReply{op_id, false, "delivery-timeout", Value(),
                                     kEpochDate});
  }
}

bool QuorumNode::HandleProtocolMessage(const net::Message& m) {
  if (const auto* body = std::get_if<PhysReadReply>(&m.body)) {
    HandleReadReply(m.src, *body);
    return true;
  }
  if (const auto* body = std::get_if<PhysWriteReply>(&m.body)) {
    HandleWriteReply(m.src, *body);
    return true;
  }
  return false;
}

void QuorumNode::HandleReadReply(ProcessorId src, const PhysReadReply& body) {
  // A read reply resolves a logical read or a write's version poll.
  if (auto it = pending_reads_.find(body.op_id);
      it != pending_reads_.end()) {
    PendingRead& pr = it->second;
    pr.outstanding.erase(src);
    if (pr.max_lock_wait_us < body.lock_wait_us) {
      pr.max_lock_wait_us = body.lock_wait_us;
    }
    if (body.ok) {
      pr.votes_have += env_.placement->WeightOf(pr.obj, src);
      if (!pr.have_value || pr.best_date < body.date) {
        pr.best_value = body.value;
        pr.best_date = body.date;
        pr.have_value = true;
      }
    }
    if (pr.votes_have >= pr.votes_needed) {
      PendingRead done = std::move(it->second);
      pending_reads_.erase(it);
      env_.executor->Cancel(done.timeout_event);
      // The quorum can complete with requests still outstanding (vote
      // overshoot under weighted placements: SelectCopies may contact
      // more copies than the cheapest reply-set needs). Cancel them —
      // a leftover request retransmitted past commit would be served
      // outside the transaction's 2PL window.
      CancelOutstanding(done);
      ++stats_.reads_ok;
      if (TxnRec* rec = FindTxn(done.txn); rec != nullptr) {
        rec->path.OpCompleted(env_.clock->Now(), done.max_lock_wait_us);
      }
      env_.recorder->TxnRead(done.txn, done.obj, done.best_value,
                             done.best_date, env_.clock->Now());
      done.cb(core::ReadResult{done.best_value, done.best_date, src});
      return;
    }
    // Can the remaining replies still reach the quorum?
    Weight potential = pr.votes_have;
    for (ProcessorId q : pr.outstanding) {
      potential += env_.placement->WeightOf(pr.obj, q);
    }
    if (potential < pr.votes_needed) {
      // Delivery deadlines surface as an explicit timeout, not a
      // generic abort: the copy never saw the request.
      FailRead(body.op_id,
               body.error == "delivery-timeout"
                   ? Status::Timeout("read quorum unreachable: delivery "
                                     "deadline passed")
                   : Status::Aborted("read quorum unreachable: " +
                                     body.error));
    }
    return;
  }
  if (auto it = pending_writes_.find(body.op_id);
      it != pending_writes_.end()) {
    PendingWrite& pw = it->second;
    if (!pw.polling) return;  // Stale poll reply.
    pw.outstanding.erase(src);
    if (pw.max_lock_wait_us < body.lock_wait_us) {
      pw.max_lock_wait_us = body.lock_wait_us;
    }
    if (body.ok) {
      pw.votes_have += env_.placement->WeightOf(pw.obj, src);
      pw.pollers.insert(src);
      if (pw.max_date < body.date) pw.max_date = body.date;
    }
    if (pw.votes_have >= pw.votes_needed) {
      StartWritePhase2(body.op_id);
      return;
    }
    Weight potential = pw.votes_have;
    for (ProcessorId q : pw.outstanding) {
      potential += env_.placement->WeightOf(pw.obj, q);
    }
    if (potential < pw.votes_needed) {
      FailWrite(body.op_id,
                body.error == "delivery-timeout"
                    ? Status::Timeout("write quorum unreachable: delivery "
                                      "deadline passed")
                    : Status::Aborted("write quorum unreachable: " +
                                      body.error));
    }
  }
  // Otherwise: a reply to an operation that already completed or failed.
}

void QuorumNode::HandleWriteReply(ProcessorId src,
                                  const PhysWriteReply& body) {
  auto it = pending_writes_.find(body.op_id);
  if (it == pending_writes_.end()) return;
  PendingWrite& pw = it->second;
  if (pw.polling) return;
  if (!body.ok) {
    FailWrite(body.op_id,
              body.error == "delivery-timeout"
                  ? Status::Timeout(
                        "physical write delivery deadline passed")
                  : Status::Aborted("physical write failed: " + body.error));
    return;
  }
  pw.outstanding.erase(src);
  if (pw.max_lock_wait_us < body.lock_wait_us) {
    pw.max_lock_wait_us = body.lock_wait_us;
  }
  if (pw.outstanding.empty()) {
    PendingWrite done = std::move(it->second);
    pending_writes_.erase(it);
    env_.executor->Cancel(done.timeout_event);
    ++stats_.writes_ok;
    if (TxnRec* rec = FindTxn(done.txn); rec != nullptr) {
      rec->path.OpCompleted(env_.clock->Now(), done.max_lock_wait_us);
    }
    env_.recorder->TxnWrite(done.txn, done.obj, done.value,
                            env_.clock->Now());
    done.cb(Status::Ok());
  }
}

}  // namespace vp::protocols
