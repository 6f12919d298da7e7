#include "protocols/naive_view_node.h"

#include <utility>

#include "common/logging.h"

namespace vp::protocols {

using core::msg::PhysRead;
using core::msg::PhysReadReply;
using core::msg::PhysWrite;
using core::msg::PhysWriteReply;

NaiveViewNode::NaiveViewNode(ProcessorId id, core::NodeEnv env,
                             NaiveConfig config)
    : NodeBase(id, env, config.lock_timeout, config.outcome_retry_period),
      config_(config) {}

std::set<ProcessorId> NaiveViewNode::CurrentView() const {
  if (view_override_.has_value()) return *view_override_;
  std::set<ProcessorId> view{id_};
  const runtime::Transport* t = env_.transport;
  for (ProcessorId q = 0; q < t->size(); ++q) {
    if (q != id_ && t->CanCommunicate(id_, q)) view.insert(q);
  }
  return view;
}

void NaiveViewNode::LogicalRead(TxnId txn, ObjectId obj,
                                core::ReadCallback cb) {
  ctr_reads_attempted_->Increment();
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr || rec->st != cc::TxnOutcome::kActive || rec->doomed) {
    cb(Status::Aborted("transaction not active"));
    return;
  }
  const std::set<ProcessorId> view = CurrentView();
  if (!env_.placement->Accessible(obj, view)) {
    rec->doomed = true;
    InternalAbort(txn);
    cb(Status::Unavailable("no majority in view"));
    return;
  }
  // Nearest copy in the view.
  ProcessorId target = kInvalidProcessor;
  double best = 0;
  for (ProcessorId q : env_.placement->CopyHolders(obj)) {
    if (view.count(q) == 0) continue;
    const double cost = q == id_ ? 0.0 : env_.transport->Cost(id_, q);
    if (target == kInvalidProcessor || cost < best) {
      target = q;
      best = cost;
    }
  }
  VP_CHECK(target != kInvalidProcessor);

  const uint64_t op_id = next_op_id_++;
  PendingRead pr;
  pr.txn = txn;
  pr.obj = obj;
  pr.cb = std::move(cb);
  rec->participants.insert(target);
  ctr_phys_reads_sent_->Increment();
  rec->path.OpIssued(env_.clock->Now());
  // Registered before the send: a local copy replies inline.
  pending_reads_[op_id] = std::move(pr);
  SendPhys(target,
           PhysRead{txn, obj, kEpochDate, /*epoch=*/0, /*for_update=*/false,
                    op_id, {}},
           [this, op_id, target]() {
             OnDeliveryTimeout(op_id, target, /*write_phase=*/false);
           },
           /*trace=*/0, RetransmitToPath(txn));
  auto it = pending_reads_.find(op_id);
  if (it == pending_reads_.end()) return;  // Served inline.
  it->second.timeout_event = env_.executor->ScheduleAfter(
      config_.op_timeout + config_.lock_timeout, [this, op_id]() {
        auto it2 = pending_reads_.find(op_id);
        if (it2 == pending_reads_.end()) return;
        PendingRead done = std::move(it2->second);
        pending_reads_.erase(it2);
        if (TxnRec* r = FindTxn(done.txn); r != nullptr) {
          r->path.OpCompleted(env_.clock->Now(), 0);
        }
        InternalAbort(done.txn);
        done.cb(Status::Timeout("copy holder unresponsive"));
      });
}

void NaiveViewNode::LogicalWrite(TxnId txn, ObjectId obj, Value value,
                                 core::WriteCallback cb) {
  TxnRec* rec = FindTxn(txn);
  if (rec == nullptr || rec->st != cc::TxnOutcome::kActive || rec->doomed) {
    cb(Status::Aborted("transaction not active"));
    return;
  }
  const std::set<ProcessorId> view = CurrentView();
  if (!env_.placement->Accessible(obj, view)) {
    rec->doomed = true;
    InternalAbort(txn);
    cb(Status::Unavailable("no majority in view"));
    return;
  }

  const uint64_t op_id = next_op_id_++;
  PendingWrite pw;
  pw.txn = txn;
  pw.obj = obj;
  pw.value = value;
  pw.cb = std::move(cb);
  for (ProcessorId q : env_.placement->CopyHolders(obj)) {
    if (view.count(q) > 0) pw.awaiting.insert(q);
  }
  pw.timeout_event = env_.executor->ScheduleAfter(
      config_.op_timeout + config_.lock_timeout, [this, op_id]() {
        auto it = pending_writes_.find(op_id);
        if (it == pending_writes_.end()) return;
        PendingWrite done = std::move(it->second);
        pending_writes_.erase(it);
        if (TxnRec* r = FindTxn(done.txn); r != nullptr) {
          r->path.OpCompleted(env_.clock->Now(), done.max_lock_wait_us);
        }
        InternalAbort(done.txn);
        done.cb(Status::Timeout("write-all-in-view incomplete"));
      });
  const VpId date{++write_counter_, id_};
  const std::set<ProcessorId> targets = pw.awaiting;
  pending_writes_[op_id] = std::move(pw);
  rec->path.OpIssued(env_.clock->Now());
  // All targets join before any send: a local copy replies inline, and
  // the client code that reply runs may begin transactions (`rec` is not
  // used past this point).
  for (ProcessorId q : targets) rec->participants.insert(q);
  for (ProcessorId q : targets) {
    ctr_phys_writes_sent_->Increment();
    SendPhys(q,
             PhysWrite{txn, obj, value, date, /*epoch=*/0, op_id, {}},
             [this, op_id, q]() {
               OnDeliveryTimeout(op_id, q, /*write_phase=*/true);
             },
             /*trace=*/0, RetransmitToPath(txn));
    // A local nack fails the write inline; the rest need not be sent.
    if (pending_writes_.count(op_id) == 0) return;
  }
}

void NaiveViewNode::OnDeliveryTimeout(uint64_t op_id, ProcessorId q,
                                      bool write_phase) {
  if (retired_) return;
  // Synthesize a nack from `q` so the normal reply path fails the op.
  if (write_phase) {
    HandleWriteReply(q, PhysWriteReply{op_id, false, "delivery-timeout"});
  } else {
    HandleReadReply(q, PhysReadReply{op_id, false, "delivery-timeout", Value(),
                                     kEpochDate});
  }
}

bool NaiveViewNode::HandleProtocolMessage(const net::Message& m) {
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

void NaiveViewNode::HandleReadReply(ProcessorId src,
                                    const PhysReadReply& body) {
  auto it = pending_reads_.find(body.op_id);
  if (it == pending_reads_.end()) return;
  PendingRead done = std::move(it->second);
  pending_reads_.erase(it);
  env_.executor->Cancel(done.timeout_event);
  if (TxnRec* r = FindTxn(done.txn); r != nullptr) {
    r->path.OpCompleted(env_.clock->Now(), body.lock_wait_us);
  }
  if (!body.ok) {
    InternalAbort(done.txn);
    done.cb(body.error == "delivery-timeout"
                ? Status::Timeout("physical read delivery deadline passed")
                : Status::Aborted("physical read failed: " + body.error));
    return;
  }
  env_.recorder->TxnRead(done.txn, done.obj, body.value, body.date,
                         env_.clock->Now());
  done.cb(core::ReadResult{body.value, body.date, src});
}

void NaiveViewNode::HandleWriteReply(ProcessorId src,
                                     const PhysWriteReply& body) {
  auto it = pending_writes_.find(body.op_id);
  if (it == pending_writes_.end()) return;
  PendingWrite& pw = it->second;
  if (pw.max_lock_wait_us < body.lock_wait_us) {
    pw.max_lock_wait_us = body.lock_wait_us;
  }
  if (!body.ok) {
    PendingWrite done = std::move(it->second);
    pending_writes_.erase(it);
    env_.executor->Cancel(done.timeout_event);
    if (TxnRec* r = FindTxn(done.txn); r != nullptr) {
      r->path.OpCompleted(env_.clock->Now(), done.max_lock_wait_us);
    }
    InternalAbort(done.txn);
    done.cb(body.error == "delivery-timeout"
                ? Status::Timeout("physical write delivery deadline passed")
                : Status::Aborted("physical write failed: " + body.error));
    return;
  }
  pw.awaiting.erase(src);
  if (pw.awaiting.empty()) {
    PendingWrite done = std::move(it->second);
    pending_writes_.erase(it);
    env_.executor->Cancel(done.timeout_event);
    if (TxnRec* r = FindTxn(done.txn); r != nullptr) {
      r->path.OpCompleted(env_.clock->Now(), done.max_lock_wait_us);
    }
    env_.recorder->TxnWrite(done.txn, done.obj, done.value,
                            env_.clock->Now());
    done.cb(Status::Ok());
  }
}

}  // namespace vp::protocols
