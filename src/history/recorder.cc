#include "history/recorder.h"

#include <algorithm>

#include "common/logging.h"

namespace vp::history {

TxnHistory* Recorder::Find(TxnId txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : &it->second;
}

void Recorder::AddViolation(const std::string& rule, const std::string& detail,
                            sim::SimTime at) {
  violations_.push_back(SafetyViolation{rule, detail, at});
}

void Recorder::TxnBegin(TxnId txn, ProcessorId coordinator, sim::SimTime at) {
  std::lock_guard<std::mutex> lk(mu_);
  TxnHistory h;
  h.id = txn;
  h.coordinator = coordinator;
  h.begin_at = at;
  txns_[txn] = std::move(h);
  txn_order_.push_back(txn);
}

void Recorder::TxnSetVp(TxnId txn, VpId vp) {
  std::lock_guard<std::mutex> lk(mu_);
  TxnHistory* h = Find(txn);
  if (h == nullptr) return;
  if (!h->has_vp) h->vp_first = vp;
  h->vp = vp;
  h->has_vp = true;
}

void Recorder::TxnRead(TxnId txn, ObjectId obj, const Value& value, VpId date,
                       sim::SimTime at) {
  std::lock_guard<std::mutex> lk(mu_);
  TxnHistory* h = Find(txn);
  if (h == nullptr) return;
  h->ops.push_back(LogicalOp{LogicalOp::Kind::kRead, obj, value, date, at});
}

void Recorder::TxnWrite(TxnId txn, ObjectId obj, const Value& value,
                        sim::SimTime at) {
  std::lock_guard<std::mutex> lk(mu_);
  TxnHistory* h = Find(txn);
  if (h == nullptr) return;
  h->ops.push_back(
      LogicalOp{LogicalOp::Kind::kWrite, obj, value, kEpochDate, at});
}

void Recorder::TxnCommit(TxnId txn, sim::SimTime at) {
  std::lock_guard<std::mutex> lk(mu_);
  TxnHistory* h = Find(txn);
  if (h == nullptr) return;
  VP_CHECK_MSG(!h->decided, "double decision for a transaction");
  h->decided = true;
  h->committed = true;
  h->decided_at = at;
  h->decide_seq = decide_seq_++;
  ++committed_count_;
}

void Recorder::TxnAbort(TxnId txn, sim::SimTime at) {
  std::lock_guard<std::mutex> lk(mu_);
  TxnHistory* h = Find(txn);
  if (h == nullptr) return;
  if (h->decided) return;  // Abort after abort is harmless.
  h->decided = true;
  h->committed = false;
  h->decided_at = at;
  h->decide_seq = decide_seq_++;
  ++aborted_count_;
}

void Recorder::PhysicalOp(ProcessorId node, TxnId txn, ObjectId obj,
                          bool is_write, sim::SimTime at) {
  std::lock_guard<std::mutex> lk(mu_);
  physical_ops_.push_back(
      PhysOp{node, txn, obj, is_write, at, physical_ops_.size()});
}

void Recorder::JoinVp(ProcessorId p, VpId v, const std::set<ProcessorId>& view,
                      sim::SimTime at) {
  std::lock_guard<std::mutex> lk(mu_);
  ++join_count_;
  view_events_.push_back(ViewEvent{p, true, v, view, at});
  Assignment& mine = assignment_[p];

  // S2: reflexivity.
  if (view.count(p) == 0) {
    AddViolation("S2", "processor " + std::to_string(p) +
                           " joined vp " + v.ToString() +
                           " whose view does not contain it",
                 at);
  }
  // Monotonicity: a processor's joined vp identifiers strictly increase.
  if (mine.ever_joined && !(mine.max_joined < v)) {
    AddViolation("monotonic", "processor " + std::to_string(p) +
                                  " joined vp " + v.ToString() +
                                  " after having joined " +
                                  mine.max_joined.ToString(),
                 at);
  }

  // S1: all processors currently assigned to v share one view.
  // S3 (online form): at any join(q, w), no processor in view(w) may still
  //     be assigned to a virtual partition v ≺ w.
  for (const auto& [q, theirs] : assignment_) {
    if (q == p || !theirs.assigned) continue;
    if (theirs.vp == v && theirs.view != view) {
      AddViolation("S1", "processors " + std::to_string(p) + " and " +
                             std::to_string(q) + " in vp " + v.ToString() +
                             " have different views",
                   at);
    }
    if (view.count(q) > 0 && theirs.vp < v) {
      AddViolation("S3", "processor " + std::to_string(q) +
                             " is still assigned to vp " +
                             theirs.vp.ToString() + " while " +
                             std::to_string(p) + " joins vp " + v.ToString() +
                             " whose view contains it",
                   at);
    }
  }

  mine.vp = v;
  mine.view = view;
  mine.assigned = true;
  if (!mine.ever_joined || mine.max_joined < v) mine.max_joined = v;
  mine.ever_joined = true;
}

void Recorder::DepartVp(ProcessorId p, sim::SimTime at) {
  std::lock_guard<std::mutex> lk(mu_);
  assignment_[p].assigned = false;
  view_events_.push_back(ViewEvent{p, false, VpId{}, {}, at});
}

std::vector<TxnHistory> Recorder::Decided() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TxnHistory> out;
  for (TxnId id : txn_order_) {
    auto it = txns_.find(id);
    if (it != txns_.end() && it->second.decided) out.push_back(it->second);
  }
  return out;
}

std::vector<TxnHistory> Recorder::Committed() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TxnHistory> out;
  for (TxnId id : txn_order_) {
    auto it = txns_.find(id);
    if (it != txns_.end() && it->second.decided && it->second.committed)
      out.push_back(it->second);
  }
  return out;
}

uint64_t Recorder::CountStaleReads(sim::Duration* max_staleness) const {
  std::lock_guard<std::mutex> lk(mu_);
  // Committed writes of each object: (date, commit time).
  struct W {
    VpId date;
    sim::SimTime committed_at;
  };
  std::map<ObjectId, std::vector<W>> writes;
  for (const auto& [id, h] : txns_) {
    if (!h.decided || !h.committed || !h.has_vp) continue;
    for (const LogicalOp& op : h.ops) {
      if (op.kind == LogicalOp::Kind::kWrite) {
        writes[op.obj].push_back(W{h.vp, h.decided_at});
      }
    }
  }
  uint64_t stale = 0;
  sim::Duration worst = 0;
  for (const auto& [id, h] : txns_) {
    if (!h.decided || !h.committed) continue;
    for (const LogicalOp& op : h.ops) {
      if (op.kind != LogicalOp::Kind::kRead) continue;
      auto it = writes.find(op.obj);
      if (it == writes.end()) continue;
      for (const W& w : it->second) {
        if (op.date < w.date && w.committed_at < op.at) {
          ++stale;
          worst = std::max<sim::Duration>(worst, op.at - w.committed_at);
          break;
        }
      }
    }
  }
  if (max_staleness != nullptr) *max_staleness = worst;
  return stale;
}

}  // namespace vp::history
