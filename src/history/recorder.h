// Omniscient execution recorder.
//
// Every protocol implementation reports logical-level events (transaction
// begin/read/write/commit/abort) and view-management events (join/depart)
// here. The recorder is the ground truth for:
//   * the one-copy serializability certifier (checker.h),
//   * online checking of the paper's safety requirements S1-S3,
//   * staleness accounting (§4's "reading stale data" discussion).
//
// The recorder is passive infrastructure — protocols never read it to make
// decisions, so recording cannot mask protocol bugs.
#ifndef VPART_HISTORY_RECORDER_H_
#define VPART_HISTORY_RECORDER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "common/vp_id.h"
#include "sim/time.h"

namespace vp::history {

/// One logical operation executed by a transaction.
struct LogicalOp {
  enum class Kind { kRead, kWrite };
  Kind kind = Kind::kRead;
  ObjectId obj = kInvalidObject;
  /// For reads: the value returned. For writes: the value written.
  Value value;
  /// For reads: the date tag of the copy read (kEpochDate for protocols
  /// without dates).
  VpId date = kEpochDate;
  sim::SimTime at = 0;
};

/// The recorded life of one transaction.
struct TxnHistory {
  TxnId id;
  ProcessorId coordinator = kInvalidProcessor;
  /// Virtual partition the transaction executed in (kEpochDate-like default
  /// for protocols without virtual partitions). Under the §6 weakened R4 a
  /// transaction can span several partitions: `vp_first` is the first one
  /// and `vp` the last.
  VpId vp = kEpochDate;
  VpId vp_first = kEpochDate;
  bool has_vp = false;
  std::vector<LogicalOp> ops;
  sim::SimTime begin_at = 0;
  sim::SimTime decided_at = 0;
  /// Global decision record order (like PhysOp::seq): orders transactions
  /// decided in the same clock tick.
  uint64_t decide_seq = 0;
  bool committed = false;
  bool decided = false;
};

/// Decision order: by decision time, same-time decisions in the order they
/// were recorded, then by id (hand-built histories leave decide_seq 0).
inline bool DecidedBefore(const TxnHistory& a, const TxnHistory& b) {
  if (a.decided_at != b.decided_at) return a.decided_at < b.decided_at;
  if (a.decide_seq != b.decide_seq) return a.decide_seq < b.decide_seq;
  return a.id < b.id;
}

/// A recorded S1/S2/S3 violation (should never fire for the VP protocol).
struct SafetyViolation {
  std::string rule;  // "S1", "S2", "S3", or "monotonic".
  std::string detail;
  sim::SimTime at = 0;
};

/// Captures executions and checks view-management invariants online.
///
/// Thread-safety: every event entry point and the copying accessors take an
/// internal mutex, so one Recorder can be shared by all nodes on the
/// threaded runtime (on the simulator the lock is uncontended). The
/// reference-returning accessors (safety_violations, view_events,
/// physical_ops) are snapshot-free and must only be called once the system
/// is quiesced — after the sim drains or the thread runtime stops.
class Recorder {
 public:
  Recorder() = default;

  // --- Transaction-level events (all protocols) ---
  void TxnBegin(TxnId txn, ProcessorId coordinator, sim::SimTime at);
  void TxnSetVp(TxnId txn, VpId vp);
  void TxnRead(TxnId txn, ObjectId obj, const Value& value, VpId date,
               sim::SimTime at);
  void TxnWrite(TxnId txn, ObjectId obj, const Value& value, sim::SimTime at);
  void TxnCommit(TxnId txn, sim::SimTime at);
  void TxnAbort(TxnId txn, sim::SimTime at);

  // --- Physical-level events (for the CP-serializability checker) ---
  /// A physical read/write executed at `node` on the local copy of `obj`
  /// on behalf of `txn`. `is_write` distinguishes the conflict class.
  void PhysicalOp(ProcessorId node, TxnId txn, ObjectId obj, bool is_write,
                  sim::SimTime at);

  // --- View-management events (VP protocol) ---
  /// p joined virtual partition v with the given common view.
  void JoinVp(ProcessorId p, VpId v, const std::set<ProcessorId>& view,
              sim::SimTime at);
  /// p departed its current virtual partition.
  void DepartVp(ProcessorId p, sim::SimTime at);

  // --- Accessors ---
  /// All decided transactions (committed and aborted).
  std::vector<TxnHistory> Decided() const;
  /// Committed transactions only.
  std::vector<TxnHistory> Committed() const;
  const std::vector<SafetyViolation>& safety_violations() const {
    return violations_;
  }
  uint64_t committed_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return committed_count_;
  }
  uint64_t aborted_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return aborted_count_;
  }
  uint64_t join_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return join_count_;
  }

  /// Stale-read accounting: a read is stale if, at the moment it was
  /// served, some transaction had already committed a write of the same
  /// object with a strictly greater date. Returns the number of stale reads
  /// among committed transactions and fills `max_staleness` with the
  /// largest observed lag (commit time of the newer write to read time).
  uint64_t CountStaleReads(sim::Duration* max_staleness = nullptr) const;

  /// One recorded view-management event (for traces and analysis).
  struct ViewEvent {
    ProcessorId p = kInvalidProcessor;
    bool is_join = false;  // false = depart.
    VpId vp;               // Meaningful for joins.
    std::set<ProcessorId> view;
    sim::SimTime at = 0;
  };
  const std::vector<ViewEvent>& view_events() const { return view_events_; }

  /// One recorded physical operation (for conflict-graph analysis).
  struct PhysOp {
    ProcessorId node;
    TxnId txn;
    ObjectId obj;
    bool is_write;
    sim::SimTime at;
    uint64_t seq;  // Global record order; breaks same-time ties.
  };
  const std::vector<PhysOp>& physical_ops() const { return physical_ops_; }

 private:
  struct Assignment {
    VpId vp;
    std::set<ProcessorId> view;
    bool assigned = false;
    bool ever_joined = false;
    VpId max_joined = kEpochDate;  // Monotonicity check.
  };

  TxnHistory* Find(TxnId txn);
  void AddViolation(const std::string& rule, const std::string& detail,
                    sim::SimTime at);

  mutable std::mutex mu_;
  std::unordered_map<TxnId, TxnHistory, TxnIdHash> txns_;
  std::vector<TxnId> txn_order_;  // Begin order, for deterministic output.
  std::map<ProcessorId, Assignment> assignment_;
  std::vector<SafetyViolation> violations_;
  uint64_t committed_count_ = 0;
  uint64_t aborted_count_ = 0;
  uint64_t join_count_ = 0;
  uint64_t decide_seq_ = 0;
  std::vector<PhysOp> physical_ops_;
  std::vector<ViewEvent> view_events_;
};

}  // namespace vp::history

#endif  // VPART_HISTORY_RECORDER_H_
