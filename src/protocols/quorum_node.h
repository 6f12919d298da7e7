// Weighted-voting quorum consensus (Gifford [G]) over the same substrate as
// the VP protocol, for apples-to-apples comparison.
//
// Every copy carries a version (stored in the date field's sequence
// number). A logical read collects replies from copies worth at least
// `read_quorum` votes and returns the highest-versioned value. A logical
// write first polls a write quorum for the current version under exclusive
// locks, then writes value/version+1 to those copies.
//
// Specializations:
//   * majority voting (Thomas [T]): read_quorum = write_quorum = ⌊V/2⌋+1,
//   * ROWA: read_quorum = 1, write_quorum = V (no fault tolerance for
//     writes; the availability baseline).
//
// Configurable copy-selection policy:
//   * minimal (default): contact the cheapest set of copies forming a
//     quorum — fewest messages, but a single unresponsive member aborts
//     the operation;
//   * poll_all: contact every copy and succeed once a quorum of replies
//     arrives — more messages, maximal availability.
#ifndef VPART_PROTOCOLS_QUORUM_NODE_H_
#define VPART_PROTOCOLS_QUORUM_NODE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/node_base.h"

namespace vp::protocols {

struct QuorumConfig {
  /// Votes required to read. 0 means "majority" (computed per object).
  Weight read_quorum = 0;
  /// Votes required to write. 0 means "majority".
  Weight write_quorum = 0;
  /// When read_quorum/write_quorum are 0 and this is true, the write
  /// quorum is ALL votes (ROWA).
  bool write_all = false;
  /// Contact every copy instead of a minimal quorum.
  bool poll_all = false;
  sim::Duration op_timeout = sim::Millis(20);
  sim::Duration lock_timeout = sim::Millis(100);
  sim::Duration outcome_retry_period = sim::Millis(40);
  std::string display_name = "quorum";
};

class QuorumNode : public core::NodeBase {
 public:
  QuorumNode(ProcessorId id, core::NodeEnv env, QuorumConfig config);

  void Retire() override;

  void LogicalRead(TxnId txn, ObjectId obj, core::ReadCallback cb) override;
  void LogicalWrite(TxnId txn, ObjectId obj, Value value,
                    core::WriteCallback cb) override;
  std::string name() const override { return config_.display_name; }

  /// Effective quorums for an object (resolving the "majority" defaults).
  Weight ReadQuorum(ObjectId obj) const;
  Weight WriteQuorum(ObjectId obj) const;

 protected:
  bool HandleProtocolMessage(const net::Message& m) override;

 private:
  /// Copies to contact for a quorum of `needed` votes; empty if no such
  /// set exists (object under-replicated for the quorum).
  std::vector<ProcessorId> SelectCopies(ObjectId obj, Weight needed) const;

  Status AdmitOp(TxnId txn, core::NodeBase::TxnRec** rec_out);

  struct PendingRead {
    TxnId txn;
    ObjectId obj;
    core::ReadCallback cb;
    Weight votes_needed = 0;
    Weight votes_have = 0;
    std::set<ProcessorId> outstanding;
    /// Channel ids of the in-flight requests, for cancelling the leftovers
    /// when the quorum completes without every reply (vote overshoot).
    std::map<ProcessorId, uint64_t> rel_ids;
    Value best_value;
    VpId best_date;
    bool have_value = false;
    /// Largest lock wait any reply reported, for critical-path attribution.
    uint64_t max_lock_wait_us = 0;
    runtime::TaskId timeout_event = runtime::kInvalidTask;
  };
  struct PendingWrite {
    TxnId txn;
    ObjectId obj;
    Value value;
    core::WriteCallback cb;
    // Phase 1: version poll (exclusive locks); phase 2: write.
    bool polling = true;
    Weight votes_needed = 0;
    Weight votes_have = 0;
    std::set<ProcessorId> outstanding;
    std::map<ProcessorId, uint64_t> rel_ids;  // As in PendingRead.
    std::set<ProcessorId> pollers;  // Copies that answered the poll.
    VpId max_date;
    /// Largest lock wait across poll and write replies (attribution).
    uint64_t max_lock_wait_us = 0;
    runtime::TaskId timeout_event = runtime::kInvalidTask;
  };

  void FailRead(uint64_t op_id, Status why);
  void FailWrite(uint64_t op_id, Status why);
  void StartWritePhase2(uint64_t op_id);

  /// Stops retransmission of every still-outstanding request of a
  /// completed/failed operation. A leftover request served after the
  /// transaction decides is a physical access outside its 2PL window.
  template <typename Pending>
  void CancelOutstanding(const Pending& p) {
    for (ProcessorId q : p.outstanding) {
      auto it = p.rel_ids.find(q);
      if (it != p.rel_ids.end()) CancelPhys(it->second);
    }
  }

  /// Reliable-channel delivery-deadline hook: synthesizes a failed reply
  /// from `q` so the quorum-unreachable accounting runs and the caller
  /// gets an explicit timeout instead of waiting out the op timer.
  /// `write_phase` distinguishes a phase-2 write from a read/version poll.
  void OnDeliveryTimeout(uint64_t op_id, ProcessorId q, bool write_phase);
  /// Reply paths, shared by delivered replies and synthesized nacks.
  void HandleReadReply(ProcessorId src, const core::msg::PhysReadReply& body);
  void HandleWriteReply(ProcessorId src,
                        const core::msg::PhysWriteReply& body);

  QuorumConfig config_;
  std::map<uint64_t, PendingRead> pending_reads_;
  std::map<uint64_t, PendingWrite> pending_writes_;
};

/// Thomas-style majority voting: r = w = majority.
QuorumConfig MajorityVotingConfig();

/// Read-one/write-all without views: r = 1, w = all votes.
QuorumConfig RowaConfig();

}  // namespace vp::protocols

#endif  // VPART_PROTOCOLS_QUORUM_NODE_H_
