// The public replica-control API.
//
// A ReplicaControl instance lives at each processor and translates logical
// reads/writes issued by local transactions into physical operations on
// copies, per some replica-control protocol (the paper's virtual-partition
// protocol in core/vp_node.h; baselines in src/protocols). Clients are
// protocol-agnostic: they program only against this interface.
//
// Each completion callback fires exactly once, possibly before the call
// that triggered it returns: an operation served entirely by the node's
// own copies completes inline. Clients therefore post their next
// transaction through the executor instead of beginning it from inside a
// callback.
#ifndef VPART_CORE_REPLICA_CONTROL_H_
#define VPART_CORE_REPLICA_CONTROL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "common/vp_id.h"

namespace vp::core {

/// Result of a logical read.
struct ReadResult {
  Value value;
  /// Logical date of the copy read (vp-id of its last write); protocols
  /// without dates report kEpochDate.
  VpId date = kEpochDate;
  /// The processor whose physical copy served the read.
  ProcessorId served_by = kInvalidProcessor;
};

using ReadCallback = std::function<void(Result<ReadResult>)>;
using WriteCallback = std::function<void(Status)>;
using CommitCallback = std::function<void(Status)>;

/// Per-node protocol counters, comparable across protocols.
struct ProtocolStats {
  uint64_t txns_begun = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;

  uint64_t reads_attempted = 0;
  uint64_t reads_ok = 0;
  uint64_t reads_unavailable = 0;  // Rejected by the majority rule / quorum.
  uint64_t reads_failed = 0;       // Timeout / conflict after acceptance.
  uint64_t writes_attempted = 0;
  uint64_t writes_ok = 0;
  uint64_t writes_unavailable = 0;
  uint64_t writes_failed = 0;

  /// Physical accesses issued (messages to copy holders, self included).
  uint64_t phys_reads_sent = 0;
  uint64_t phys_writes_sent = 0;

  /// Reliable-delivery channel counters (all zero when the layer is off).
  uint64_t rel_sends = 0;            // Messages entrusted to the channel.
  uint64_t rel_retransmits = 0;      // Transmissions beyond each first one.
  uint64_t rel_timeouts = 0;         // Sends abandoned at their deadline.
  uint64_t rel_dups_suppressed = 0;  // Duplicate reliable messages dropped.

  /// VP protocol only.
  uint64_t vp_creations_initiated = 0;
  uint64_t vp_joins = 0;
  uint64_t recovery_reads_sent = 0;
  uint64_t recovery_skipped_objects = 0;  // §6 previous-vp optimization.
  uint64_t recovery_log_records = 0;      // §6 missing-writes catch-up.
  uint64_t recovery_date_polls = 0;       // Date-only recovery probes.
  uint64_t recovery_value_fetches = 0;    // Full-value fetches (date-poll).
};

/// The protocol-independent face of a replicated-data-management node.
class ReplicaControl {
 public:
  virtual ~ReplicaControl() = default;

  /// Starts a transaction coordinated by this processor. `txn` must be
  /// fresh and unique system-wide (TxnId{processor(), local_seq}).
  virtual void Begin(TxnId txn) = 0;

  /// Logical read of `obj` for `txn` (paper Fig. 10). The callback receives
  /// the value or: Unavailable (majority rule failed / not assigned),
  /// Timeout (copy holder did not respond), Aborted (transaction already
  /// doomed). Any failure dooms the transaction.
  virtual void LogicalRead(TxnId txn, ObjectId obj, ReadCallback cb) = 0;

  /// Logical write of `obj` for `txn` (paper Fig. 11). Failure semantics
  /// mirror LogicalRead; R3 requires every copy in the view to accept.
  virtual void LogicalWrite(TxnId txn, ObjectId obj, Value value,
                            WriteCallback cb) = 0;

  /// Commits `txn`. The callback fires at the commit decision point; the
  /// outcome is then propagated to all participants (with retries).
  virtual void Commit(TxnId txn, CommitCallback cb) = 0;

  /// Aborts `txn` unconditionally. Idempotent.
  virtual void Abort(TxnId txn) = 0;

  /// The processor this instance runs at.
  virtual ProcessorId processor() const = 0;

  /// Protocol name for reports, e.g. "virtual-partition", "quorum(3,3)".
  virtual std::string name() const = 0;

  virtual const ProtocolStats& stats() const = 0;
};

}  // namespace vp::core

#endif  // VPART_CORE_REPLICA_CONTROL_H_
