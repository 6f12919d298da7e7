// Wire messages of the virtual-partition protocol. Names follow the paper's
// figures: "newvp" / "OK" / "commit" (Fig. 5-6), "probe" / "ack" (Fig. 7-8),
// "read" / "write" and their replies (Fig. 9-12), plus the transaction-
// outcome subprotocol that realizes atomic commitment of staged writes and
// the reliable channel's ack. `Body` closes the set: every protocol (VP,
// quorum consensus, the naive-view strawman) speaks only these messages.
#ifndef VPART_CORE_VP_MESSAGES_H_
#define VPART_CORE_VP_MESSAGES_H_

#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common/types.h"
#include "common/vp_id.h"
#include "cc/txn.h"

namespace vp::core::msg {

// ---- Virtual partition management (Fig. 5, 6) ----

/// Invitation to join a new virtual partition (phase 1).
struct NewVp {
  VpId new_id;
};

/// Acceptance of an invitation. `previous` is the last virtual partition
/// the acceptor was assigned to (§6: previous_v(q)), collected at no extra
/// message cost; `epoch` is the acceptor's configuration epoch, so the
/// initiator commits the view under the newest epoch any member occupies.
struct VpOk {
  VpId v;
  ProcessorId r = kInvalidProcessor;
  VpId previous;
  EpochId epoch = 0;
};

/// Phase-2 commit: the initiator's computed view for partition `v`, plus
/// the configuration epoch the view serves under. When the commit advances
/// the receiver's epoch past epochs it has not yet learned, `reconfig`
/// carries the op batch that produced `epoch` from its predecessor.
struct VpCommit {
  VpId v;
  std::set<ProcessorId> view;
  /// previous_v(q) for each q in view (§6 optimization 1).
  std::map<ProcessorId, VpId> previous;
  EpochId epoch = 0;
  std::vector<ReconfigOp> reconfig;
};

// ---- Probing (Fig. 7, 8) ----

struct Probe {
  ProcessorId q = kInvalidProcessor;
  VpId v;
  uint64_t seq = 0;
};

struct ProbeAck {
  ProcessorId q = kInvalidProcessor;
  uint64_t seq = 0;
};

// ---- Physical access (Fig. 9-12) ----

/// Physical read request. `recovery` marks Update-Copies-in-View reads
/// (Fig. 9), which are served from the committed version without waiting
/// for partition-initialization locks (but do wait for write locks, §6
/// condition (3)).
struct PhysRead {
  TxnId txn;
  ObjectId obj = kInvalidObject;
  VpId v;
  /// Configuration epoch the issuing transaction runs under. Transactional
  /// accesses from a different epoch are rejected deterministically
  /// ("stale-epoch"/"future-epoch"); recovery reads are exempt — they are
  /// the mechanism by which a new epoch's copies are brought current, and
  /// they are already guarded by `v` and by copy dates.
  EpochId epoch = 0;
  bool recovery = false;
  /// Acquire an exclusive (not shared) lock: used by quorum consensus's
  /// version poll, which precedes an intent to write.
  bool for_update = false;
  uint64_t op_id = 0;
  /// Weakened R4 (§6): processors already touched by `txn`; the server
  /// accepts a cross-vp access only if these are all in its current view.
  std::set<ProcessorId> footprint;
};

struct PhysReadReply {
  uint64_t op_id = 0;
  bool ok = false;
  /// Failure reason when !ok: "wrong-vp", "lock-timeout", "no-copy",
  /// "stale-epoch", "future-epoch".
  std::string error;
  Value value;
  VpId date;
  /// Time this request waited for its lock at the serving copy, reported
  /// back so the coordinator can attribute it to txn.path.lock_wait
  /// instead of quorum RTT.
  uint64_t lock_wait_us = 0;
};

struct PhysWrite {
  TxnId txn;
  ObjectId obj = kInvalidObject;
  Value value;
  VpId v;
  EpochId epoch = 0;
  uint64_t op_id = 0;
  std::set<ProcessorId> footprint;
};

struct PhysWriteReply {
  uint64_t op_id = 0;
  bool ok = false;
  std::string error;
  /// Lock wait at the serving copy (see PhysReadReply::lock_wait_us).
  uint64_t lock_wait_us = 0;
};

/// Date-poll recovery (§6 "optimized search", value-fetch variant): ask a
/// copy for its date only; the full value is fetched from the freshest
/// copy afterwards.
struct DateQuery {
  ObjectId obj = kInvalidObject;
  VpId v;
  /// Informational (formation traffic is vp-id-gated, not epoch-gated).
  EpochId epoch = 0;
  uint64_t op_id = 0;
};

struct DateReply {
  uint64_t op_id = 0;
  bool ok = false;
  ObjectId obj = kInvalidObject;
  VpId date;
};

/// §6 optimization 2: fetch the writes a copy missed since `after`.
struct LogQuery {
  ObjectId obj = kInvalidObject;
  VpId after;
  VpId v;
  /// Informational (formation traffic is vp-id-gated, not epoch-gated).
  EpochId epoch = 0;
  uint64_t op_id = 0;
};

struct LogReply {
  uint64_t op_id = 0;
  bool ok = false;
  ObjectId obj = kInvalidObject;
  /// (date, value, txn) triples, ascending by date.
  std::vector<std::tuple<VpId, Value, TxnId>> records;
};

// ---- Transaction outcome propagation ----

/// Coordinator's decision, broadcast (and re-broadcast) to participants.
struct TxnOutcomeMsg {
  TxnId txn;
  bool committed = false;
};

/// Standalone carrier of a participant's owed outcome acks, sent only when
/// no other message to the coordinator carried them in time. The acks
/// themselves ride in the header (net::Message::outcome_acks).
struct TxnOutcomeAck {};

/// In-doubt participant asks the coordinator for a transaction's fate.
struct TxnStatusQuery {
  TxnId txn;
  ProcessorId from = kInvalidProcessor;
};

struct TxnStatusReply {
  TxnId txn;
  cc::TxnOutcome outcome = cc::TxnOutcome::kAborted;
};

// ---- Reliable channel (net/reliable_channel.h) ----

/// Standalone carrier of a reliable-channel ack, sent only when nothing
/// else to the data message's sender carried it within the dispatch that
/// received it. The ack itself rides in the header
/// (net::Message::ack_rel_id, ack_incarnation).
struct RelAck {};

// ---- The closed wire type ----

/// Every message body the system sends. net::Message carries one; handlers
/// dispatch on the alternative.
using Body = std::variant<NewVp, VpOk, VpCommit, Probe, ProbeAck, PhysRead,
                          PhysReadReply, PhysWrite, PhysWriteReply, DateQuery,
                          DateReply, LogQuery, LogReply, TxnOutcomeMsg,
                          TxnOutcomeAck, TxnStatusQuery, TxnStatusReply,
                          RelAck>;

/// Wire name of each alternative, indexed by Body::index(). Logs, trace
/// args and per-type counts use these.
inline constexpr std::array<const char*, std::variant_size_v<Body>> kNames = {
    "newvp",        "vp-ok",       "vp-commit",       "probe",
    "probe-ack",    "read",        "read-reply",      "write",
    "write-reply",  "date-query",  "date-reply",      "log-query",
    "log-reply",    "txn-outcome", "txn-outcome-ack", "txn-status-q",
    "txn-status-r", "rel-ack"};

inline const char* NameOf(const Body& body) { return kNames[body.index()]; }

}  // namespace vp::core::msg

#endif  // VPART_CORE_VP_MESSAGES_H_
