// Wire messages of the virtual-partition protocol. Names follow the paper's
// figures: "newvp" / "OK" / "commit" (Fig. 5-6), "probe" / "ack" (Fig. 7-8),
// "read" / "write" and their replies (Fig. 10-12), the partition-
// initialization exchange (Fig. 9, one request per holder), plus the
// transaction-outcome subprotocol that realizes atomic commitment of staged
// writes and the reliable channel's ack. `Body` closes the set: every
// protocol (VP, quorum consensus, the naive-view strawman) speaks only these
// messages.
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

/// Physical read request of a transaction (R2's read-one).
struct PhysRead {
  TxnId txn;
  ObjectId obj = kInvalidObject;
  VpId v;
  /// Configuration epoch the issuing transaction runs under. Accesses from
  /// a different epoch are rejected deterministically ("stale-epoch"/
  /// "future-epoch").
  EpochId epoch = 0;
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

// ---- Partition initialization (Fig. 9, R5, and the §6 variants) ----

/// What one recovery item asks a holder for: the §6 mode, per object.
enum class RecoveryWant : uint8_t {
  kValue,  ///< The copy's value and date (§5 full read; date-poll fetch).
  kLog,    ///< The writes committed since `after` (§6 optimization 2).
  kDate,   ///< The date only (§6 optimized search).
};

/// One recovering member's R5 request to one holder: every object it
/// initializes from that holder in this join. Items are served from the
/// committed version, each under its own short shared lock, so a staged
/// write resolves first (§6 condition (3)); they are exempt from epoch
/// gating, being how a new epoch's copies are brought current.
struct RecoveryRead {
  struct Item {
    ObjectId obj = kInvalidObject;
    /// The recovering member's per-object recovery (PendingRecovery).
    uint64_t op_id = 0;
    RecoveryWant want = RecoveryWant::kValue;
    /// kLog: the recovering copy's date.
    VpId after;
  };
  VpId v;
  std::vector<Item> items;
};

/// Answers to RecoveryRead items. The holder answers every item it serves
/// within the dispatch that received the request in one reply; an item
/// that waited for a write lock is answered alone, when its lock grants or
/// times out.
struct RecoveryReply {
  struct Item {
    uint64_t op_id = 0;
    bool ok = false;
    /// Failure reason when !ok: "wrong-vp", "no-copy", "lock-timeout".
    std::string error;
    VpId date;
    /// kValue: the copy's value.
    Value value;
    /// kLog: (date, value, txn) triples, ascending by date.
    std::vector<std::tuple<VpId, Value, TxnId>> records;
  };
  std::vector<Item> items;
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
                          PhysReadReply, PhysWrite, PhysWriteReply,
                          RecoveryRead, RecoveryReply, TxnOutcomeMsg,
                          TxnOutcomeAck, TxnStatusQuery, TxnStatusReply,
                          RelAck>;

/// Wire name of each alternative, indexed by Body::index(). Logs, trace
/// args and per-type counts use these.
inline constexpr std::array<const char*, std::variant_size_v<Body>> kNames = {
    "newvp",        "vp-ok",         "vp-commit",      "probe",
    "probe-ack",    "read",          "read-reply",     "write",
    "write-reply",  "recovery-read", "recovery-reply", "txn-outcome",
    "txn-outcome-ack", "txn-status-q", "txn-status-r", "rel-ack"};

inline const char* NameOf(const Body& body) { return kNames[body.index()]; }

}  // namespace vp::core::msg

#endif  // VPART_CORE_VP_MESSAGES_H_
