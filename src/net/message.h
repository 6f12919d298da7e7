// Messages exchanged between processors.
//
// The wire type is closed: a message body is one alternative of
// core::msg::Body (core/vp_messages.h), the fixed set of protocol messages
// from the paper's figures plus the reliable channel's ack. Handlers
// dispatch on the alternative (std::get_if); core::msg::kNames gives each
// alternative its wire name for logs, trace args and per-type counts. The
// body header depends only on common/ and cc/txn.h, so the network layer
// takes no link dependency on the protocol code.
//
// The reliable-channel envelope rides in the header: a nonzero `rel_id`
// marks a reliable data message that the receiver deduplicates before
// handing the same message up. Its ack rides in the header too
// (`ack_rel_id`), on the receiver's next message back to the sender
// within the same dispatch, or on an empty RelAck body when none goes.
// So do the 2PC outcome acks a participant owes the destination
// (`outcome_acks`): any message to a coordinator carries them, whatever
// its body.
#ifndef VPART_NET_MESSAGE_H_
#define VPART_NET_MESSAGE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/vp_messages.h"
#include "sim/time.h"

namespace vp::net {

using Body = core::msg::Body;

/// One network message. Value type; the network copies it into the event
/// queue at send time.
struct Message {
  ProcessorId src = kInvalidProcessor;
  ProcessorId dst = kInvalidProcessor;
  Body body;
  /// Time at which Send was called (set by the transport).
  sim::SimTime sent_at = 0;
  /// Causal trace id (obs/trace.h): assigned per logical transaction (or
  /// view-change attempt) and propagated through physical ops, 2PC
  /// messages, and reliable-channel retransmits. 0 = untraced. Carried
  /// verbatim by the network; never affects routing or delivery.
  uint64_t trace = 0;
  /// Reliable-channel id (net/reliable_channel.h); 0 = raw send. Salted
  /// with the sender's incarnation, which `rel_incarnation` repeats so the
  /// ack can echo it.
  uint64_t rel_id = 0;
  uint32_t rel_incarnation = 0;
  /// The sender's lowest unacked reliable id when this copy went out (0
  /// on raw sends). Every id of `rel_incarnation` below it is settled, so
  /// the receiver forgets those ids and treats a late copy of one as a
  /// duplicate.
  uint64_t rel_floor = 0;
  /// A reliable-channel ack the sender owes the destination: it settles
  /// the destination's send `ack_rel_id` of incarnation `ack_incarnation`.
  /// 0 = none. Settled on receipt, whatever the body is.
  uint64_t ack_rel_id = 0;
  uint32_t ack_incarnation = 0;
  /// Transactions whose outcome the sender has applied as a participant
  /// and acknowledges to the destination, their coordinator
  /// (core/node_base.h, OweOutcomeAck). Applied on receipt before the
  /// body, whatever the body is.
  std::vector<TxnId> outcome_acks;
};

}  // namespace vp::net

#endif  // VPART_NET_MESSAGE_H_
