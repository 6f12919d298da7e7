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
// marks a reliable data message that the receiver acks (with a RelAck
// body) and deduplicates before handing the same message up. So do the
// 2PC outcome acks a participant owes the destination (`outcome_acks`):
// any message to a coordinator carries them, whatever its body.
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
  /// Transactions whose outcome the sender has applied as a participant
  /// and acknowledges to the destination, their coordinator
  /// (core/node_base.h, OweOutcomeAck). Applied on receipt before the
  /// body, whatever the body is.
  std::vector<TxnId> outcome_acks;
};

}  // namespace vp::net

#endif  // VPART_NET_MESSAGE_H_
