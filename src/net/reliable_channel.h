// Reliable delivery over the lossy simulated network.
//
// The source paper assumes messages are "eventually delivered or the link
// is declared down"; the simulator's Network deliberately violates that
// assumption (drop_prob, slow_prob, dup_prob, reorder_prob). This layer
// restores it for the messages that need it: a ReliableChannel sits between
// one protocol node and the Network, assigns each outgoing message a
// monotonic id, buffers it until the receiver acknowledges, and
// retransmits on a sim-timer with exponential backoff plus deterministic
// jitter. Receivers acknowledge every copy and deduplicate by (sender,
// id), so the protocol above sees at-most-once delivery of each send.
//
// Two deliberate departures from a real transport:
//  * Retransmission is bounded by a per-message delivery deadline. The
//    whole simulation runs to idle, so an unacked message must not retry
//    forever; when the deadline passes the sender's on_timeout hook fires
//    and the caller gets an explicit timeout instead of silent loss.
//  * Acks ride the raw network (no ack-of-ack): a lost ack is repaired by
//    the next retransmission of the data message itself.
//
// Crash-amnesia: message ids are salted with the sender's incarnation
// (same idiom as NodeBase op ids), and every ack echoes the incarnation it
// acknowledges. A rebooted sender therefore ignores acks addressed to its
// previous life, and never confuses a predecessor's pending send with its
// own. Receiver-side dedup state is volatile — a reboot may accept one
// redelivery of an already-processed message — which is safe because every
// routed handler is already duplicate-tolerant (the network duplicates
// messages on its own via dup_prob).
#ifndef VPART_NET_RELIABLE_CHANNEL_H_
#define VPART_NET_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "common/types.h"
#include "net/message.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"

namespace vp::net {

/// Knobs for the reliable-delivery layer. Shared by every protocol (the
/// harness wires one config into each node's environment).
struct ReliableConfig {
  /// Master switch. Off = sends go straight to the network, exactly the
  /// pre-reliability behavior (no extra rng draws, no acks).
  bool enabled = false;

  /// Delay before the first retransmission of an unacked message. Should
  /// comfortably exceed one round trip (2δ) under fault-free delays.
  sim::Duration retransmit_initial = sim::Millis(8);

  /// Each further retransmission multiplies the delay by this factor...
  double backoff_factor = 2.0;

  /// ...up to this cap.
  sim::Duration retransmit_max = sim::Millis(64);

  /// Additive jitter: each retransmission delay is stretched by up to this
  /// fraction of itself, drawn from the channel's own deterministic rng
  /// stream (retransmissions must not perturb the network's draw sequence
  /// for unrelated messages more than their existence already does).
  double jitter = 0.2;

  /// Give up on a message this long after Send. Must be finite: the
  /// simulation runs to idle, and an unreachable peer would otherwise be
  /// retried forever. Callers see the give-up via their on_timeout hook.
  sim::Duration delivery_deadline = sim::Millis(100);

  /// Seed for the jitter rng; the harness mixes the run seed in so a run
  /// stays a pure function of (seed, plan).
  uint64_t jitter_seed = 0;
};

/// Per-channel counters, surfaced through ProtocolStats and campaign
/// summaries (retransmits reported alongside fsyncs).
struct ReliableStats {
  uint64_t sends = 0;            // Messages entrusted to the channel.
  uint64_t retransmits = 0;      // Transmissions beyond each first one.
  uint64_t acks_received = 0;    // Acks matching a pending send.
  uint64_t stale_acks = 0;       // Acks for unknown ids / other incarnations.
  uint64_t delivered = 0;        // Data messages passed up to the node.
  uint64_t dup_suppressed = 0;   // Data messages dropped by receiver dedup.
  uint64_t timed_out = 0;        // Sends abandoned at the delivery deadline.
};

/// One node's endpoint of the reliable-delivery layer. Owns the pending
/// (unacked) send buffer, the retransmit timers, and the receiver-side
/// dedup table. Not used when ReliableConfig.enabled is false.
class ReliableChannel {
 public:
  /// Fires when a send's delivery deadline passes without an ack.
  using TimeoutFn = std::function<void()>;
  /// Fires on each retransmission of a pending send with the time elapsed
  /// since the previous transmission — the stall the lost copy cost the
  /// caller. Critical-path attribution charges this window to
  /// txn.path.retransmit_stall instead of quorum RTT.
  using RetransmitFn = std::function<void(runtime::Duration stall)>;
  /// Receives the first copy of each reliable data message.
  using DeliverFn = std::function<void(const Message&)>;
  /// Fills header fields the owner piggybacks on outgoing traffic (its
  /// owed 2PC outcome acks) just before the channel hands a data message
  /// or a RelAck to the transport.
  using StampFn = std::function<void(Message&)>;

  /// `metrics`/`tracer`/`fdr` may be null (process-global fallbacks are
  /// used): the channel mirrors its counters into the registry, records a
  /// flight-recorder event per retransmission, and, when tracing, emits an
  /// instant event per retransmission carrying the payload's trace id.
  ReliableChannel(runtime::Clock* clock, runtime::Executor* executor,
                  runtime::Transport* transport, ProcessorId self,
                  uint32_t incarnation, ReliableConfig config,
                  obs::MetricsRegistry* metrics = nullptr,
                  obs::Tracer* tracer = nullptr,
                  obs::FlightRecorder* fdr = nullptr);

  /// Sends `body` to `dst` with at-most-once delivery and retransmission
  /// until acked or `delivery_deadline` passes (then `on_timeout`, if
  /// given, fires once). Returns the message id, which rides in the
  /// header's `rel_id`. `trace` is the causal trace id stamped on every
  /// transmission of this message, retransmissions included.
  /// `on_retransmit`, if given, fires on every retransmission with the
  /// stall since the previous copy went out.
  uint64_t Send(ProcessorId dst, Body body,
                TimeoutFn on_timeout = nullptr, uint64_t trace = 0,
                RetransmitFn on_retransmit = nullptr);

  /// Consumes channel traffic. For a reliable data message (`rel_id` !=
  /// 0): acks it, drops duplicates, and hands the first copy to `deliver`.
  /// For a RelAck: settles the matching pending send. Returns false for a
  /// raw message (caller dispatches it).
  bool HandleMessage(const Message& m, const DeliverFn& deliver);

  /// Abandons one pending send: stops its retransmissions and forgets its
  /// on_timeout hook (copies already in flight may still arrive and be
  /// acked; the late ack is simply stale). Callers use this when a quorum
  /// operation completes before every polled copy replied — the leftover
  /// requests must stop retrying a reply nobody will read. No-op for ids
  /// already settled.
  void Cancel(uint64_t rel_id);

  /// Cancels every retransmit timer and abandons pending sends without
  /// firing their on_timeout hooks.
  void Shutdown();

  /// Detaches pending sends from their owner: every on_timeout and
  /// on_retransmit hook is cleared, but the messages themselves keep
  /// retransmitting until acked
  /// or their deadline passes. Called when a node object is retired by a
  /// crash-amnesia reboot: in particular its coordinator ABORT broadcasts
  /// stay in flight, so a processor revived within the delivery deadline
  /// still gets them delivered instead of silently dropped at send time
  /// (the in-doubt sweep remains the backstop for longer outages).
  void Orphan();

  /// Installs the owner's header stamp (see StampFn). A data message is
  /// stamped once, at its first transmission; retransmissions repeat it.
  void set_stamp(StampFn stamp) { stamp_ = std::move(stamp); }

  const ReliableStats& stats() const { return stats_; }
  size_t pending_count() const { return pending_.size(); }

 private:
  struct Pending {
    /// The data message, header envelope and trace id included; every
    /// (re)transmission sends a copy of it.
    Message msg;
    runtime::TimePoint deadline = 0;
    runtime::Duration next_delay = 0;
    runtime::TaskId timer = runtime::kInvalidTask;
    TimeoutFn on_timeout;
    RetransmitFn on_retransmit;
    runtime::TimePoint last_tx = 0;  // when the latest copy went out
  };

  void ArmTimer(uint64_t rel_id);
  void OnTimer(uint64_t rel_id);
  runtime::Duration Jittered(runtime::Duration d);

  runtime::Clock* const clock_;
  runtime::Executor* const executor_;
  runtime::Transport* const transport_;
  const ProcessorId self_;
  const uint32_t incarnation_;
  const ReliableConfig config_;
  Rng rng_;

  uint64_t next_rel_id_;
  std::map<uint64_t, Pending> pending_;
  /// Receiver dedup: ids already delivered, per sender. Senders salt ids
  /// with their incarnation, so entries from a peer's previous life can
  /// never collide with its next one.
  std::unordered_map<ProcessorId, std::unordered_set<uint64_t>> seen_;
  ReliableStats stats_;
  StampFn stamp_;

  obs::Tracer* tracer_;
  obs::FlightRecorder* fdr_;
  obs::Counter* ctr_sends_;
  obs::Counter* ctr_retransmits_;
  obs::Counter* ctr_acks_;
  obs::Counter* ctr_stale_acks_;
  obs::Counter* ctr_delivered_;
  obs::Counter* ctr_dups_;
  obs::Counter* ctr_timed_out_;
};

}  // namespace vp::net

#endif  // VPART_NET_RELIABLE_CHANNEL_H_
