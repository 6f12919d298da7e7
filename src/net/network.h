// The message-passing service over a CommGraph: samples delays and faults,
// schedules deliveries on the simulation kernel, dispatches to nodes, and
// keeps per-type traffic statistics.
//
// Failure model (paper §2, extended by the nemesis fault model):
//  * omission failures  — a message is dropped with `drop_prob`, or because
//    an endpoint is crashed or the edge is down at delivery-decision time;
//  * performance failures — with `slow_prob` a message's delay is drawn
//    from [slow_min_delay, slow_max_delay], typically beyond the protocol's
//    assumed bound δ;
//  * duplication — with `dup_prob` a second copy of the message is
//    delivered at an independently sampled delay;
//  * adversarial reordering — with `reorder_prob` a message is held back by
//    an extra burst delay so that later sends on the same edge overtake it
//    (per-edge FIFO is never guaranteed; this makes inversions frequent).
#ifndef VPART_NET_NETWORK_H_
#define VPART_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/message.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"

namespace vp::net {

/// A protocol endpoint. Each processor registers exactly one handler.
class NodeInterface {
 public:
  virtual ~NodeInterface() = default;
  /// Invoked at delivery time (receiver alive, edge was up at send time).
  virtual void HandleMessage(const Message& msg) = 0;
};

/// Tunable delay/fault parameters.
struct NetworkConfig {
  /// Normal per-hop delay range, scaled by the edge cost:
  /// delay ~ U[min_delay, max_delay] * cost(src, dst). There are no
  /// local messages: a node serves its own copies by direct call.
  sim::Duration min_delay = sim::Millis(1);
  sim::Duration max_delay = sim::Millis(5);

  /// Probability a message is silently lost (omission failure).
  double drop_prob = 0.0;

  /// Probability a message is delayed into the slow range (performance
  /// failure); drawn after the drop decision.
  double slow_prob = 0.0;
  sim::Duration slow_min_delay = sim::Millis(50);
  sim::Duration slow_max_delay = sim::Millis(200);

  /// Probability a delivered message is duplicated: a second copy arrives
  /// at an independently sampled delay (possibly before the first).
  double dup_prob = 0.0;

  /// Probability a message gets an extra adversarial hold-back delay drawn
  /// from [reorder_min_extra, reorder_max_extra], letting later sends on
  /// the same edge overtake it.
  double reorder_prob = 0.0;
  sim::Duration reorder_min_extra = sim::Millis(10);
  sim::Duration reorder_max_extra = sim::Millis(40);
};

/// Traffic counters.
struct NetworkStats {
  uint64_t sent = 0;
  /// Sends between distinct processors. Equal to `sent`, since nodes
  /// never send to themselves; cost metrics read this one.
  uint64_t sent_remote = 0;
  uint64_t delivered = 0;
  uint64_t dropped_fault = 0;       // Random omission.
  uint64_t dropped_no_route = 0;    // Edge down / endpoint crashed at send.
  uint64_t dropped_dead_receiver = 0;  // Receiver crashed before delivery.
  uint64_t slow = 0;                // Performance-failure deliveries.
  uint64_t duplicated = 0;          // Extra copies scheduled by dup_prob.
  uint64_t reordered = 0;           // Messages given an adversarial hold-back.
  /// Sends per message type, indexed by Body::index() (names in
  /// core::msg::kNames).
  std::array<uint64_t, std::variant_size_v<Body>> sent_by_type{};

  void Reset() { *this = NetworkStats(); }
};

/// The simulated network.
class Network {
 public:
  Network(sim::Scheduler* scheduler, CommGraph* graph, NetworkConfig config,
          uint64_t seed);

  /// Registers the handler for processor `p`. Must be called once per
  /// processor before any message can be delivered to it.
  void Register(ProcessorId p, NodeInterface* node);

  /// Sends a message. The send itself never fails; faults surface as
  /// non-delivery. Messages from/to crashed processors are dropped.
  void Send(Message msg);

  const NetworkStats& stats() const { return stats_; }
  NetworkStats* mutable_stats() { return &stats_; }

  /// Mirrors message counts into `registry` ("net.msgs_sent",
  /// "net.msgs_remote", "net.msgs_delivered") from this call on. The
  /// harness attaches its per-cluster registry right after construction;
  /// unattached networks fall back to the process-global default.
  void AttachMetrics(obs::MetricsRegistry* registry);

  CommGraph* graph() { return graph_; }
  const CommGraph* graph() const { return graph_; }
  sim::Scheduler* scheduler() { return scheduler_; }
  NetworkConfig* mutable_config() { return &config_; }
  const NetworkConfig& config() const { return config_; }

  /// An upper bound δ on one-hop message delay under fault-free operation,
  /// for the worst-cost edge in the graph. Protocol timeouts (2δ, 3δ) are
  /// derived from this.
  sim::Duration Delta() const;

 private:
  sim::Duration SampleDelay(ProcessorId src, ProcessorId dst, bool* slow);
  void ScheduleDelivery(Message msg, sim::Duration delay);

  sim::Scheduler* scheduler_;
  CommGraph* graph_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<NodeInterface*> nodes_;
  NetworkStats stats_;
  obs::Counter* ctr_sent_;
  obs::Counter* ctr_remote_;
  obs::Counter* ctr_delivered_;
};

}  // namespace vp::net

#endif  // VPART_NET_NETWORK_H_
