#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace vp::net {

Network::Network(sim::Scheduler* scheduler, CommGraph* graph,
                 NetworkConfig config, uint64_t seed)
    : scheduler_(scheduler),
      graph_(graph),
      config_(config),
      rng_(seed),
      nodes_(graph->size(), nullptr) {
  AttachMetrics(obs::MetricsRegistry::Default());
}

void Network::AttachMetrics(obs::MetricsRegistry* registry) {
  ctr_sent_ = registry->counter("net.msgs_sent");
  ctr_remote_ = registry->counter("net.msgs_remote");
  ctr_delivered_ = registry->counter("net.msgs_delivered");
}

void Network::Register(ProcessorId p, NodeInterface* node) {
  VP_CHECK(p < nodes_.size());
  nodes_[p] = node;
}

sim::Duration Network::Delta() const {
  double max_cost = 1.0;
  for (ProcessorId a = 0; a < graph_->size(); ++a)
    for (ProcessorId b = a + 1; b < graph_->size(); ++b)
      max_cost = std::max(max_cost, graph_->Cost(a, b));
  return static_cast<sim::Duration>(
      std::ceil(static_cast<double>(config_.max_delay) * max_cost));
}

sim::Duration Network::SampleDelay(ProcessorId src, ProcessorId dst,
                                   bool* slow) {
  *slow = false;
  if (config_.slow_prob > 0 && rng_.Bernoulli(config_.slow_prob)) {
    *slow = true;
    return rng_.UniformInt(config_.slow_min_delay, config_.slow_max_delay);
  }
  const double cost = graph_->Cost(src, dst);
  const auto base =
      rng_.UniformInt(config_.min_delay, config_.max_delay);
  return static_cast<sim::Duration>(
      std::ceil(static_cast<double>(base) * std::max(cost, 0.01)));
}

void Network::Send(Message msg) {
  VP_CHECK(msg.src < nodes_.size() && msg.dst < nodes_.size());
  // Nodes deliver to themselves by direct call (NodeBase::SendPhys).
  VP_CHECK_MSG(msg.src != msg.dst, "self-send through the network");
  msg.sent_at = scheduler_->Now();
  ++stats_.sent;
  ctr_sent_->Increment();
  ++stats_.sent_remote;
  ctr_remote_->Increment();
  ++stats_.sent_by_type[msg.body.index()];

  // Route check at send time: the can-communicate relation of the moment.
  if (!graph_->CanCommunicate(msg.src, msg.dst)) {
    ++stats_.dropped_no_route;
    return;
  }
  if (config_.drop_prob > 0 &&
      rng_.Bernoulli(config_.drop_prob)) {
    ++stats_.dropped_fault;
    return;
  }
  bool slow = false;
  sim::Duration delay = SampleDelay(msg.src, msg.dst, &slow);
  if (slow) ++stats_.slow;
  if (config_.reorder_prob > 0 &&
      rng_.Bernoulli(config_.reorder_prob)) {
    // Adversarial hold-back: later sends on this edge overtake this one.
    delay += rng_.UniformInt(config_.reorder_min_extra,
                             config_.reorder_max_extra);
    ++stats_.reordered;
  }
  if (config_.dup_prob > 0 &&
      rng_.Bernoulli(config_.dup_prob)) {
    bool dup_slow = false;
    const sim::Duration dup_delay = SampleDelay(msg.src, msg.dst, &dup_slow);
    ++stats_.duplicated;
    ScheduleDelivery(msg, dup_delay);
  }
  ScheduleDelivery(std::move(msg), delay);
}

void Network::ScheduleDelivery(Message msg, sim::Duration delay) {
  scheduler_->ScheduleAfter(delay, [this, m = std::move(msg)]() {
    // Deliveries to processors that crashed in flight are lost; a link
    // direction that went down in flight also loses the message (omission
    // semantics).
    if (!graph_->Alive(m.dst) || !graph_->EdgeUp(m.src, m.dst)) {
      ++stats_.dropped_dead_receiver;
      return;
    }
    NodeInterface* node = nodes_[m.dst];
    VP_CHECK_MSG(node != nullptr, "message to unregistered processor");
    ++stats_.delivered;
    ctr_delivered_->Increment();
    node->HandleMessage(m);
  });
}

}  // namespace vp::net
