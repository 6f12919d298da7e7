#include "net/reliable_channel.h"

#include <algorithm>

#include "common/logging.h"

namespace vp::net {

ReliableChannel::ReliableChannel(runtime::Clock* clock,
                                 runtime::Executor* executor,
                                 runtime::Transport* transport,
                                 ProcessorId self, uint32_t incarnation,
                                 ReliableConfig config,
                                 obs::MetricsRegistry* metrics,
                                 obs::Tracer* tracer,
                                 obs::FlightRecorder* fdr)
    : clock_(clock),
      executor_(executor),
      transport_(transport),
      self_(self),
      incarnation_(incarnation),
      config_(config),
      // Per-node, per-incarnation jitter stream, independent of the
      // network's rng so retransmission timing never perturbs unrelated
      // delay draws.
      rng_(config.jitter_seed ^
           (0x9e3779b97f4a7c15ULL * (uint64_t{self} + 1)) ^
           (uint64_t{incarnation} << 32)),
      // Same salting idiom as NodeBase op ids: a rebooted sender never
      // reissues an id from a previous life, so stale acks and stale dedup
      // entries can never match a new send.
      next_rel_id_(1 + (uint64_t{incarnation} << 40)) {
  VP_CHECK(clock_ != nullptr && executor_ != nullptr &&
           transport_ != nullptr);
  if (metrics == nullptr) metrics = obs::MetricsRegistry::Default();
  tracer_ = tracer != nullptr ? tracer : obs::Tracer::Disabled();
  fdr_ = fdr != nullptr ? fdr : obs::FlightRecorder::Disabled();
  ctr_sends_ = metrics->counter("rel.sends");
  ctr_retransmits_ = metrics->counter("rel.retransmits");
  ctr_acks_ = metrics->counter("rel.acks");
  ctr_stale_acks_ = metrics->counter("rel.stale_acks");
  ctr_delivered_ = metrics->counter("rel.delivered");
  ctr_dups_ = metrics->counter("rel.dups_suppressed");
  ctr_timed_out_ = metrics->counter("rel.timed_out");
  VP_CHECK_MSG(config_.delivery_deadline > 0,
               "delivery deadline must be finite: the simulation runs to "
               "idle and cannot host unbounded retransmission loops");
  VP_CHECK(config_.retransmit_initial > 0 && config_.retransmit_max > 0);
  VP_CHECK(config_.backoff_factor >= 1.0);
}

runtime::Duration ReliableChannel::Jittered(runtime::Duration d) {
  if (config_.jitter <= 0.0) return d;
  const auto span = static_cast<int64_t>(static_cast<double>(d) *
                                         config_.jitter);
  if (span <= 0) return d;
  return d + rng_.UniformInt(0, span);
}

uint64_t ReliableChannel::Send(ProcessorId dst, Body body,
                               TimeoutFn on_timeout, uint64_t trace,
                               RetransmitFn on_retransmit) {
  const uint64_t rel_id = next_rel_id_++;
  Pending p;
  p.msg.src = self_;
  p.msg.dst = dst;
  p.msg.body = std::move(body);
  p.msg.trace = trace;
  p.msg.rel_id = rel_id;
  p.msg.rel_incarnation = incarnation_;
  p.deadline = clock_->Now() + config_.delivery_deadline;
  p.next_delay = config_.retransmit_initial;
  p.on_timeout = std::move(on_timeout);
  p.on_retransmit = std::move(on_retransmit);
  p.last_tx = clock_->Now();
  if (stamp_) stamp_(p.msg);
  auto [it, inserted] = pending_.emplace(rel_id, std::move(p));
  VP_CHECK(inserted);
  ++stats_.sends;
  ctr_sends_->Increment();
  transport_->Send(it->second.msg);
  ArmTimer(rel_id);
  return rel_id;
}

void ReliableChannel::ArmTimer(uint64_t rel_id) {
  auto it = pending_.find(rel_id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  const runtime::Duration delay = Jittered(p.next_delay);
  p.timer = executor_->ScheduleAfter(
      delay, [this, rel_id]() { OnTimer(rel_id); });
}

void ReliableChannel::OnTimer(uint64_t rel_id) {
  auto it = pending_.find(rel_id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  p.timer = runtime::kInvalidTask;
  if (clock_->Now() >= p.deadline) {
    // Give up: surface an explicit timeout instead of silent loss. Move
    // the hook out first — it may re-enter the channel.
    TimeoutFn on_timeout = std::move(p.on_timeout);
    pending_.erase(it);
    ++stats_.timed_out;
    ctr_timed_out_->Increment();
    if (on_timeout) on_timeout();
    return;
  }
  ++stats_.retransmits;
  ctr_retransmits_->Increment();
  const runtime::TimePoint now = clock_->Now();
  tracer_->Instant(p.msg.trace, self_, static_cast<uint64_t>(now),
                   "rel.retransmit", "rel",
                   {{"type", core::msg::NameOf(p.msg.body)}});
  {
    obs::FdrEvent e;
    e.ts_us = static_cast<int64_t>(now);
    e.node = self_;
    e.kind = obs::FdrKind::kRetransmit;
    e.a = rel_id;
    e.b = static_cast<uint64_t>(p.msg.dst);
    fdr_->Record(e);
  }
  if (p.on_retransmit) p.on_retransmit(now - p.last_tx);
  p.last_tx = now;
  transport_->Send(p.msg);
  p.next_delay = std::min<runtime::Duration>(
      static_cast<runtime::Duration>(static_cast<double>(p.next_delay) *
                                 config_.backoff_factor),
      config_.retransmit_max);
  ArmTimer(rel_id);
}

bool ReliableChannel::HandleMessage(const Message& m,
                                    const DeliverFn& deliver) {
  if (const auto* ack = std::get_if<core::msg::RelAck>(&m.body)) {
    if (ack->incarnation != incarnation_) {
      // Ack addressed to a previous life of this processor; the pending
      // send it settles died with that incarnation's volatile state.
      ++stats_.stale_acks;
      ctr_stale_acks_->Increment();
      return true;
    }
    auto it = pending_.find(ack->rel_id);
    if (it == pending_.end()) {
      // Duplicate ack, or an ack racing a just-expired deadline.
      ++stats_.stale_acks;
      ctr_stale_acks_->Increment();
      return true;
    }
    ++stats_.acks_received;
    ctr_acks_->Increment();
    executor_->Cancel(it->second.timer);
    pending_.erase(it);
    return true;
  }
  if (m.rel_id == 0) return false;

  // Ack every copy (the first transmission's ack may have been lost; the
  // retransmission that follows must still be acknowledged or the sender
  // retries forever-until-deadline).
  Message ack;
  ack.src = m.dst;
  ack.dst = m.src;
  ack.body = core::msg::RelAck{m.rel_id, m.rel_incarnation};
  ack.trace = m.trace;
  if (stamp_) stamp_(ack);
  transport_->Send(std::move(ack));
  if (!seen_[m.src].insert(m.rel_id).second) {
    ++stats_.dup_suppressed;
    ctr_dups_->Increment();
    return true;
  }
  ++stats_.delivered;
  ctr_delivered_->Increment();
  deliver(m);
  return true;
}

void ReliableChannel::Cancel(uint64_t rel_id) {
  auto it = pending_.find(rel_id);
  if (it == pending_.end()) return;
  executor_->Cancel(it->second.timer);
  pending_.erase(it);
}

void ReliableChannel::Shutdown() {
  for (auto& [rel_id, p] : pending_) {
    executor_->Cancel(p.timer);
  }
  pending_.clear();
}

void ReliableChannel::Orphan() {
  for (auto& [rel_id, p] : pending_) {
    p.on_timeout = nullptr;
    p.on_retransmit = nullptr;
  }
}

}  // namespace vp::net
