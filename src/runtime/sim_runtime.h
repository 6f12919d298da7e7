// SimRuntime: the runtime interfaces implemented over the discrete-event
// kernel (sim/scheduler.h) and the simulated lossy network (net/network.h).
//
// This backend is a pure pass-through — every call forwards 1:1 to the
// scheduler or network, task ids ARE scheduler event ids, and no extra rng
// draws or events are introduced — so a run on SimRuntime is byte-for-byte
// identical to one driving the scheduler/network directly. The golden-trace
// parity test (tests/runtime_parity_test.cc) pins that property.
#ifndef VPART_RUNTIME_SIM_RUNTIME_H_
#define VPART_RUNTIME_SIM_RUNTIME_H_

#include <utility>

#include "net/network.h"
#include "runtime/runtime.h"
#include "sim/scheduler.h"

namespace vp::runtime {

class SimClock final : public Clock {
 public:
  explicit SimClock(sim::Scheduler* scheduler) : scheduler_(scheduler) {}
  TimePoint Now() const override { return scheduler_->Now(); }

 private:
  sim::Scheduler* const scheduler_;
};

class SimExecutor final : public Executor {
 public:
  explicit SimExecutor(sim::Scheduler* scheduler) : scheduler_(scheduler) {}
  TaskId ScheduleAfter(Duration delay, std::function<void()> fn) override {
    return scheduler_->ScheduleAfter(delay, std::move(fn));
  }
  TaskId ScheduleAt(TimePoint when, std::function<void()> fn) override {
    return scheduler_->ScheduleAt(when, std::move(fn));
  }
  void Cancel(TaskId id) override { scheduler_->Cancel(id); }

 private:
  sim::Scheduler* const scheduler_;
};

class SimTransport final : public Transport {
 public:
  explicit SimTransport(net::Network* network) : network_(network) {}
  void Register(ProcessorId p, net::NodeInterface* endpoint) override {
    network_->Register(p, endpoint);
  }
  void Send(net::Message msg) override { network_->Send(std::move(msg)); }
  bool Alive(ProcessorId p) const override {
    return network_->graph()->Alive(p);
  }
  bool CanCommunicate(ProcessorId a, ProcessorId b) const override {
    return network_->graph()->CanCommunicate(a, b);
  }
  double Cost(ProcessorId a, ProcessorId b) const override {
    return network_->graph()->Cost(a, b);
  }
  uint32_t size() const override { return network_->graph()->size(); }
  Duration Delta() const override { return network_->Delta(); }

 private:
  net::Network* const network_;
};

/// The three adapters bundled over one scheduler/network pair. Does not own
/// the scheduler or network; construct it alongside them (harness::Cluster
/// does) and hand out views.
class SimRuntime {
 public:
  SimRuntime(sim::Scheduler* scheduler, net::Network* network)
      : clock_(scheduler), executor_(scheduler), transport_(network) {}
  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  Clock* clock() { return &clock_; }
  Executor* executor() { return &executor_; }
  Transport* transport() { return &transport_; }
  RuntimeView view() { return RuntimeView{&clock_, &executor_, &transport_}; }

 private:
  SimClock clock_;
  SimExecutor executor_;
  SimTransport transport_;
};

}  // namespace vp::runtime

#endif  // VPART_RUNTIME_SIM_RUNTIME_H_
