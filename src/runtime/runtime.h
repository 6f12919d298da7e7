// The runtime abstraction layer: three narrow interfaces that decouple
// protocol logic from its execution substrate.
//
//   * Clock     — where "now" comes from,
//   * Executor  — where deferred work runs (schedule-after/at, cancel),
//   * Transport — how messages reach other processors' endpoints.
//
// Protocol code (NodeBase and its subclasses, ReliableChannel, the lock
// manager's timeouts, workload clients) programs exclusively against these,
// so the same state machines run on two very different backends:
//
//   * SimRuntime (sim_runtime.h): a thin adapter over the discrete-event
//     kernel and the simulated lossy network. Single-threaded, virtual
//     time, bit-for-bit deterministic — one seed, one trace. This is the
//     model-checking substrate the nemesis campaigns run on.
//   * ThreadRuntime (thread_runtime.h): a real-threads backend — worker
//     pool over a mutex+condvar timer wheel, per-link locked-queue
//     in-process transport, steady-clock time. Genuine concurrency, no
//     determinism; this is the substrate perf baselines and TSan runs on.
//
// Time is expressed in the same microsecond units on both backends
// (sim::SimTime / sim::Duration), so protocol timeout constants carry over
// unchanged: Millis(5) is 5 simulated milliseconds on SimRuntime and 5
// wall-clock milliseconds on ThreadRuntime.
#ifndef VPART_RUNTIME_RUNTIME_H_
#define VPART_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "net/message.h"
#include "sim/time.h"

namespace vp::net {
class NodeInterface;  // net/network.h; interface-only dependency.
}  // namespace vp::net

namespace vp::runtime {

/// Absolute time in microseconds. On SimRuntime this is simulated time; on
/// ThreadRuntime it is steady-clock time since runtime construction.
using TimePoint = sim::SimTime;
using Duration = sim::Duration;

/// Handle for a scheduled task; used to cancel it. Task ids are unique per
/// Executor backend (never reused within a run).
using TaskId = uint64_t;
inline constexpr TaskId kInvalidTask = 0;

/// Where "now" comes from.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimePoint Now() const = 0;
};

/// Where deferred work runs.
///
/// Ordering contract: tasks scheduled from the same execution context run
/// in deadline order, ties broken by scheduling order, and never run
/// concurrently with other tasks of the same Executor instance. (On
/// SimRuntime every node shares one global serial executor; on
/// ThreadRuntime each node gets its own serialized strand and distinct
/// strands run in parallel.)
class Executor {
 public:
  virtual ~Executor() = default;

  /// Schedules `fn` to run `delay` from now (delay >= 0). Returns a handle
  /// that can be passed to Cancel.
  virtual TaskId ScheduleAfter(Duration delay, std::function<void()> fn) = 0;

  /// Schedules `fn` at absolute time `when` (>= Now()).
  virtual TaskId ScheduleAt(TimePoint when, std::function<void()> fn) = 0;

  /// Cancels a pending task. Cancelling an already-fired or already-
  /// cancelled task is a no-op. Best-effort on concurrent backends: a task
  /// already dispatched to a worker may still run; guard cancellation-
  /// sensitive closures with a generation check (see runtime/timer.h).
  virtual void Cancel(TaskId id) = 0;
};

/// How messages reach other processors.
///
/// Endpoints are incarnation-aware: Register replaces any previous endpoint
/// for the processor, so a crash-amnesia reboot re-registers its successor
/// object and in-flight deliveries reach the new incarnation (never the
/// retired one). Delivery is at-most-once per send but may drop, duplicate,
/// or reorder depending on the backend's fault configuration.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers (or replaces) the endpoint for processor `p`.
  virtual void Register(ProcessorId p, net::NodeInterface* endpoint) = 0;

  /// Sends a message. The send itself never fails; faults surface as
  /// non-delivery.
  virtual void Send(net::Message msg) = 0;

  /// True if processor `p` is currently up.
  virtual bool Alive(ProcessorId p) const = 0;

  /// True if `a` and `b` can currently exchange messages.
  virtual bool CanCommunicate(ProcessorId a, ProcessorId b) const = 0;

  /// Relative link cost between two processors (>= 1 for distinct
  /// endpoints); protocols use it to pick the nearest copy.
  virtual double Cost(ProcessorId a, ProcessorId b) const = 0;

  /// Number of processors in the system.
  virtual uint32_t size() const = 0;

  /// Upper bound δ on one-hop message delay under fault-free operation.
  /// Protocol timeouts (2δ, 3δ) are derived from this.
  virtual Duration Delta() const = 0;
};

/// The three interfaces a component programs against, bundled for
/// plumbing convenience. Plain pointers; the backend owns the objects.
struct RuntimeView {
  Clock* clock = nullptr;
  Executor* executor = nullptr;
  Transport* transport = nullptr;

  bool complete() const {
    return clock != nullptr && executor != nullptr && transport != nullptr;
  }
};

}  // namespace vp::runtime

#endif  // VPART_RUNTIME_RUNTIME_H_
