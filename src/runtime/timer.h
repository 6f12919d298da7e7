// A restartable one-shot timer over any Executor, matching the paper's
// `Timer` objects (Fig. 5-8): `T.set(d)` arms it, `T.reset` disarms it,
// expiry invokes a callback ("T.timeout" branch).
//
// The generation guard makes it safe on concurrent backends too, where
// Cancel is best-effort: a superseded expiry that slips past Cancel still
// finds a stale generation and does nothing. On the sharded ThreadRuntime this
// guard carries real weight — an expiry fires on the owning strand's shard
// while the Cancel may have raced it from anywhere (tombstones only stop
// tasks still in the shard's timer heap; a task already dispatched, or one
// scheduled due-now into the mailbox, runs regardless), and the generation
// check on the owning strand is what makes that harmless. All methods must
// be called from the owning strand (protocol state machines own their
// timers and already run serialized); the expiry closure also runs there,
// so generation_ is strand-serialized end to end.
#ifndef VPART_RUNTIME_TIMER_H_
#define VPART_RUNTIME_TIMER_H_

#include <functional>
#include <utility>

#include "runtime/runtime.h"

namespace vp::runtime {

/// One-shot timer bound to an Executor. Re-arming an armed timer replaces
/// the previous deadline. Not copyable; protocol state machines own theirs.
class Timer {
 public:
  explicit Timer(Executor* executor) : executor_(executor) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { Reset(); }

  /// Arms the timer: `on_timeout` fires after `delay` unless Reset or Set
  /// is called first.
  void Set(Duration delay, std::function<void()> on_timeout) {
    Reset();
    ++generation_;
    const uint64_t gen = generation_;
    task_ = executor_->ScheduleAfter(
        delay, [this, gen, cb = std::move(on_timeout)]() {
          if (gen != generation_) return;  // Superseded by a later Set.
          task_ = kInvalidTask;
          cb();
        });
  }

  /// Disarms the timer (paper: "T.reset"). No-op if not armed.
  void Reset() {
    if (task_ != kInvalidTask) {
      executor_->Cancel(task_);
      task_ = kInvalidTask;
    }
    ++generation_;
  }

  bool armed() const { return task_ != kInvalidTask; }

 private:
  Executor* executor_;
  TaskId task_ = kInvalidTask;
  uint64_t generation_ = 0;
};

}  // namespace vp::runtime

#endif  // VPART_RUNTIME_TIMER_H_
