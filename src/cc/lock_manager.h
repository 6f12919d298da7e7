// Per-processor strict two-phase-locking lock manager.
//
// Copies (not logical objects) are locked, matching §6's 2PL discussion.
// Shared locks for physical reads, exclusive for physical writes; all locks
// held until transaction end (strict 2PL ⇒ conflict-preserving serializable
// executions, satisfying the paper's assumption A1).
//
// Deadlocks are broken by request timeouts: a request that cannot be
// granted before its deadline fails with Status::Timeout, and the caller
// aborts the transaction.
#ifndef VPART_CC_LOCK_MANAGER_H_
#define VPART_CC_LOCK_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <unordered_map>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"

namespace vp::cc {

enum class LockMode { kShared, kExclusive };

/// Completion callback: OK (granted) or Timeout (deadline passed while
/// queued; caller should abort the transaction).
using LockCallback = std::function<void(Status)>;

/// Lock table for the copies stored at one processor.
///
/// `clock` and `metrics` are optional observability hooks: with a clock the
/// manager records each queued request's enqueue→grant latency into the
/// "lock.wait_us" histogram; without one, wait times are simply not
/// measured. The lock.* counters go to `metrics`, or to the process-global
/// registry when it is null.
class LockManager {
 public:
  explicit LockManager(runtime::Executor* executor,
                       runtime::Clock* clock = nullptr,
                       obs::MetricsRegistry* metrics = nullptr)
      : executor_(executor), clock_(clock) {
    if (metrics == nullptr) metrics = obs::MetricsRegistry::Default();
    ctr_grants_ = metrics->counter("lock.grants");
    ctr_waits_ = metrics->counter("lock.waits");
    ctr_timeouts_ = metrics->counter("lock.timeouts");
    ctr_upgrades_ = metrics->counter("lock.upgrades");
    hist_wait_us_ = metrics->histogram("lock.wait_us");
  }
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests `mode` on `obj` for `txn`. The callback fires exactly once:
  /// synchronously if the lock is immediately grantable or already held,
  /// otherwise later upon grant or timeout. A held shared lock upgrades to
  /// exclusive when `txn` is the sole holder; otherwise the upgrade queues.
  void Acquire(TxnId txn, ObjectId obj, LockMode mode,
               runtime::Duration timeout,
               LockCallback cb);

  /// Releases every lock held by `txn` and cancels its queued requests
  /// (their callbacks do NOT fire). Wakes up compatible waiters.
  void ReleaseAll(TxnId txn);

  /// Drops the whole lock table: cancels every queued request's timeout
  /// (callbacks do NOT fire) and forgets all holders. Used when a
  /// crash-amnesia reboot retires this manager — volatile lock state does
  /// not survive a crash.
  void Shutdown();

  /// True if `txn` currently holds a lock on `obj` of at least `mode`.
  bool Holds(TxnId txn, ObjectId obj, LockMode mode) const;

  /// True if any transaction holds an exclusive lock on `obj`.
  bool IsWriteLocked(ObjectId obj) const;

  /// Transactions currently holding or waiting on any lock.
  size_t active_txns() const { return txn_objects_.size(); }

 private:
  struct Request {
    uint64_t id;
    TxnId txn;
    LockMode mode;
    LockCallback cb;
    runtime::TaskId timeout_task = runtime::kInvalidTask;
    runtime::TimePoint enqueued_at = 0;  // meaningful only with clock_
  };
  struct Lock {
    // Invariant: holders is empty, one exclusive holder, or >=1 shared
    // holders. exclusive==true implies exactly one holder.
    std::set<TxnId> holders;
    bool exclusive = false;
    std::deque<Request> queue;
  };

  /// Grants queued requests that have become compatible (FIFO, no
  /// barging past an incompatible head).
  void PumpQueue(ObjectId obj);

  bool Compatible(const Lock& lock, TxnId txn, LockMode mode) const;
  void Grant(ObjectId obj, Lock& lock, TxnId txn, LockMode mode);
  void CancelTimeout(Request& req);

  runtime::Executor* executor_;
  runtime::Clock* clock_;
  obs::Counter* ctr_grants_;
  obs::Counter* ctr_waits_;
  obs::Counter* ctr_timeouts_;
  obs::Counter* ctr_upgrades_;
  obs::Histogram* hist_wait_us_;
  std::unordered_map<ObjectId, Lock> locks_;
  std::unordered_map<TxnId, std::set<ObjectId>, TxnIdHash> txn_objects_;
  uint64_t next_request_id_ = 1;
};

}  // namespace vp::cc

#endif  // VPART_CC_LOCK_MANAGER_H_
