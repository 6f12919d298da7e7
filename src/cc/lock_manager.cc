#include "cc/lock_manager.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace vp::cc {

bool LockManager::Compatible(const Lock& lock, TxnId txn,
                             LockMode mode) const {
  if (lock.holders.empty()) return true;
  if (lock.exclusive) {
    // Only re-entrant acquisition by the exclusive holder is compatible.
    return lock.holders.count(txn) > 0;
  }
  // Shared held.
  if (mode == LockMode::kShared) return true;
  // Upgrade: compatible only if txn is the sole shared holder.
  return lock.holders.size() == 1 && lock.holders.count(txn) > 0;
}

void LockManager::Grant(ObjectId obj, Lock& lock, TxnId txn, LockMode mode) {
  const bool upgrade = !lock.exclusive && mode == LockMode::kExclusive &&
                       lock.holders.count(txn) > 0;
  lock.holders.insert(txn);
  if (mode == LockMode::kExclusive) lock.exclusive = true;
  txn_objects_[txn].insert(obj);
  ctr_grants_->Increment();
  if (upgrade) ctr_upgrades_->Increment();
}

void LockManager::Acquire(TxnId txn, ObjectId obj, LockMode mode,
                          runtime::Duration timeout, LockCallback cb) {
  Lock& lock = locks_[obj];

  // Already held at sufficient strength?
  if (lock.holders.count(txn) > 0) {
    if (lock.exclusive || mode == LockMode::kShared) {
      cb(Status::Ok());
      return;
    }
  }

  // FIFO fairness: only grant immediately when nobody is queued, or when
  // this is an upgrade by the sole holder (which must barge, else the
  // upgrade could deadlock behind its own shared lock).
  const bool sole_upgrade = !lock.exclusive && mode == LockMode::kExclusive &&
                            lock.holders.size() == 1 &&
                            lock.holders.count(txn) > 0;
  if ((lock.queue.empty() || sole_upgrade) && Compatible(lock, txn, mode)) {
    Grant(obj, lock, txn, mode);
    cb(Status::Ok());
    return;
  }

  // Queue the request with a timeout.
  ctr_waits_->Increment();
  Request req;
  req.id = next_request_id_++;
  req.txn = txn;
  req.mode = mode;
  req.cb = std::move(cb);
  if (clock_ != nullptr) req.enqueued_at = clock_->Now();
  const uint64_t req_id = req.id;
  req.timeout_task =
      executor_->ScheduleAfter(timeout, [this, obj, req_id]() {
        auto lit = locks_.find(obj);
        if (lit == locks_.end()) return;
        auto& queue = lit->second.queue;
        auto it = std::find_if(queue.begin(), queue.end(),
                               [&](const Request& r) { return r.id == req_id; });
        if (it == queue.end()) return;
        LockCallback cb2 = std::move(it->cb);
        queue.erase(it);
        ctr_timeouts_->Increment();
        PumpQueue(obj);
        cb2(Status::Timeout("lock wait timeout"));
      });
  lock.queue.push_back(std::move(req));
}

void LockManager::PumpQueue(ObjectId obj) {
  auto lit = locks_.find(obj);
  if (lit == locks_.end()) return;
  Lock& lock = lit->second;
  while (!lock.queue.empty()) {
    Request& head = lock.queue.front();
    if (!Compatible(lock, head.txn, head.mode)) break;
    Request granted = std::move(head);
    lock.queue.pop_front();
    CancelTimeout(granted);
    if (clock_ != nullptr) {
      hist_wait_us_->Observe(
          static_cast<uint64_t>(clock_->Now() - granted.enqueued_at));
    }
    Grant(obj, lock, granted.txn, granted.mode);
    granted.cb(Status::Ok());
    // Granting may have changed the lock state (or the callback may have
    // released locks); re-evaluate from the new head.
    lit = locks_.find(obj);
    if (lit == locks_.end()) return;
  }
}

void LockManager::CancelTimeout(Request& req) {
  if (req.timeout_task != runtime::kInvalidTask) {
    executor_->Cancel(req.timeout_task);
    req.timeout_task = runtime::kInvalidTask;
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  auto tit = txn_objects_.find(txn);
  std::set<ObjectId> touched;
  if (tit != txn_objects_.end()) {
    touched = std::move(tit->second);
    txn_objects_.erase(tit);
  }
  // Drop queued requests by this txn everywhere (abort path: the protocol
  // layer has already failed the operation, so callbacks must not fire).
  for (auto& [obj, lock] : locks_) {
    for (auto it = lock.queue.begin(); it != lock.queue.end();) {
      if (it->txn == txn) {
        CancelTimeout(*it);
        it = lock.queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (ObjectId obj : touched) {
    auto lit = locks_.find(obj);
    if (lit == locks_.end()) continue;
    Lock& lock = lit->second;
    lock.holders.erase(txn);
    if (lock.holders.empty()) lock.exclusive = false;
    PumpQueue(obj);
  }
}

void LockManager::Shutdown() {
  for (auto& [obj, lock] : locks_) {
    for (Request& req : lock.queue) CancelTimeout(req);
  }
  locks_.clear();
  txn_objects_.clear();
}

bool LockManager::Holds(TxnId txn, ObjectId obj, LockMode mode) const {
  auto it = locks_.find(obj);
  if (it == locks_.end()) return false;
  const Lock& lock = it->second;
  if (lock.holders.count(txn) == 0) return false;
  if (mode == LockMode::kExclusive) return lock.exclusive;
  return true;
}

bool LockManager::IsWriteLocked(ObjectId obj) const {
  auto it = locks_.find(obj);
  return it != locks_.end() && it->second.exclusive;
}

}  // namespace vp::cc
