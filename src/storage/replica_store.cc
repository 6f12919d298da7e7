#include "storage/replica_store.h"

#include <algorithm>

#include "storage/stable_store.h"

namespace vp::storage {

void ReplicaStore::AttachStable(StableStore* stable) {
  stable_ = stable;
  if (stable_ == nullptr) return;
  // Reboot path: the device's images are the truth — once they verify.
  // Volatile copies created so far (fresh initial values) are stale. An
  // image failing verification (bit rot / torn write at rest) is NOT
  // loaded: the copy is quarantined instead, keeping the fresh initial
  // value at kEpochDate so copy-update rebuilds it from live copies. First
  // boot: the device is empty, so the initial images are persisted instead.
  for (const auto& [obj, image] : stable_->copies()) {
    Copy& copy = copies_[obj];
    if (!stable_->ImageIntact(image)) {
      QuarantineCopy(obj);
      continue;
    }
    copy.committed.value = image.value;
    copy.committed.date = image.date;
    copy.log = image.log;
  }
  for (const auto& [obj, copy] : copies_) {
    if (stable_->copies().count(obj) == 0) PersistCopy(obj, copy);
  }
}

void ReplicaStore::QuarantineCopy(ObjectId obj) {
  auto it = copies_.find(obj);
  if (it == copies_.end()) return;
  if (!quarantined_.insert(obj).second) return;  // Already quarantined.
  it->second.committed.date = kEpochDate;
  it->second.log.clear();
  if (stable_ != nullptr) stable_->NoteQuarantined();
}

void ReplicaStore::PersistCopy(ObjectId obj, const Copy& copy) {
  if (stable_ == nullptr) return;
  stable_->PersistCopy(obj, copy.committed.value, copy.committed.date,
                       copy.log);
}

void ReplicaStore::CreateCopy(ObjectId obj, Value initial, VpId date) {
  Copy c;
  c.committed.value = std::move(initial);
  c.committed.date = date;
  copies_[obj] = std::move(c);
  PersistCopy(obj, copies_[obj]);
}

Result<CopyVersion> ReplicaStore::Read(ObjectId obj) const {
  auto it = copies_.find(obj);
  if (it == copies_.end()) return Status::NotFound("no local copy");
  return it->second.committed;
}

Status ReplicaStore::StageWrite(TxnId txn, ObjectId obj, Value value,
                                VpId date, EpochId epoch, uint64_t op_id) {
  if (copies_.count(obj) == 0) return Status::NotFound("no local copy");
  auto it = stages_.find(obj);
  if (it != stages_.end()) {
    if (!(it->second.txn == txn)) {
      return Status::Busy("copy already staged by " +
                          it->second.txn.ToString());
    }
    if (op_id < it->second.op_id) return Status::Aborted("stale-op");
  }
  stages_[obj] = Stage{txn, std::move(value), date, op_id};
  ++stats_.stages;
  if (stable_ != nullptr) {
    const Stage& s = stages_[obj];
    stable_->AppendWal(WalRecord{WalRecord::Type::kPrepare, txn, epoch, obj,
                                 s.value, s.date, false, op_id});
  }
  return Status::Ok();
}

std::optional<CopyVersion> ReplicaStore::StagedValue(TxnId txn,
                                                     ObjectId obj) const {
  auto it = stages_.find(obj);
  if (it == stages_.end() || !(it->second.txn == txn)) return std::nullopt;
  return CopyVersion{it->second.value, it->second.date};
}

std::optional<TxnId> ReplicaStore::StageOwner(ObjectId obj) const {
  auto it = stages_.find(obj);
  if (it == stages_.end()) return std::nullopt;
  return it->second.txn;
}

Status ReplicaStore::CommitStage(TxnId txn, ObjectId obj) {
  auto sit = stages_.find(obj);
  if (sit == stages_.end() || !(sit->second.txn == txn)) return Status::Ok();
  auto cit = copies_.find(obj);
  if (cit == copies_.end()) return Status::NotFound("no local copy");
  Copy& copy = cit->second;
  Stage stage = std::move(sit->second);
  stages_.erase(sit);
  // Date guard: a recovery (or a commit that arrived extremely late, after
  // newer partitions already wrote) must never be regressed by this stage.
  if (stage.date >= copy.committed.date) {
    copy.committed.value = stage.value;
    copy.committed.date = stage.date;
    copy.log.push_back(LogRecord{stage.date, std::move(stage.value), txn});
    PersistCopy(obj, copy);
  }
  ++stats_.commits;
  return Status::Ok();
}

void ReplicaStore::DiscardStage(TxnId txn, ObjectId obj) {
  auto it = stages_.find(obj);
  if (it != stages_.end() && it->second.txn == txn) {
    stages_.erase(it);
    ++stats_.discards;
  }
}

Status ReplicaStore::InstallRecovery(ObjectId obj, Value value, VpId date) {
  auto it = copies_.find(obj);
  if (it == copies_.end()) return Status::NotFound("no local copy");
  Copy& copy = it->second;
  if (date >= copy.committed.date) {
    stats_.recovery_bytes += value.size();
    copy.committed.value = value;
    copy.committed.date = date;
    // Record the recovery in the log (with an invalid txn id) so that this
    // copy can later serve complete log-suffix catch-ups itself.
    copy.log.push_back(LogRecord{date, std::move(value), TxnId{}});
    ++stats_.recoveries;
    PersistCopy(obj, copy);
  }
  return Status::Ok();
}

std::vector<LogRecord> ReplicaStore::LogSince(ObjectId obj, VpId after) const {
  std::vector<LogRecord> out;
  auto it = copies_.find(obj);
  if (it == copies_.end()) return out;
  for (const LogRecord& r : it->second.log) {
    if (after < r.date) out.push_back(r);
  }
  return out;
}

Status ReplicaStore::ApplyLogSuffix(ObjectId obj,
                                    const std::vector<LogRecord>& records) {
  auto it = copies_.find(obj);
  if (it == copies_.end()) return Status::NotFound("no local copy");
  Copy& copy = it->second;
  bool applied = false;
  for (const LogRecord& r : records) {
    if (r.date >= copy.committed.date) {
      copy.committed.value = r.value;
      copy.committed.date = r.date;
      copy.log.push_back(r);
      ++stats_.log_catchup_records;
      applied = true;
    }
  }
  if (applied) PersistCopy(obj, copy);
  return Status::Ok();
}

std::vector<ObjectId> ReplicaStore::LocalObjects() const {
  std::vector<ObjectId> out;
  out.reserve(copies_.size());
  for (const auto& [obj, copy] : copies_) out.push_back(obj);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vp::storage
