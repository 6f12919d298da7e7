#include "storage/stable_store.h"

namespace vp::storage {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void FnvMix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (i * 8)) & 0xff;
    *h *= kFnvPrime;
  }
}

void FnvMixBytes(uint64_t* h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= kFnvPrime;
  }
}

}  // namespace

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kRetainMemory:
      return "retain";
    case DurabilityMode::kWal:
      return "wal";
    case DurabilityMode::kNoWal:
      return "nowal";
  }
  return "?";
}

const char* IntegrityModeName(IntegrityMode mode) {
  switch (mode) {
    case IntegrityMode::kChecksum:
      return "checksum";
    case IntegrityMode::kNoChecksum:
      return "nochecksum";
  }
  return "?";
}

uint64_t StableStore::CopyChecksum(const Value& value, VpId date,
                                   const std::vector<LogRecord>& log) {
  uint64_t h = kFnvOffset;
  FnvMix(&h, date.n);
  FnvMix(&h, date.p);
  FnvMixBytes(&h, value);
  for (const LogRecord& rec : log) {
    FnvMix(&h, rec.date.n);
    FnvMix(&h, rec.date.p);
    FnvMix(&h, rec.txn.coordinator);
    FnvMix(&h, rec.txn.seq);
    FnvMixBytes(&h, rec.value);
  }
  return h;
}

bool StableStore::ImageIntact(const StableCopy& copy) const {
  if (integrity_ == IntegrityMode::kNoChecksum) return true;
  return !copy.torn &&
         copy.checksum == CopyChecksum(copy.value, copy.date, copy.log);
}

void StableStore::PersistCopy(ObjectId obj, const Value& value, VpId date,
                              const std::vector<LogRecord>& log) {
  StableCopy& copy = copies_[obj];
  copy.value = value;
  copy.date = date;
  copy.log = log;
  copy.checksum = CopyChecksum(value, date, log);
  copy.torn = false;
  uint64_t bytes = value.size() + 8;
  for (const LogRecord& rec : log) bytes += rec.value.size() + 20;
  ctr_copy_persist_bytes_->Add(bytes);
  ctr_fsyncs_->Increment();
  if (event_hook_) event_hook_("copy", bytes, 0);
}

void StableStore::PersistViewMeta(VpId max_id, VpId cur_id, EpochId epoch) {
  max_view_ = max_id;
  cur_view_ = cur_id;
  epoch_ = epoch;
  has_view_meta_ = true;
  ctr_fsyncs_->Increment();
  if (event_hook_) event_hook_("viewmeta", 0, 0);
}

void StableStore::PersistReconfig(EpochId epoch,
                                  const std::vector<ReconfigOp>& ops) {
  for (const auto& [e, unused] : reconfigs_)
    if (e == epoch) return;  // Re-announced commit; already on the device.
  reconfigs_.emplace_back(epoch, ops);
  ctr_fsyncs_->Increment();
  if (event_hook_) event_hook_("reconfig", ops.size(), 0);
}

void StableStore::AppendWal(WalRecord rec) {
  if (mode_ == DurabilityMode::kNoWal) return;  // Strawman: records lost.
  if (replaying_) return;  // Re-staging during replay must not re-log.
  const uint64_t bytes = WriteAheadLog::RecordBytes(rec);
  ctr_wal_bytes_->Add(bytes);
  ctr_wal_appends_->Increment();
  ctr_fsyncs_->Increment();
  if (event_hook_) {
    event_hook_("wal", bytes, static_cast<uint64_t>(rec.type));
  }
  wal_.Append(std::move(rec));
}

void StableStore::CorruptWalPrepare(uint32_t index) {
  std::vector<size_t> prepares;
  for (size_t i = 0; i < wal_.frames().size(); ++i) {
    if (wal_.frames()[i].rec.type == WalRecord::Type::kPrepare) {
      prepares.push_back(i);
    }
  }
  if (prepares.empty()) return;
  wal_.RotRecord(prepares[prepares.size() - 1 - index % prepares.size()]);
}

void StableStore::TearWalPrepare(uint32_t index) {
  std::vector<size_t> prepares;
  for (size_t i = 0; i < wal_.frames().size(); ++i) {
    if (wal_.frames()[i].rec.type == WalRecord::Type::kPrepare) {
      prepares.push_back(i);
    }
  }
  if (prepares.empty()) return;
  wal_.TearRecord(prepares[prepares.size() - 1 - index % prepares.size()]);
}

void StableStore::CorruptCopyImage(ObjectId obj) {
  auto it = copies_.find(obj);
  if (it == copies_.end()) return;
  Value& v = it->second.value;
  if (v.empty()) {
    v.assign(1, '\x7f');
  } else {
    v[0] = static_cast<char>(v[0] ^ 0x20);
  }
}

void StableStore::TearCopyImage(ObjectId obj) {
  auto it = copies_.find(obj);
  if (it == copies_.end()) return;
  StableCopy& copy = it->second;
  copy.torn = true;
  copy.value.resize(copy.value.size() / 2);
}

void StableStore::TearTailOnCrash(bool drop) {
  if (mode_ == DurabilityMode::kNoWal) return;  // Nothing on the device.
  const auto& frames = wal_.frames();
  if (frames.empty() ||
      frames.back().rec.type != WalRecord::Type::kOutcome) {
    // An empty log, or a tail whose completed fsync was already
    // externalized — a decision as the commit announcement, a prepare as
    // the participant's ack, on which the coordinator may commit: the torn
    // write must have been a later, never-observed persist. Model it as a
    // phantom frame. (An outcome tail may tear: its prepare replays in
    // doubt and the coordinator resolves it again.)
    wal_.AppendTornPhantom();
    return;
  }
  wal_.TearTail(drop);
}

uint32_t StableStore::BeginIncarnation() {
  ++incarnation_;
  ctr_reboots_->Increment();
  replaying_ = false;
  return incarnation_;
}

void StableStore::BeginReplay() {
  replaying_ = true;
  quarantined_ = false;
  if (integrity_ == IntegrityMode::kNoChecksum) return;  // Served verbatim.
  // Salvage: idempotent, so a second crash during replay re-runs it and
  // converges to the same truncation point.
  const WriteAheadLog::SalvageResult salvaged = wal_.Salvage();
  if (salvaged.tail_truncated > 0) {
    ctr_torn_truncated_->Add(salvaged.tail_truncated);
    if (event_hook_) {
      event_hook_("salvage.torn", salvaged.tail_truncated, 0);
    }
  }
  quarantined_ = salvaged.quarantined();
  if (quarantined_ && event_hook_) event_hook_("salvage.quarantine", 0, 0);
}

void StableStore::EndReplay() { replaying_ = false; }

}  // namespace vp::storage
