#include "storage/wal.h"

#include <cstddef>

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

const char* WalRecordTypeName(WalRecord::Type type) {
  switch (type) {
    case WalRecord::Type::kPrepare:
      return "prepare";
    case WalRecord::Type::kOutcome:
      return "outcome";
    case WalRecord::Type::kDecision:
      return "decision";
  }
  return "?";
}

uint64_t WriteAheadLog::RecordBytes(const WalRecord& rec) {
  // Fixed header: type + txn id + epoch + object id + date + outcome flag.
  // A prepare adds its op id and value.
  uint64_t bytes = 1 + 12 + 4 + 4 + 8 + 1;
  if (rec.type == WalRecord::Type::kPrepare) bytes += 8 + rec.value.size();
  return bytes;
}

uint64_t WriteAheadLog::Checksum(const WalRecord& rec) {
  uint64_t h = kFnvOffset;
  FnvMix(&h, static_cast<uint64_t>(rec.type));
  FnvMix(&h, rec.txn.coordinator);
  FnvMix(&h, rec.txn.seq);
  FnvMix(&h, rec.epoch);
  FnvMix(&h, rec.obj);
  FnvMix(&h, rec.date.n);
  FnvMix(&h, rec.date.p);
  FnvMix(&h, rec.committed ? 1 : 0);
  FnvMix(&h, rec.op_id);
  FnvMixBytes(&h, rec.value);
  return h;
}

bool WriteAheadLog::Intact(const WalFrame& frame) {
  return !frame.torn && frame.len == RecordBytes(frame.rec) &&
         frame.checksum == Checksum(frame.rec);
}

void WriteAheadLog::Append(WalRecord rec) {
  WalFrame f;
  f.len = static_cast<uint32_t>(RecordBytes(rec));
  f.checksum = Checksum(rec);
  f.rec = std::move(rec);
  bytes_ += f.len;
  frames_.push_back(std::move(f));
}

void WriteAheadLog::Clear() {
  frames_.clear();
  bytes_ = 0;
}

bool WriteAheadLog::RotRecord(size_t index) {
  if (index >= frames_.size()) return false;
  WalRecord& rec = frames_[index].rec;
  // Flip content where it matters for the record's semantics, so a
  // checksum-less reader serves the rot rather than shrugging it off.
  switch (rec.type) {
    case WalRecord::Type::kPrepare:
      if (rec.value.empty()) {
        rec.value.assign(1, '\x7f');
      } else {
        rec.value[0] = static_cast<char>(rec.value[0] ^ 0x20);
      }
      break;
    case WalRecord::Type::kOutcome:
      rec.committed = !rec.committed;
      break;
    case WalRecord::Type::kDecision:
      rec.txn.seq ^= 1;
      break;
  }
  return true;
}

bool WriteAheadLog::TearRecord(size_t index) {
  if (index >= frames_.size()) return false;
  WalFrame& f = frames_[index];
  f.torn = true;
  bytes_ -= f.len - f.len / 2;
  f.len /= 2;
  f.rec.value.resize(f.rec.value.size() / 2);
  return true;
}

void WriteAheadLog::TearTail(bool drop) {
  if (frames_.empty()) {
    AppendTornPhantom();
    return;
  }
  if (drop) {
    bytes_ -= frames_.back().len;
    frames_.pop_back();
    return;
  }
  TearRecord(frames_.size() - 1);  // Adjusts bytes_ itself.
}

void WriteAheadLog::AppendTornPhantom() {
  WalFrame f;
  f.rec.type = WalRecord::Type::kPrepare;
  f.rec.value = "~";  // Garbage the device wrote before the crash cut it.
  f.len = static_cast<uint32_t>(RecordBytes(f.rec)) / 2;
  f.checksum = 0xdeadbeefdeadbeefULL;
  f.torn = true;
  bytes_ += f.len;
  frames_.push_back(std::move(f));
}

WriteAheadLog::SalvageResult WriteAheadLog::Salvage() {
  SalvageResult out;
  // Longest valid prefix boundary: everything after the last frame that is
  // followed only by invalid frames is a torn tail; an invalid frame with a
  // valid frame after it is at-rest rot.
  size_t last_valid = frames_.size();
  for (size_t i = frames_.size(); i-- > 0;) {
    if (Intact(frames_[i])) {
      last_valid = i;
      break;
    }
  }
  const size_t tail_start = last_valid == frames_.size() ? 0 : last_valid + 1;
  out.tail_truncated = static_cast<uint32_t>(frames_.size() - tail_start);
  for (size_t i = tail_start; i < frames_.size(); ++i) {
    bytes_ -= frames_[i].len;
  }
  frames_.resize(tail_start);
  // Drop mid-log rot (newest-first so indices stay stable).
  for (size_t i = frames_.size(); i-- > 0;) {
    if (Intact(frames_[i])) continue;
    ++out.mid_dropped;
    bytes_ -= frames_[i].len;
    frames_.erase(frames_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return out;
}

}  // namespace vp::storage
