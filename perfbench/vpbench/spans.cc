#include "vpbench/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "vpbench/common.h"

namespace vpbench {

namespace {
thread_local uint64_t tl_current = 0;
}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer* SpanLog::LocalBuffer() {
  // One log per process, so one buffer pointer per thread suffices. The
  // buffer outlives its thread: the log owns it.
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
  }
  return buf;
}

void SpanLog::Record(const Span& s) {
  if (!enabled()) return;
  LocalBuffer()->spans.push_back(s);
}

void SpanLog::Record(const char* name, uint64_t parent, uint64_t txn,
                     int64_t start_ns) {
  if (!enabled()) return;
  Span s;
  s.name = name;
  s.id = NewId();
  s.parent = parent;
  s.txn = txn;
  s.start_ns = start_ns;
  s.end_ns = NowNs();
  LocalBuffer()->spans.push_back(s);
}

std::vector<Span> SpanLog::Collect() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& b : buffers_) b->spans.clear();
}

ScopedSpan::ScopedSpan(const char* name, uint64_t txn) {
  SpanLog& log = SpanLog::Get();
  if (!log.enabled()) return;
  on_ = true;
  span_.name = name;
  span_.id = log.NewId();
  span_.parent = tl_current;
  span_.txn = txn;
  saved_current_ = tl_current;
  tl_current = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = NowNs();
  tl_current = saved_current_;
  SpanLog::Get().Record(span_);
}

SpanSummary Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  SpanSummary out;
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& s : spans) {
    const int64_t dur = std::max<int64_t>(0, s.end_ns - s.start_ns);
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      iv.clear();
      for (size_t c : it->second) {
        const int64_t a = std::max(spans[c].start_ns, s.start_ns);
        const int64_t b = std::min(spans[c].end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_a = 0, cur_b = -1;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    out.self_ns[layer] += static_cast<double>(dur - covered);
    out.durations_us[name].push_back(static_cast<double>(dur) * 1e-3);
  }
  return out;
}

bool WriteTrace(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"txn\":%llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.txn),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.txn));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace vpbench
