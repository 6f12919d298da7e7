// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into each layer
// (the program under test is not instrumented). A span has a name of the
// form "<layer>.<what>", a start and end in NowNs() nanoseconds, the span
// that caused it, and the transaction it belongs to (0 for none). Each
// thread appends to its own buffer, so recording takes no lock after a
// thread's first span; buffers are read only once every recording thread
// has quiesced.
#ifndef VPBENCH_SPANS_H_
#define VPBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vpbench {

struct Span {
  const char* name = "";  // Static string.
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  uint64_t txn = 0;     // 0 = not tied to a transaction.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  static SpanLog& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends a finished span (no-op when disabled).
  void Record(const Span& s);
  /// Records [start_ns, now) under a fresh id (no-op when disabled).
  void Record(const char* name, uint64_t parent, uint64_t txn,
                  int64_t start_ns);

  /// Every recorded span. Call only while no thread records.
  std::vector<Span> Collect() const;
  void Clear();

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;  // Guards buffers_ (the list, not the contents).
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records a span over its own lifetime, parented to the calling thread's
/// innermost open ScopedSpan. For synchronous calls.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t txn = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  uint64_t saved_current_ = 0;
  bool on_ = false;
};

/// Per-layer and per-name aggregates of a span set.
struct SpanSummary {
  /// Layer ("gen", "runtime", ...) -> summed self time, ns. A span's self
  /// time is its duration minus the part of it its children cover.
  std::map<std::string, double> self_ns;
  /// Span name -> durations in microseconds.
  std::map<std::string, std::vector<double>> durations_us;
};

SpanSummary Summarize(const std::vector<Span>& spans);

/// Writes spans as Chrome trace-event JSON (loadable in Perfetto), with
/// the id, parent and transaction of each span in its args. Returns false
/// if the file cannot be written.
bool WriteTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace vpbench

#endif  // VPBENCH_SPANS_H_
