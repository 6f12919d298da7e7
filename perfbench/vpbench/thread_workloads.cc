// The two real-thread workloads, write-path and read-mostly.
//
// Load comes from one generator thread (this one). It posts each
// transaction's first step to the coordinator's strand with
// ThreadRuntime::executor(p)->ScheduleAfter(0, ...) and chains every later
// step (the next LogicalRead/LogicalWrite, then Commit) inside the node
// callbacks, which run on that strand. No client threads are added: the 3
// node strands run on 3 runtime workers and the generator takes a 4th core.
// The thread backend injects no message delay, so every latency here is
// processor time.
//
// A transaction whose write object is already being written by an earlier
// transaction waits in the generator until that one finishes, like a client
// library that orders one client's writes to one key. Together with running
// each transaction's operations in ascending object order this keeps the
// lock manager free of deadlocks (two RMWs of one object would each hold a
// shared lock and wait forever to upgrade it), so no transaction aborts on a
// lock timeout. The wait counts in the latency, which runs from the
// intended send time.
//
// An untraced run is a series of rounds, each on a freshly built cluster:
//   setup       build the cluster and wait for its first commit;
//   warm-up     a short closed-loop batch, not measured;
//   open loop   Poisson arrivals at a fixed rate; each transaction is timed
//               from its intended send time to its commit callback;
//   saturation  a fixed batch pushed through a closed window of 8
//               outstanding transactions, refilled from the callbacks;
//   fault       one processor crash-stops (ThreadRuntime::SetAlive) and
//               Poisson arrivals continue at the same rate; a transaction
//               due at the crashed coordinator is refused. Measures the
//               outage until the survivors commit an update again, and the
//               share of due transactions that commit.
// The traced run replaces the measured phases with interleaved untraced and
// traced saturation batches (for the tracing overhead) and one traced
// open-loop phase (for the per-layer numbers).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "harness/thread_cluster.h"
#include "vpbench/common.h"
#include "vpbench/spans.h"

namespace vpbench {
namespace {

using vp::ObjectId;
using vp::ProcessorId;
using vp::TxnId;

constexpr uint32_t kNodes = 3;
constexpr ObjectId kObjects = 64;
/// Per measured round (one per second of the run): the open-loop slice
/// length. Rounds stay short so each cluster's history stays small.
constexpr double kSliceSeconds = 0.45;
/// Open-loop Poisson rate, about a tenth of write-path saturation on a
/// 4-vCPU host: nearer saturation, queueing amplifies host noise and the
/// p99 moved 30-60% between seeds.
constexpr double kRatePerS = 3000;
/// Closed-loop window: transactions kept outstanding.
constexpr size_t kWindow = 8;
/// Length of each round's fault phase, and the processor that crash-stops.
/// The outage takes 0.07-0.2 s; the rest of the phase shows the survivors'
/// service, which keeps avail_frac from turning on the outage alone.
constexpr double kFaultSeconds = 0.6;
constexpr ProcessorId kCrashed = kNodes - 1;

struct Shape {
  /// Zipf skew of object choice (0 = uniform).
  double zipf_theta = 0;
  /// Share of read-only transactions (two reads); the rest are one RMW
  /// plus, on write-path, a read of another object.
  double read_only_frac = 0;
  /// Saturation batch size per round.
  size_t sat_batch = 0;
};

struct OpSpec {
  bool rmw = false;
  ObjectId obj = 0;
};

struct TxnSpec {
  ProcessorId coord = 0;
  uint8_t n_ops = 0;
  OpSpec ops[2];  // In ascending object order.

  /// The object an RMW writes, or -1 for a read-only transaction.
  int64_t write_obj() const {
    for (uint8_t i = 0; i < n_ops; ++i) {
      if (ops[i].rmw) return ops[i].obj;
    }
    return -1;
  }
};

/// One transaction's inputs and outcome. Written by the generator before
/// Post and then only on the coordinator's strand; read after the phase has
/// drained (the completion counter's release/acquire orders it).
struct TxnState {
  TxnSpec spec;
  uint64_t key = 0;   // Span transaction id (unique per run).
  uint64_t root = 0;  // Id of the transaction's gen.txn span.
  TxnId id;
  int64_t intended_ns = 0;
  int64_t done_ns = 0;
  bool committed = false;
};

TxnSpec MakeSpec(const Shape& shape, const vp::ZipfGenerator& objs,
                 vp::Rng& rng) {
  TxnSpec s;
  s.coord = static_cast<ProcessorId>(rng.Uniform(kNodes));
  const ObjectId a = static_cast<ObjectId>(objs.Next(rng));
  ObjectId b = static_cast<ObjectId>(objs.Next(rng));
  while (b == a) b = static_cast<ObjectId>(objs.Next(rng));
  if (rng.NextDouble() < shape.read_only_frac) {
    s.n_ops = 2;
    s.ops[0] = {false, a};
    s.ops[1] = {false, b};
  } else if (shape.read_only_frac > 0) {
    s.n_ops = 1;
    s.ops[0] = {true, a};
  } else {
    s.n_ops = 2;
    s.ops[0] = {true, a};
    s.ops[1] = {false, b};
  }
  if (s.n_ops == 2 && s.ops[1].obj < s.ops[0].obj) {
    std::swap(s.ops[0], s.ops[1]);
  }
  return s;
}

/// Runs transactions against a ThreadCluster without blocking any thread.
class Pump {
 public:
  explicit Pump(vp::harness::ThreadCluster& c)
      : c_(c), writers_(kObjects) {}

  /// Posts t's first step to its coordinator's strand, or queues it behind
  /// the admitted transaction that writes the same object. Any thread.
  void Submit(TxnState* t) {
    const int64_t now_out = outstanding_.fetch_add(1) + 1;
    int64_t seen = outstanding_max_.load(std::memory_order_relaxed);
    while (now_out > seen &&
           !outstanding_max_.compare_exchange_weak(seen, now_out)) {
    }
    const int64_t w = t->spec.write_obj();
    if (w >= 0) {
      Writers& q = writers_[static_cast<size_t>(w)];
      std::lock_guard<std::mutex> lk(q.mu);
      if (q.busy) {
        q.waiting.push_back(t);
        queued_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      q.busy = true;
    }
    Post(t);
  }

  uint64_t done() const { return done_.load(std::memory_order_acquire); }
  /// Transactions that waited behind an admitted writer of their object.
  uint64_t queued() const { return queued_.load(std::memory_order_relaxed); }
  int64_t outstanding_max() const { return outstanding_max_.load(); }
  void reset_outstanding_max() { outstanding_max_.store(0); }

  /// Called on the finishing transaction's strand, after its outcome is
  /// stored. Set only while no transaction is in flight.
  std::function<void(TxnState*)> on_done;

 private:
  struct Writers {
    std::mutex mu;
    bool busy = false;  // An admitted transaction writes this object.
    std::deque<TxnState*> waiting;
  };

  void Post(TxnState* t) {
    const int64_t posted = NowNs();
    c_.runtime().executor(t->spec.coord)->ScheduleAfter(
        0, [this, t, posted] { Start(t, posted); });
  }

  /// Admits the next writer of t's write object, if one waits.
  void Release(TxnState* t) {
    const int64_t w = t->spec.write_obj();
    if (w < 0) return;
    Writers& q = writers_[static_cast<size_t>(w)];
    TxnState* next = nullptr;
    {
      std::lock_guard<std::mutex> lk(q.mu);
      if (q.waiting.empty()) {
        q.busy = false;
        return;
      }
      next = q.waiting.front();
      q.waiting.pop_front();
    }
    Post(next);
  }

  void Start(TxnState* t, int64_t posted_ns) {
    SpanLog& log = SpanLog::Get();
    log.Record("runtime.dispatch", t->root, t->key, posted_ns);
    vp::core::NodeBase* node = &c_.node(t->spec.coord);
    t->id = node->NewTxnId();
    const int64_t b = NowNs();
    node->Begin(t->id);
    log.Record("core.begin", t->root, t->key, b);
    RunOp(t, node, 0);
  }

  void RunOp(TxnState* t, vp::core::NodeBase* node, uint32_t i) {
    const int64_t start = NowNs();
    if (i == t->spec.n_ops) {
      node->Commit(t->id, [this, t, start](vp::Status s) {
        SpanLog::Get().Record("core.commit", t->root, t->key, start);
        Finish(t, s.ok());
      });
      return;
    }
    const OpSpec op = t->spec.ops[i];
    node->LogicalRead(
        t->id, op.obj,
        [this, t, node, i, op, start](vp::Result<vp::core::ReadResult> r) {
          SpanLog::Get().Record("core.read", t->root, t->key, start);
          if (!r.ok()) {
            Fail(t, node);
            return;
          }
          if (!op.rmw) {
            RunOp(t, node, i + 1);
            return;
          }
          const int64_t v = std::strtoll(r.value().value.c_str(), nullptr, 10);
          const int64_t wstart = NowNs();
          node->LogicalWrite(
              t->id, op.obj, std::to_string(v + 1),
              [this, t, node, i, wstart](vp::Status s) {
                SpanLog::Get().Record("core.write", t->root, t->key, wstart);
                if (!s.ok()) {
                  Fail(t, node);
                  return;
                }
                RunOp(t, node, i + 1);
              });
        });
  }

  void Fail(TxnState* t, vp::core::NodeBase* node) {
    node->Abort(t->id);
    Finish(t, false);
  }

  void Finish(TxnState* t, bool committed) {
    t->done_ns = NowNs();
    t->committed = committed;
    if (t->root != 0) {
      Span root;
      root.name = "gen.txn";
      root.id = t->root;
      root.txn = t->key;
      root.start_ns = t->intended_ns;
      root.end_ns = t->done_ns;
      SpanLog::Get().Record(root);
    }
    outstanding_.fetch_sub(1);
    Release(t);
    if (on_done) on_done(t);
    done_.fetch_add(1, std::memory_order_release);
  }

  vp::harness::ThreadCluster& c_;
  std::vector<Writers> writers_;  // Indexed by object.
  std::atomic<uint64_t> done_{0};
  std::atomic<uint64_t> queued_{0};
  std::atomic<int64_t> outstanding_{0};
  std::atomic<int64_t> outstanding_max_{0};
};

void WaitUntil(int64_t target_ns) {
  for (;;) {
    const int64_t left = target_ns - NowNs();
    if (left <= 0) return;
    if (left > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Waits until `d` has finished `target` transactions in total.
bool WaitDone(const Pump& d, uint64_t target, double timeout_s = 60) {
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (d.done() < target) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

vp::harness::ThreadClusterConfig ClusterConfig() {
  vp::harness::ThreadClusterConfig cfg;
  cfg.n_processors = kNodes;
  cfg.n_objects = kObjects;
  cfg.protocol = vp::harness::Protocol::kVirtualPartition;
  cfg.runtime.workers = kNodes;
  // Bounds the hardware meets with room to spare: a missed probe deadline
  // tears the view down, which is a fault this workload does not intend.
  cfg.vp.delta = vp::sim::Millis(10);
  cfg.vp.probe_period = vp::sim::Millis(200);
  cfg.runtime.delta = vp::sim::Millis(10);
  return cfg;
}

struct Built {
  /// The warm-up probe; declared first so that it outlives the cluster,
  /// whose callbacks may still reach it if the warm-up gave up.
  std::unique_ptr<TxnState> probe = std::make_unique<TxnState>();
  std::unique_ptr<vp::harness::ThreadCluster> cluster;
  std::unique_ptr<Pump> pump;
  double setup_s = 0;
};

/// Builds a cluster and retries a one-read transaction until one commits.
/// setup_s runs from construction to that commit.
Built Build(RunResult& res) {
  Built b;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span("harness.build");
    b.cluster = std::make_unique<vp::harness::ThreadCluster>(ClusterConfig());
  }
  const int64_t started = NowNs();
  b.pump = std::make_unique<Pump>(*b.cluster);
  TxnState& probe = *b.probe;
  probe.spec.coord = 0;
  probe.spec.n_ops = 1;
  probe.spec.ops[0] = {false, 0};
  const int64_t deadline = started + static_cast<int64_t>(20e9);
  for (uint64_t n = 1;; ++n) {
    probe.intended_ns = NowNs();
    b.pump->Submit(&probe);
    if (!WaitDone(*b.pump, n, 20)) break;
    if (probe.committed) break;
    if (NowNs() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!probe.committed) res.Fail("setup: no commit within 20 s of start");
  b.setup_s = static_cast<double>(probe.done_ns - t0) * 1e-9;
  return b;
}

class ThreadRun {
 public:
  ThreadRun(const Shape& shape, const Options& opts)
      : shape_(shape),
        opts_(opts),
        rng_(opts.seed * 0x9e3779b97f4a7c15ULL + 17),
        objs_(kObjects, shape.zipf_theta) {}

  RunResult Run();

 private:
  /// Appends n fresh transactions; returns the index of the first.
  size_t Append(size_t n) {
    const size_t first = states_.size();
    for (size_t i = 0; i < n; ++i) {
      auto t = std::make_unique<TxnState>();
      t->spec = MakeSpec(shape_, objs_, rng_);
      t->key = next_key_++;
      states_.push_back(std::move(t));
    }
    return first;
  }

  void TagSpans(size_t first, size_t last) {
    SpanLog& log = SpanLog::Get();
    for (size_t i = first; i < last; ++i) {
      states_[i]->root = log.enabled() ? log.NewId() : 0;
    }
  }

  struct Phase {
    size_t first = 0, last = 0;
    int64_t start_ns = 0;
    double seconds = 0;
    std::vector<double> lag_us;
  };

  /// Replaces the cluster with a freshly built one (and forgets the old
  /// one's transactions).
  void Rebuild(RunResult& res) {
    b_.cluster.reset();  // Stops the runtime before anything it may touch.
    b_ = Built();
    states_.clear();
    b_ = Build(res);
    res.runtime_workers = b_.cluster->runtime().workers();
  }

  /// Closed window over a fresh batch of n transactions.
  Phase Closed(size_t n);
  /// Poisson arrivals at kRatePerS for `seconds`. With `crash`, kCrashed
  /// crash-stops at the start and transactions due there are refused.
  Phase OpenLoop(double seconds, bool crash = false);
  /// Milliseconds from a crash phase's start to the first commit of an
  /// update transaction due in it (the whole phase if there is none).
  double OutageMs(const Phase& p) const {
    int64_t first = p.start_ns + static_cast<int64_t>(p.seconds * 1e9);
    for (size_t i = p.first; i < p.last; ++i) {
      const TxnState& t = *states_[i];
      if (t.committed && t.spec.write_obj() >= 0) {
        first = std::min(first, t.done_ns);
      }
    }
    return static_cast<double>(first - p.start_ns) * 1e-6;
  }

  uint64_t Committed(const Phase& p) const {
    uint64_t c = 0;
    for (size_t i = p.first; i < p.last; ++i) c += states_[i]->committed;
    return c;
  }
  double Throughput(const Phase& p) const {
    return p.seconds > 0 ? static_cast<double>(Committed(p)) / p.seconds : 0;
  }
  /// Quantile q of intended-start-to-commit latency over a phase. A
  /// failed transaction counts as missing any limit (it is given the
  /// phase's whole length).
  double LatencyUs(const Phase& p, double q) const {
    std::vector<double> v;
    for (size_t i = p.first; i < p.last; ++i) {
      const TxnState& t = *states_[i];
      v.push_back(t.committed
                      ? static_cast<double>(t.done_ns - t.intended_ns) * 1e-3
                      : p.seconds * 1e6);
    }
    return Quantile(v, q);
  }
  void Count(const Phase& p, RunResult& res) const {
    res.attempted += p.last - p.first;
    res.failed += (p.last - p.first) - Committed(p);
  }

  /// Stops the runtime and certifies the history; returns certify seconds.
  double StopAndCertify(RunResult& res);

  const Shape shape_;
  const Options opts_;
  vp::Rng rng_;
  const vp::ZipfGenerator objs_;
  std::vector<std::unique_ptr<TxnState>> states_;
  Built b_;
  uint64_t next_key_ = 1;
  bool drain_failed_ = false;
};

ThreadRun::Phase ThreadRun::Closed(size_t n) {
  Phase p;
  p.first = Append(n);
  p.last = states_.size();
  TagSpans(p.first, p.last);
  Pump& d = *b_.pump;
  const uint64_t target = d.done() + n;
  std::atomic<size_t> next{p.first + std::min(kWindow, n)};
  d.on_done = [this, &d, &next, last = p.last](TxnState*) {
    const size_t i = next.fetch_add(1);
    if (i >= last) return;
    states_[i]->intended_ns = NowNs();
    d.Submit(states_[i].get());
  };
  const int64_t t0 = NowNs();
  for (size_t i = p.first; i < p.first + std::min(kWindow, n);
       ++i) {
    states_[i]->intended_ns = NowNs();
    d.Submit(states_[i].get());
  }
  if (!WaitDone(d, target)) drain_failed_ = true;
  d.on_done = nullptr;
  int64_t t1 = t0;
  for (size_t i = p.first; i < p.last; ++i) {
    t1 = std::max(t1, states_[i]->done_ns);
  }
  p.seconds = static_cast<double>(t1 - t0) * 1e-9;
  return p;
}

ThreadRun::Phase ThreadRun::OpenLoop(double seconds, bool crash) {
  // Arrival offsets come from the seeded rng, so a seed fixes the count
  // and the schedule.
  std::vector<int64_t> offsets;
  double at = 0;
  for (;;) {
    at += -std::log(1.0 - rng_.NextDouble()) / kRatePerS;
    if (at >= seconds) break;
    offsets.push_back(static_cast<int64_t>(at * 1e9));
  }
  Phase p;
  p.first = Append(offsets.size());
  p.last = states_.size();
  TagSpans(p.first, p.last);
  Pump& d = *b_.pump;
  uint64_t target = d.done();
  p.start_ns = NowNs() + 1000000;
  if (crash) {
    WaitUntil(p.start_ns);
    b_.cluster->runtime().SetAlive(kCrashed, false);
  }
  for (size_t k = 0; k < offsets.size(); ++k) {
    TxnState* t = states_[p.first + k].get();
    t->intended_ns = p.start_ns + offsets[k];
    if (crash && t->spec.coord == kCrashed) {
      t->done_ns = t->intended_ns;  // Refused: the coordinator is down.
      continue;
    }
    WaitUntil(t->intended_ns);
    p.lag_us.push_back(static_cast<double>(NowNs() - t->intended_ns) * 1e-3);
    d.Submit(t);
    ++target;
  }
  if (!WaitDone(d, target)) drain_failed_ = true;
  p.seconds = seconds;
  return p;
}

double ThreadRun::StopAndCertify(RunResult& res) {
  {
    ScopedSpan span("harness.stop");
    b_.cluster->Stop();
  }
  if (drain_failed_) res.Fail("transactions never reached a decision");
  const int64_t t0 = NowNs();
  vp::history::CertifyResult cert;
  {
    ScopedSpan span("history.certify");
    cert = b_.cluster->Certify();
  }
  const double certify_s = SecondsSince(t0);
  if (!cert.ok) res.Fail("1SR certification failed: " + cert.detail);
  if (!b_.cluster->recorder().safety_violations().empty()) {
    res.Fail("recorder safety violation: " +
             b_.cluster->recorder().safety_violations().front().detail);
  }
  if (b_.cluster->probes().flagged()) {
    res.Fail("invariant probe: " + b_.cluster->probes().Describe());
  }
  // Every RMW increments a counter that starts at 0, so the one-copy
  // database the certifier replayed must hold each object's count of
  // committed RMWs.
  if (cert.ok) {
    std::map<ObjectId, int64_t> rmws;
    for (const auto& t : states_) {
      if (!t->committed) continue;
      for (uint8_t i = 0; i < t->spec.n_ops; ++i) {
        if (t->spec.ops[i].rmw) ++rmws[t->spec.ops[i].obj];
      }
    }
    for (ObjectId obj = 0; obj < kObjects; ++obj) {
      auto it = cert.final_db.find(obj);
      const int64_t v = it == cert.final_db.end()
                            ? 0
                            : std::strtoll(it->second.c_str(), nullptr, 10);
      if (v != rmws[obj]) {
        res.Fail("object " + std::to_string(obj) + " holds " +
                 std::to_string(v) + " after " + std::to_string(rmws[obj]) +
                 " committed increments");
        break;
      }
    }
  }
  return certify_s;
}

double Delta(const vp::obs::MetricsSnapshot& a,
             const vp::obs::MetricsSnapshot& b, const char* name) {
  return static_cast<double>(b.CounterValue(name) - a.CounterValue(name));
}

double HistP(const vp::obs::MetricsSnapshot& s, const char* name, bool p99) {
  const auto* h = s.FindHistogram(name);
  if (h == nullptr) return 0;
  return p99 ? h->p99 : h->p50;
}

vp::obs::MetricsSnapshot Snap(vp::harness::ThreadCluster& c) {
  ScopedSpan span("obs.snapshot");
  return c.metrics().Snapshot();
}

RunResult ThreadRun::Run() {
  RunResult res;
  res.backend = "thread";
  const double s = opts_.seconds;
  const int rounds = std::max(1, static_cast<int>(std::lround(s)));
  SpanLog& log = SpanLog::Get();

  if (!opts_.trace) {
    // Rounds, each on a freshly built cluster: set up, warm up, one
    // open-loop slice, one saturation batch, certify. Each history stays
    // small, so the program's stalls while growing its history containers
    // do not pile up in late rounds. Figures are taken over rounds so that
    // a burst of host noise moves a few rounds, not the result: medians,
    // except for the latency median. Host noise (a descheduled vCPU) only
    // ever adds latency, so it takes the lower quartile over rounds: the
    // latency the program produces when the host leaves it alone.
    std::vector<double> setups, outages, p50s, sats;
    double msgs = 0;
    uint64_t committed = 0, fault_due = 0, fault_committed = 0;
    for (int k = 0; k < rounds; ++k) {
      Rebuild(res);
      setups.push_back(b_.setup_s);
      Closed(shape_.sat_batch / 4);  // Warm-up.
      const auto m0 = Snap(*b_.cluster);
      const Phase ol = OpenLoop(kSliceSeconds);
      const Phase sat = Closed(shape_.sat_batch);
      const auto m1 = Snap(*b_.cluster);
      const Phase fault = OpenLoop(kFaultSeconds, /*crash=*/true);
      StopAndCertify(res);
      p50s.push_back(LatencyUs(ol, 0.50));
      sats.push_back(Throughput(sat));
      outages.push_back(OutageMs(fault));
      msgs += Delta(m0, m1, "net.msgs_remote");
      committed += Committed(ol) + Committed(sat);
      fault_due += fault.last - fault.first;
      fault_committed += Committed(fault);
      // Which transactions a crash-stop aborts depends on thread timing, so
      // the fault phase is reported by avail_frac, not in failed.
      for (const Phase* p : {&ol, &sat}) Count(*p, res);
    }
    res.Add("setup_s", Median(setups), "s");
    res.Add("commit_p50_us", Quantile(p50s, 0.25), "us");
    res.Add("sat_txns_per_s", Quantile(sats, 0.75), "txn/s");
    res.Add("avail_frac",
            static_cast<double>(fault_committed) /
                static_cast<double>(std::max<uint64_t>(1, fault_due)),
            "fraction");
    // One round's outage falls anywhere in 70-200 ms on a 4-vCPU VM; the
    // mean over rounds moves less from run to run than their median.
    res.Add("outage_ms",
            std::accumulate(outages.begin(), outages.end(), 0.0) /
                static_cast<double>(outages.size()),
            "ms");
    res.Add("msgs_per_commit",
            msgs / static_cast<double>(std::max<uint64_t>(1, committed)),
            "msg/commit");
    res.Add("peak_rss_mb", PeakRssMb(), "MB");
    return res;
  }

  // Traced run. Half the rounds pair an untraced and a traced saturation
  // batch on one cluster (alternating which goes first) for the tracing
  // overhead; a last round records the spans of a traced open-loop slice
  // for the per-layer figures.
  double untraced_s = 0, traced_s = 0;
  uint64_t untraced_c = 0, traced_c = 0;
  for (int k = 0; k < std::max(1, rounds / 2); ++k) {
    Rebuild(res);
    Closed(shape_.sat_batch / 4);
    for (int half = 0; half < 2; ++half) {
      const bool traced = (half + k) % 2 == 1;
      log.set_enabled(traced);
      const Phase p = Closed(shape_.sat_batch);
      log.set_enabled(false);
      log.Clear();
      (traced ? traced_s : untraced_s) += p.seconds;
      (traced ? traced_c : untraced_c) += Committed(p);
    }
    StopAndCertify(res);
  }
  Rebuild(res);
  Closed(shape_.sat_batch / 4);
  log.Clear();
  log.set_enabled(true);
  b_.pump->reset_outstanding_max();
  const uint64_t queued0 = b_.pump->queued();
  const auto m0 = Snap(*b_.cluster);
  const Phase ol = OpenLoop(2 * kSliceSeconds);
  const auto m1 = Snap(*b_.cluster);
  const double certify_s = StopAndCertify(res);
  log.set_enabled(false);
  Count(ol, res);

  const std::vector<Span> spans = log.Collect();
  if (!opts_.trace_out.empty() && !WriteTrace(spans, opts_.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opts_.trace_out.c_str());
  }
  SpanSummary sum = Summarize(spans);
  const double committed =
      static_cast<double>(std::max<uint64_t>(1, Committed(ol)));
  auto dur = [&](const char* name, double q) {
    return Quantile(sum.durations_us[name], q);
  };
  const auto& m = m1;
  std::vector<double> lag = ol.lag_us;
  res.Add("txn.commit_p99_us", LatencyUs(ol, 0.99), "us");
  res.Add("gen.lag_p99_us", Quantile(lag, 0.99), "us");
  res.Add("gen.outstanding_max",
          static_cast<double>(b_.pump->outstanding_max()), "count");
  res.Add("gen.queued_frac",
          static_cast<double>(b_.pump->queued() - queued0) /
              static_cast<double>(std::max<size_t>(1, ol.last - ol.first)),
          "fraction");
  res.Add("runtime.dispatch_p50_us", dur("runtime.dispatch", 0.5), "us");
  res.Add("runtime.dispatch_p99_us", dur("runtime.dispatch", 0.99), "us");
  res.Add("runtime.mailbox_pushes_per_commit",
          Delta(m0, m1, "runtime.mailbox_pushes") / committed, "count/commit");
  res.Add("runtime.cross_shard_wakeups_per_commit",
          Delta(m0, m1, "runtime.cross_shard_wakeups") / committed,
          "count/commit");
  const double sent = Delta(m0, m1, "net.msgs_sent");
  const double remote = Delta(m0, m1, "net.msgs_remote");
  res.Add("net.msgs_per_commit", sent / committed, "msg/commit");
  res.Add("net.remote_msgs_per_commit", remote / committed, "msg/commit");
  res.Add("net.self_msgs_per_commit", (sent - remote) / committed,
          "msg/commit");
  for (const char* op : {"read", "write", "commit"}) {
    const std::string name = std::string("core.") + op;
    res.Add(name + "_p50_us", dur(name.c_str(), 0.5), "us");
    res.Add(name + "_p99_us", dur(name.c_str(), 0.99), "us");
  }
  res.Add("lock.wait_p99_us", HistP(m, "lock.wait_us", true), "us");
  res.Add("lock.waits_per_commit", Delta(m0, m1, "lock.waits") / committed,
          "count/commit");
  res.Add("lock.timeouts",
          static_cast<double>(m.CounterValue("lock.timeouts")), "count");
  res.Add("vp.view_changes",
          static_cast<double>(m.CounterValue("vp.view_changes")), "count");
  res.Add("vp.convergence_p99_us", HistP(m, "vp.view_convergence_us", true),
          "us");
  res.Add("vp.convergence_exceeded_delta",
          static_cast<double>(m.CounterValue("vp.convergence_exceeded_delta")),
          "count");
  res.Add("vp.outage_worst_ms", 0, "ms");  // No fault in the traced run.
  res.Add("wal.fsyncs_per_commit", Delta(m0, m1, "wal.fsyncs") / committed,
          "count/commit");
  res.Add("wal.bytes_per_commit", Delta(m0, m1, "wal.bytes") / committed,
          "B/commit");
  res.Add("rel.retransmits_per_commit",
          Delta(m0, m1, "rel.retransmits") / committed, "count/commit");
  res.Add("run_wall_s", 0, "s");  // Partition-heal only.
  res.Add("history.certify_s", certify_s, "s");
  res.Add("history.txns_recorded",
          static_cast<double>(b_.cluster->recorder().committed_count() +
                              b_.cluster->recorder().aborted_count()),
          "count");
  res.Add("txn.path.lock_wait_p50_us", HistP(m, "txn.path.lock_wait_us", false),
          "us");
  res.Add("txn.path.quorum_rtt_p50_us",
          HistP(m, "txn.path.quorum_rtt_us", false), "us");
  res.Add("txn.path.queueing_p50_us", HistP(m, "txn.path.queueing_us", false),
          "us");
  res.Add("txn.abort_frac",
          static_cast<double>(res.failed) /
              static_cast<double>(std::max<uint64_t>(1, res.attempted)),
          "fraction");
  const double tput_u = untraced_s > 0 ? untraced_c / untraced_s : 0;
  const double tput_t = traced_s > 0 ? traced_c / traced_s : 0;
  res.Add("obs.trace_overhead_frac", tput_u > 0 ? 1.0 - tput_t / tput_u : 0,
          "fraction");
  for (const char* layer :
       {"gen", "runtime", "core", "harness", "history", "obs"}) {
    res.Add(std::string("self.") + layer + "_us_per_commit",
            sum.self_ns[layer] * 1e-3 / committed, "us/commit");
  }
  return res;
}

}  // namespace

RunResult RunWritePath(const Options& opts) {
  Shape shape;
  shape.zipf_theta = 0;
  shape.read_only_frac = 0;
  shape.sat_batch = 5000;
  return ThreadRun(shape, opts).Run();
}

RunResult RunReadMostly(const Options& opts) {
  Shape shape;
  shape.zipf_theta = 0.99;
  shape.read_only_frac = 0.95;
  shape.sat_batch = 10000;
  return ThreadRun(shape, opts).Run();
}

}  // namespace vpbench
