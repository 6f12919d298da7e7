// The simulator workload, partition-heal.
//
// Five processors, 64 fully replicated objects, WAL durability, the
// reliable channel on and 1% message loss over the simulator's default
// uniform 1-5 ms link delay. Load is open-loop Poisson in virtual time:
// each transaction is due at a fixed virtual instant at a random
// coordinator and runs 3 operations, each a read with probability kReadFrac
// (0.7) and otherwise a blind write of a unique token. A fault cycle repeats over a
// fixed virtual horizon: a crash-amnesia of one processor and its
// recovery, then the partition {0,1}|{2,3,4} and its heal. A transaction
// due at a crashed coordinator is refused; one due on the minority side is
// refused by the protocol. Everything here is a function of the seed, so
// the counts repeat exactly.
//
// Times of simulator work are CPU time of this thread (the simulator runs
// on it alone), so time the host spends running other tenants is left out.
// CPU time does not hide a host whose processor got slower, and on a shared
// VM that moved these figures by up to 1.6x within half an hour. So each
// cluster's times are also divided by the host's current speed, measured
// on a fixed reference task just before the cluster runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "harness/cluster.h"
#include "vpbench/common.h"
#include "vpbench/spans.h"

namespace vpbench {
namespace {

using vp::ObjectId;
using vp::ProcessorId;
using vp::TxnId;
using vp::sim::Duration;
using vp::sim::SimTime;

constexpr uint32_t kNodes = 5;
constexpr ObjectId kObjects = 64;
constexpr uint32_t kOps = 3;
/// Per operation. At 0.8 about half the transactions only read, and the
/// median commit latency flips from seed to seed between all-local reads
/// and transactions with a remote write round.
constexpr double kReadFrac = 0.7;
constexpr double kRatePerS = 200;  // Virtual transactions per second.
constexpr Duration kCycle = vp::sim::Seconds(2);
/// Each measured second of the run simulates kSubRunsPerSecond independent
/// clusters (sub-seeds of the run's seed) over kHorizon each. The cost of a
/// cluster grows faster than its horizon (every amnesia reboot replays the
/// whole WAL), so several short clusters cover more fault cycles per wall
/// second than one long one.
constexpr Duration kHorizon = vp::sim::Millis(12500);
constexpr double kSubRunsPerSecond = 0.8;
constexpr Duration kDrain = vp::sim::Seconds(3);
constexpr Duration kChunk = vp::sim::Millis(100);
/// The latency given to a transaction that did not commit: the whole
/// simulated run, beyond any latency limit.
constexpr double kMissedUs = static_cast<double>(kHorizon + kDrain);
/// CPU seconds ReferenceCpuS() takes on the host the bounds were set on, so
/// that normalized figures keep the scale of that host's.
constexpr double kReferenceNominalS = 0.022;

uint64_t reference_sink = 0;

/// CPU seconds of a fixed task unrelated to the program, of hashing,
/// allocation and sorting like the simulator's own work; the least of three
/// tries.
double ReferenceCpuS() {
  double best = 0;
  for (int k = 0; k < 3; ++k) {
    const int64_t t0 = ThreadCpuNs();
    vp::Rng rng(7);
    std::unordered_map<uint64_t, std::string> m;
    std::vector<uint64_t> keys;
    for (int i = 0; i < 50000; ++i) {
      keys.push_back(rng.Next());
      m[keys.back()] = std::to_string(keys.back());
    }
    std::sort(keys.begin(), keys.end());
    for (uint64_t key : keys) reference_sink += m[key].size();
    const double s = static_cast<double>(ThreadCpuNs() - t0) * 1e-9;
    best = k == 0 ? s : std::min(best, s);
  }
  return best;
}

struct SimTxn {
  uint64_t key = 0;
  ProcessorId coord = 0;
  struct Op {
    bool write = false;
    ObjectId obj = 0;
  } ops[kOps];
  SimTime due = 0;
  SimTime done = 0;
  bool finished = false;
  bool committed = false;
  vp::core::NodeBase* node = nullptr;
  TxnId id;
};

struct FaultEvent {
  SimTime at = 0;
  std::set<ProcessorId> majority;  // Who keeps serving through it.
};

vp::harness::ClusterConfig Config(uint64_t seed) {
  vp::harness::ClusterConfig cfg;
  cfg.n_processors = kNodes;
  cfg.n_objects = kObjects;
  cfg.seed = seed;
  cfg.protocol = vp::harness::Protocol::kVirtualPartition;
  cfg.durability = vp::storage::DurabilityMode::kWal;
  cfg.reliable.enabled = true;
  cfg.net.drop_prob = 0.01;
  return cfg;
}

class SimRun {
 public:
  SimRun(uint64_t seed, Duration horizon) : seed_(seed), horizon_(horizon) {}

  /// Builds the cluster and runs it until a first transaction commits.
  /// Returns the CPU seconds that took.
  double Setup(RunResult& res);
  /// Runs the fault cycle and load over the horizon, then certifies.
  void Run(RunResult& res);

  // Results.
  std::vector<SimTxn> txns;
  std::vector<FaultEvent> events;
  std::vector<std::pair<SimTime, SimTime>> windows;  // [begin, end)
  std::vector<double> read_us, write_us, commit_us;  // Virtual call->cb.
  uint64_t outstanding_max = 0;
  double sim_wall_s = 0, sim_cpu_s = 0;
  double certify_s = 0;
  vp::net::NetworkStats net0, net1;
  vp::obs::MetricsSnapshot m0, m1;
  std::unique_ptr<vp::harness::Cluster> cluster;

 private:
  SimTime Now() { return cluster->scheduler().Now(); }
  vp::runtime::Executor* Exec() { return cluster->runtime_view().executor; }
  void Arrive(size_t i);
  void RunOp(SimTxn* t, uint32_t i);
  void Finish(SimTxn* t, bool committed);

  const uint64_t seed_;
  const Duration horizon_;
  uint64_t outstanding_ = 0;
  bool warm_committed_ = false;
};

double SimRun::Setup(RunResult& res) {
  const int64_t t0 = ThreadCpuNs();
  {
    ScopedSpan span("harness.build");
    cluster = std::make_unique<vp::harness::Cluster>(Config(seed_));
  }
  for (int attempt = 0; attempt < 1000 && !warm_committed_; ++attempt) {
    vp::core::NodeBase* node = &cluster->node(0);
    const TxnId id = node->NewTxnId();
    node->Begin(id);
    node->LogicalRead(id, 0, [this, node, id](
                                 vp::Result<vp::core::ReadResult> r) {
      if (!r.ok()) {
        node->Abort(id);
        return;
      }
      node->Commit(id, [this](vp::Status s) { warm_committed_ |= s.ok(); });
    });
    ScopedSpan span("harness.run_for");
    cluster->RunFor(vp::sim::Millis(10));
  }
  if (!warm_committed_) res.Fail("setup: no commit in 10 virtual seconds");
  return static_cast<double>(ThreadCpuNs() - t0) * 1e-9;
}

void SimRun::Arrive(size_t i) {
  SimTxn* t = &txns[i];
  if (i + 1 < txns.size()) {
    Exec()->ScheduleAt(txns[i + 1].due, [this, i] { Arrive(i + 1); });
  }
  ScopedSpan span("gen.arrive", t->key);
  ++outstanding_;
  outstanding_max = std::max(outstanding_max, outstanding_);
  if (!cluster->runtime_view().transport->Alive(t->coord)) {
    Finish(t, false);  // Refused: the coordinator is down.
    return;
  }
  t->node = &cluster->node(t->coord);
  t->id = t->node->NewTxnId();
  {
    ScopedSpan call("core.begin", t->key);
    t->node->Begin(t->id);
  }
  RunOp(t, 0);
}

void SimRun::RunOp(SimTxn* t, uint32_t i) {
  if (t->node != &cluster->node(t->coord)) {
    // The coordinator rebooted: its volatile transaction state is gone and
    // presumed abort resolves what it staged.
    Finish(t, false);
    return;
  }
  const SimTime start = Now();
  if (i == kOps) {
    ScopedSpan call("core.commit", t->key);
    t->node->Commit(t->id, [this, t, start](vp::Status s) {
      ScopedSpan step("gen.step", t->key);
      commit_us.push_back(static_cast<double>(Now() - start));
      Finish(t, s.ok());
    });
    return;
  }
  auto next = [this, t, i](bool ok, std::vector<double>* lat, SimTime s) {
    ScopedSpan step("gen.step", t->key);
    lat->push_back(static_cast<double>(Now() - s));
    if (!ok) {
      if (t->node == &cluster->node(t->coord)) t->node->Abort(t->id);
      Finish(t, false);
      return;
    }
    RunOp(t, i + 1);
  };
  const SimTxn::Op op = t->ops[i];
  if (!op.write) {
    ScopedSpan call("core.read", t->key);
    t->node->LogicalRead(t->id, op.obj,
                         [this, next, start](vp::Result<vp::core::ReadResult> r) {
                           next(r.ok(), &read_us, start);
                         });
    return;
  }
  ScopedSpan call("core.write", t->key);
  t->node->LogicalWrite(
      t->id, op.obj, "w:" + t->id.ToString() + ":" + std::to_string(i),
      [this, next, start](vp::Status s) { next(s.ok(), &write_us, start); });
}

void SimRun::Finish(SimTxn* t, bool committed) {
  if (t->finished) return;
  t->finished = true;
  t->committed = committed;
  t->done = Now();
  --outstanding_;
}

void SimRun::Run(RunResult& res) {
  vp::Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + 29);
  const SimTime t0 = Now() + vp::sim::Millis(50);
  const Duration horizon = horizon_;
  const SimTime end = t0 + horizon;

  // Fault cycle.
  vp::net::FailureInjector& inj = cluster->injector();
  const std::set<ProcessorId> all = {0, 1, 2, 3, 4};
  uint32_t cycle = 0;
  for (SimTime c = t0; c + kCycle <= end; c += kCycle, ++cycle) {
    const ProcessorId k = static_cast<ProcessorId>(2 + cycle % 3);
    std::set<ProcessorId> rest = all;
    rest.erase(k);
    const SimTime crash = c + vp::sim::Millis(250);
    const SimTime recover = c + vp::sim::Millis(750);
    const SimTime split = c + vp::sim::Millis(1000);
    const SimTime heal = c + vp::sim::Millis(1500);
    inj.CrashAmnesiaAt(crash, k);
    inj.RecoverAt(recover, k);
    inj.PartitionAt(split, {{0, 1}, {2, 3, 4}});
    inj.HealAt(heal);
    windows.emplace_back(crash, recover);
    windows.emplace_back(split, heal);
    events.push_back({crash, rest});
    events.push_back({split, {2, 3, 4}});
  }

  // Poisson arrivals.
  double at = 0;
  const double horizon_s = static_cast<double>(horizon) * 1e-6;
  for (;;) {
    at += -std::log(1.0 - rng.NextDouble()) / kRatePerS;
    if (at >= horizon_s) break;
    SimTxn t;
    t.key = txns.size() + 1;
    t.due = t0 + static_cast<SimTime>(at * 1e6);
    t.coord = static_cast<ProcessorId>(rng.Uniform(kNodes));
    for (auto& op : t.ops) {
      op.write = rng.NextDouble() >= kReadFrac;
      op.obj = static_cast<ObjectId>(rng.Uniform(kObjects));
    }
    txns.push_back(t);
  }
  if (!txns.empty()) Exec()->ScheduleAt(txns[0].due, [this] { Arrive(0); });

  net0 = cluster->network().stats();
  {
    ScopedSpan span("obs.snapshot");
    m0 = cluster->metrics().Snapshot();
  }
  const int64_t w0 = NowNs();
  const int64_t cpu0 = ThreadCpuNs();
  while (Now() < end + kDrain) {
    ScopedSpan span("harness.run_for");
    cluster->RunFor(kChunk);
  }
  sim_cpu_s = static_cast<double>(ThreadCpuNs() - cpu0) * 1e-9;
  sim_wall_s = SecondsSince(w0);
  net1 = cluster->network().stats();
  {
    ScopedSpan span("obs.snapshot");
    m1 = cluster->metrics().Snapshot();
  }

  const int64_t c0 = NowNs();
  vp::history::CertifyResult one_copy, conflicts, durable;
  {
    ScopedSpan span("history.certify");
    one_copy = cluster->Certify();
    conflicts = cluster->CertifyConflicts();
    durable = cluster->CertifyDurableReads();
  }
  certify_s = SecondsSince(c0);
  if (!one_copy.ok) res.Fail("1SR certification failed: " + one_copy.detail);
  if (!conflicts.ok) res.Fail("conflict graph: " + conflicts.detail);
  if (!durable.ok) res.Fail("durable reads: " + durable.detail);
  if (!cluster->recorder().safety_violations().empty()) {
    res.Fail("recorder safety violation: " +
             cluster->recorder().safety_violations().front().detail);
  }
}

bool Writes(const SimTxn& t) {
  for (const auto& op : t.ops) {
    if (op.write) return true;
  }
  return false;
}

/// Figures pooled over the sub-runs of one benchmark run.
struct Pool {
  uint64_t attempted = 0, committed = 0;
  uint64_t window_due = 0, window_committed = 0;
  /// Due to commit; a transaction that did not commit counts as kMissedUs.
  std::vector<double> latency_us;
  std::vector<double> committed_latency_us;  // Committed only.
  std::vector<double> outage_ms;   // One per crash or partition.
  std::vector<double> read_us, write_us, commit_us;
  std::vector<double> setup_s;  // Normalized to the reference host.
  double sim_wall_s = 0, sim_cpu_s = 0, certify_s = 0;
  double sim_norm_s = 0;  // sim_cpu_s normalized to the reference host.
  double sent = 0, remote = 0;
  uint64_t outstanding_max = 0;
  uint64_t recorded = 0;  // Decided transactions in the recorders.
  std::map<std::string, double> counter_deltas;
  std::map<std::string, std::vector<double>> hist;  // Per sub-run quantiles.

  /// `speed` is the host's reference time over kReferenceNominalS when r ran.
  void Add(const SimRun& r, double speed) {
    sim_norm_s += r.sim_cpu_s / speed;
    for (const SimTxn& t : r.txns) {
      ++attempted;
      committed += t.committed;
      const double us = static_cast<double>(t.done - t.due);
      latency_us.push_back(t.committed ? us : kMissedUs);
      if (t.committed) committed_latency_us.push_back(us);
      for (const auto& [b, e] : r.windows) {
        if (t.due >= b && t.due < e) {
          ++window_due;
          window_committed += t.committed;
          break;
        }
      }
    }
    // Outage: fault to the first commit of an update transaction due after
    // it at a coordinator that keeps serving. Updates need a view holding
    // every copy they write (R3), so this waits for the new partition.
    for (const FaultEvent& e : r.events) {
      for (const SimTxn& t : r.txns) {
        if (t.due < e.at || !t.committed || !Writes(t) ||
            !e.majority.count(t.coord)) {
          continue;
        }
        // Transactions are in due order; the first qualifying one is not
        // necessarily the first to commit, so scan a short horizon.
        SimTime first = t.done;
        for (const SimTxn& u : r.txns) {
          if (u.due < e.at || u.due > t.done) continue;
          if (u.committed && Writes(u) && e.majority.count(u.coord)) {
            first = std::min(first, u.done);
          }
        }
        outage_ms.push_back(static_cast<double>(first - e.at) * 1e-3);
        break;
      }
    }
    read_us.insert(read_us.end(), r.read_us.begin(), r.read_us.end());
    write_us.insert(write_us.end(), r.write_us.begin(), r.write_us.end());
    commit_us.insert(commit_us.end(), r.commit_us.begin(), r.commit_us.end());
    sim_wall_s += r.sim_wall_s;
    sim_cpu_s += r.sim_cpu_s;
    certify_s += r.certify_s;
    sent += static_cast<double>(r.net1.sent - r.net0.sent);
    remote += static_cast<double>(r.net1.sent_remote - r.net0.sent_remote);
    outstanding_max = std::max(outstanding_max, r.outstanding_max);
    recorded += r.cluster->recorder().committed_count() +
                r.cluster->recorder().aborted_count();
    for (const char* name :
         {"lock.waits", "lock.timeouts", "wal.fsyncs", "wal.bytes",
          "rel.retransmits", "vp.view_changes",
          "vp.convergence_exceeded_delta"}) {
      counter_deltas[name] += static_cast<double>(r.m1.CounterValue(name) -
                                                  r.m0.CounterValue(name));
    }
    auto quantile = [&](const char* name, bool p99) {
      const auto* h = r.m1.FindHistogram(name);
      hist[std::string(name) + (p99 ? ".p99" : ".p50")].push_back(
          h == nullptr ? 0 : (p99 ? h->p99 : h->p50));
    };
    quantile("lock.wait_us", true);
    quantile("vp.view_convergence_us", true);
    quantile("txn.path.lock_wait_us", false);
    quantile("txn.path.quorum_rtt_us", false);
    quantile("txn.path.queueing_us", false);
  }

  double PerCommit(double v) const {
    return v / static_cast<double>(std::max<uint64_t>(1, committed));
  }
  double Hist(const std::string& key) const {
    auto it = hist.find(key);
    return it == hist.end() ? 0 : Median(it->second);
  }
};

/// Runs every sub-run of one benchmark run and pools the figures.
Pool RunAll(const Options& opts, RunResult& res) {
  const int sub_runs =
      std::max(1, static_cast<int>(std::lround(kSubRunsPerSecond * opts.seconds)));
  Pool pool;
  for (int k = 0; k < sub_runs; ++k) {
    SimRun run(opts.seed * 1000 + static_cast<uint64_t>(k), kHorizon);
    const double speed = ReferenceCpuS() / kReferenceNominalS;
    pool.setup_s.push_back(run.Setup(res) / speed);
    run.Run(res);
    pool.Add(run, speed);
  }
  return pool;
}

}  // namespace

RunResult RunPartitionHeal(const Options& opts) {
  RunResult res;
  res.backend = "sim";
  res.runtime_workers = 1;

  if (!opts.trace) {
    Pool pool = RunAll(opts, res);
    res.attempted = pool.attempted;
    res.failed = pool.attempted - pool.committed;
    res.Add("setup_s", Median(pool.setup_s), "s");
    res.Add("commit_p50_us", Quantile(pool.latency_us, 0.50), "us");
    res.Add("sat_txns_per_s",
            pool.sim_norm_s > 0
                ? static_cast<double>(pool.committed) / pool.sim_norm_s
                : 0,
            "txn/s");
    res.Add("avail_frac",
            pool.window_due > 0 ? static_cast<double>(pool.window_committed) /
                                      static_cast<double>(pool.window_due)
                                : 0,
            "fraction");
    res.Add("outage_ms", Median(pool.outage_ms), "ms");
    res.Add("msgs_per_commit", pool.PerCommit(pool.remote), "msg/commit");
    res.Add("peak_rss_mb", PeakRssMb(), "MB");
    return res;
  }

  // Traced run: every sub-run untraced, then traced. Counts must agree.
  const Pool plain = RunAll(opts, res);
  SpanLog& log = SpanLog::Get();
  log.Clear();
  log.set_enabled(true);
  Pool pool = RunAll(opts, res);
  log.set_enabled(false);
  if (pool.committed != plain.committed || pool.sent != plain.sent) {
    res.Fail("traced and untraced runs of one seed differ: " +
             std::to_string(pool.committed) + " vs " +
             std::to_string(plain.committed) + " commits");
  }
  res.attempted = pool.attempted;
  res.failed = pool.attempted - pool.committed;

  const std::vector<Span> spans = log.Collect();
  if (!opts.trace_out.empty() && !WriteTrace(spans, opts.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opts.trace_out.c_str());
  }
  SpanSummary sum = Summarize(spans);
  const double c = static_cast<double>(std::max<uint64_t>(1, pool.committed));
  auto delta = [&](const char* name) { return pool.counter_deltas[name]; };
  // Committed transactions only: the quarter refused during faults would
  // put every p99 at kMissedUs.
  res.Add("txn.commit_p99_us", Quantile(pool.committed_latency_us, 0.99),
          "us");
  res.Add("gen.lag_p99_us", 0, "us");  // Virtual arrivals are never late.
  res.Add("gen.outstanding_max", static_cast<double>(pool.outstanding_max),
          "count");
  res.Add("gen.queued_frac", 0, "fraction");  // No generator queue here.
  res.Add("runtime.dispatch_p50_us", 0, "us");  // No strands in the sim.
  res.Add("runtime.dispatch_p99_us", 0, "us");
  res.Add("runtime.mailbox_pushes_per_commit", 0, "count/commit");
  res.Add("runtime.cross_shard_wakeups_per_commit", 0, "count/commit");
  res.Add("net.msgs_per_commit", pool.sent / c, "msg/commit");
  res.Add("net.remote_msgs_per_commit", pool.remote / c, "msg/commit");
  res.Add("net.self_msgs_per_commit", (pool.sent - pool.remote) / c,
          "msg/commit");
  res.Add("core.read_p50_us", Quantile(pool.read_us, 0.5), "us");
  res.Add("core.read_p99_us", Quantile(pool.read_us, 0.99), "us");
  res.Add("core.write_p50_us", Quantile(pool.write_us, 0.5), "us");
  res.Add("core.write_p99_us", Quantile(pool.write_us, 0.99), "us");
  res.Add("core.commit_p50_us", Quantile(pool.commit_us, 0.5), "us");
  res.Add("core.commit_p99_us", Quantile(pool.commit_us, 0.99), "us");
  res.Add("lock.wait_p99_us", pool.Hist("lock.wait_us.p99"), "us");
  res.Add("lock.waits_per_commit", delta("lock.waits") / c, "count/commit");
  res.Add("lock.timeouts", delta("lock.timeouts"), "count");
  res.Add("vp.view_changes", delta("vp.view_changes"), "count");
  res.Add("vp.convergence_p99_us", pool.Hist("vp.view_convergence_us.p99"),
          "us");
  res.Add("vp.convergence_exceeded_delta",
          delta("vp.convergence_exceeded_delta"), "count");
  res.Add("vp.outage_worst_ms",
          pool.outage_ms.empty()
              ? 0
              : *std::max_element(pool.outage_ms.begin(), pool.outage_ms.end()),
          "ms");
  res.Add("wal.fsyncs_per_commit", delta("wal.fsyncs") / c, "count/commit");
  res.Add("wal.bytes_per_commit", delta("wal.bytes") / c, "B/commit");
  res.Add("rel.retransmits_per_commit", delta("rel.retransmits") / c,
          "count/commit");
  res.Add("run_wall_s", plain.sim_wall_s + plain.certify_s, "s");
  res.Add("history.certify_s", pool.certify_s, "s");
  res.Add("history.txns_recorded", static_cast<double>(pool.recorded),
          "count");
  res.Add("txn.path.lock_wait_p50_us", pool.Hist("txn.path.lock_wait_us.p50"),
          "us");
  res.Add("txn.path.quorum_rtt_p50_us",
          pool.Hist("txn.path.quorum_rtt_us.p50"), "us");
  res.Add("txn.path.queueing_p50_us", pool.Hist("txn.path.queueing_us.p50"),
          "us");
  res.Add("txn.abort_frac",
          static_cast<double>(res.failed) /
              static_cast<double>(std::max<uint64_t>(1, res.attempted)),
          "fraction");
  // Both passes commit the same transactions, so the throughput ratio is
  // the inverse ratio of their simulation times.
  res.Add("obs.trace_overhead_frac",
          pool.sim_cpu_s > 0 ? 1.0 - plain.sim_cpu_s / pool.sim_cpu_s : 0,
          "fraction");
  for (const char* layer :
       {"gen", "runtime", "core", "harness", "history", "obs"}) {
    res.Add(std::string("self.") + layer + "_us_per_commit",
            sum.self_ns[layer] * 1e-3 / c, "us/commit");
  }
  return res;
}

}  // namespace vpbench
