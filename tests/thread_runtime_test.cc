// ThreadRuntime backend tests: timer-wheel and strand mechanics, the
// in-process transport, and the real prize — all three protocol families
// running 100 concurrent transactions on real threads and still passing
// the one-copy-serializability certifier. These are the tests the TSan CI
// job runs; any cross-strand data race in the runtime or the protocol
// stack surfaces here.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/vp_node.h"
#include "harness/thread_cluster.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "runtime/thread_runtime.h"
#include "runtime/timer.h"

namespace vp {
namespace {

using runtime::ThreadRuntime;

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(ThreadRuntimeWheel, ClockAdvances) {
  ThreadRuntime rt(1);
  const runtime::TimePoint t0 = rt.clock()->Now();
  SleepMs(20);
  const runtime::TimePoint t1 = rt.clock()->Now();
  EXPECT_GE(t1 - t0, sim::Millis(10));
}

TEST(ThreadRuntimeWheel, TimersFireInDeadlineOrder) {
  // One worker: already-due tasks are then popped strictly earliest-first.
  ThreadRuntime::Config cfg;
  cfg.workers = 1;
  ThreadRuntime rt(1, cfg);
  std::vector<int> order;  // Strand-serialized; no lock needed.
  rt.executor(0)->ScheduleAfter(sim::Millis(150), [&] { order.push_back(3); });
  rt.executor(0)->ScheduleAfter(sim::Millis(50), [&] { order.push_back(1); });
  rt.executor(0)->ScheduleAfter(sim::Millis(100), [&] { order.push_back(2); });
  while (rt.tasks_run() < 3) SleepMs(5);
  rt.Stop();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadRuntimeWheel, StrandSerializesExternalSchedulers) {
  ThreadRuntime rt(2);
  uint64_t counter = 0;  // Deliberately not atomic: the strand is the lock.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&rt, &counter] {
      for (int i = 0; i < kPerThread; ++i) {
        rt.executor(0)->ScheduleAfter(0, [&counter] { ++counter; });
      }
    });
  }
  for (auto& t : producers) t.join();
  while (rt.tasks_run() < kThreads * kPerThread) SleepMs(5);
  rt.Stop();
  EXPECT_EQ(counter, uint64_t{kThreads * kPerThread});
}

TEST(ThreadRuntimeWheel, CancelBeforeDueSkipsTask) {
  ThreadRuntime rt(1);
  std::atomic<bool> ran{false};
  const runtime::TaskId id =
      rt.executor(0)->ScheduleAfter(sim::Millis(100), [&] { ran = true; });
  rt.executor(0)->Cancel(id);
  rt.executor(0)->Cancel(id);  // Double-cancel is a no-op.
  SleepMs(200);
  rt.Stop();
  EXPECT_FALSE(ran.load());
}

TEST(ThreadRuntimeWheel, CrossShardCancelBeforeDueNeverRuns) {
  // Strand 0 lives on shard 0, strand 1 on shard 1 (two workers). A task
  // running on shard 0 cancels a not-yet-due timer in shard 1's heap; the
  // tombstone lives in shard 1's state, so the cancel must route there
  // and the callback must deterministically never run.
  ThreadRuntime::Config cfg;
  cfg.workers = 2;
  ThreadRuntime rt(2, cfg);
  std::atomic<bool> ran{false};
  const runtime::TaskId id =
      rt.executor(1)->ScheduleAfter(sim::Millis(80), [&] { ran = true; });
  ASSERT_TRUE(rt.RunOn(0, [&] { rt.executor(1)->Cancel(id); }));
  SleepMs(160);
  rt.Stop();
  EXPECT_FALSE(ran.load());
}

// Cancellation race across shards, the TSan exercise: strand 1 re-arms a
// generation-guarded runtime::Timer with microsecond deadlines (expiries
// fire on shard 1's worker) while a hammer task on strand 0 — a different
// shard — concurrently CancelTask()s the most recently armed raw task on
// shard 1. The Timer contract must hold throughout: a callback from a
// superseded arm (its Set was followed by Reset/Set) never runs its body.
TEST(ThreadRuntimeWheel, CrossShardCancelRaceTimerGenerationGuard) {
  ThreadRuntime::Config cfg;
  cfg.workers = 2;
  ThreadRuntime rt(2, cfg);

  constexpr int kRounds = 4000;
  struct Driver {
    ThreadRuntime* rt = nullptr;
    std::unique_ptr<runtime::Timer> timer;
    int round = 0;            // Strand-1-serialized.
    int fired_round = -1;     // Strand-1-serialized.
    std::atomic<int> violations{0};
    std::atomic<runtime::TaskId> last_id{runtime::kInvalidTask};
    std::atomic<bool> done{false};
  };
  Driver d;
  d.rt = &rt;
  d.timer = std::make_unique<runtime::Timer>(rt.executor(1));

  // Strand 1: each round disarms the previous Set (generation bump) and
  // arms a new one whose callback checks it fires only within its round.
  std::function<void()> arm = [&] {
    if (d.round >= kRounds) {
      d.done.store(true, std::memory_order_release);
      return;
    }
    const int r = ++d.round;
    d.timer->Set(sim::Micros(r % 3 == 0 ? 0 : 20), [&d, r] {
      // A stale (superseded) callback slipping past the generation guard
      // would observe a later round.
      if (r != d.round) d.violations.fetch_add(1);
      d.fired_round = r;
    });
    // Publish a raw shard-1 task id for the cross-shard canceller; this
    // decoy task shares the shard's tombstone structures with the Timer.
    d.last_id.store(d.rt->executor(1)->ScheduleAfter(sim::Micros(10), [] {}),
                    std::memory_order_release);
    d.rt->executor(1)->ScheduleAfter(sim::Micros(15), [&arm] { arm(); });
  };
  ASSERT_TRUE(rt.RunOn(1, [&] { arm(); }));

  // Strand 0: hammer cancels of shard 1's most recent raw task while its
  // worker is popping/expiring the same heap.
  std::function<void()> hammer = [&] {
    if (d.done.load(std::memory_order_acquire)) return;
    d.rt->executor(1)->Cancel(d.last_id.load(std::memory_order_acquire));
    d.rt->executor(0)->ScheduleAfter(sim::Micros(5), [&hammer] { hammer(); });
  };
  ASSERT_TRUE(rt.RunOn(0, [&] { hammer(); }));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!d.done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    SleepMs(5);
  }
  EXPECT_TRUE(d.done.load()) << "driver stalled at round " << d.round;
  rt.Stop();
  EXPECT_EQ(d.violations.load(), 0)
      << "a superseded timer callback ran its body";
}

TEST(ThreadRuntimeWheel, RunOnBlocksUntilTaskCompletes) {
  ThreadRuntime rt(3);
  std::atomic<int> side{0};
  EXPECT_TRUE(rt.RunOn(2, [&] {
    SleepMs(20);
    side = 42;
  }));
  EXPECT_EQ(side.load(), 42);  // Visible the moment RunOn returns.
  rt.Stop();
}

TEST(ThreadRuntimeWheel, RunOnAfterStopReturnsFalse) {
  ThreadRuntime rt(2);
  rt.Stop();
  std::atomic<bool> ran{false};
  EXPECT_FALSE(rt.RunOn(0, [&] { ran = true; }));
  EXPECT_FALSE(ran.load());
}

// Regression for the Stop/RunOn race: Stop used to clear the wheel while a
// RunOn task sat in it, stranding the caller on a promise nothing would
// ever fulfill. Now every RunOn terminates: either its closure ran (true)
// or Stop's drain destroyed it and the broken promise reports false. The
// loop below used to hang within a handful of iterations.
TEST(ThreadRuntimeWheel, RunOnRacingStopTerminates) {
  for (int iter = 0; iter < 25; ++iter) {
    ThreadRuntime rt(2);
    std::atomic<bool> started{false};
    std::atomic<int> ran_true{0};
    std::atomic<int> ran_false{0};
    std::thread caller([&] {
      started = true;
      for (int i = 0; i < 10000; ++i) {
        if (rt.RunOn(1, [] {})) {
          ++ran_true;
        } else {
          ++ran_false;
          return;  // Stopped; every later call would also return false.
        }
      }
    });
    while (!started.load()) SleepMs(1);
    rt.Stop();
    caller.join();  // The regression: this join used to never return.
    // After Stop, the answer is always an immediate false.
    EXPECT_FALSE(rt.RunOn(1, [] {}));
  }
}

/// A probe from processor 0 to 1; `seq` tells messages apart.
net::Message Probe(uint64_t seq) {
  net::Message m;
  m.src = 0;
  m.dst = 1;
  m.body = core::msg::Probe{0, VpId{}, seq};
  return m;
}

/// Records the `seq` of every probe it receives.
class RecordingEndpoint : public net::NodeInterface {
 public:
  void HandleMessage(const net::Message& m) override {
    // Runs strand-serialized.
    received.push_back(std::get<core::msg::Probe>(m.body).seq);
  }
  std::vector<uint64_t> received;
};

TEST(ThreadRuntimeTransport, PerLinkFifoOrder) {
  ThreadRuntime rt(2);
  RecordingEndpoint sink;
  rt.transport()->Register(1, &sink);
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    rt.transport()->Send(Probe(i));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    bool done = false;
    rt.RunOn(1, [&] { done = sink.received.size() >= kMessages; });
    if (done) break;
    SleepMs(5);
  }
  rt.Stop();
  ASSERT_EQ(sink.received.size(), size_t{kMessages});
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(sink.received[i], uint64_t(i)) << "reordered at " << i;
  }
}

// Regression for the register/send race: a message sent to an alive but
// not-yet-registered endpoint (node mid-Start) used to be silently lost in
// DeliverOne. It is now re-queued and retried until the endpoint appears
// (within Δ), with the retries counted.
TEST(ThreadRuntimeTransport, SendBeforeRegisterIsRetriedNotLost) {
  obs::MetricsRegistry reg(obs::RegistryMode::kConcurrent);
  ThreadRuntime::Config cfg;
  cfg.metrics = &reg;
  cfg.delta = sim::Millis(200);  // Generous retry budget for slow CI hosts.
  ThreadRuntime rt(2, cfg);
  // Send while endpoint 1 is alive but unregistered; delivery must wait.
  rt.transport()->Send(Probe(0));
  rt.transport()->Send(Probe(1));
  SleepMs(10);  // Let at least one delivery attempt find no endpoint.
  RecordingEndpoint sink;
  rt.transport()->Register(1, &sink);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    bool done = false;
    if (!rt.RunOn(1, [&] { done = sink.received.size() >= 2; })) break;
    if (done) break;
    SleepMs(5);
  }
  rt.Stop();
  ASSERT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(sink.received[0], 0u);  // FIFO survives the retries.
  EXPECT_EQ(sink.received[1], 1u);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_GE(snap.CounterValue("net.msgs_retried_unregistered"), 1u);
  EXPECT_EQ(snap.CounterValue("net.msgs_dropped_unregistered"), 0u);
  EXPECT_EQ(snap.CounterValue("net.msgs_delivered"), 2u);
}

// If the endpoint never registers, retries stop after Δ and the loss is
// observable as a counted drop rather than silence.
TEST(ThreadRuntimeTransport, NeverRegisteredDropsAreCounted) {
  obs::MetricsRegistry reg(obs::RegistryMode::kConcurrent);
  ThreadRuntime::Config cfg;
  cfg.metrics = &reg;
  cfg.delta = sim::Millis(5);  // Short budget: give up fast.
  ThreadRuntime rt(2, cfg);
  rt.transport()->Send(Probe(0));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reg.Snapshot().CounterValue("net.msgs_dropped_unregistered") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    SleepMs(5);
  }
  rt.Stop();
  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("net.msgs_dropped_unregistered"), 1u);
  EXPECT_EQ(snap.CounterValue("net.msgs_delivered"), 0u);
}

// net.msgs_sent / net.msgs_remote must count only traffic that actually
// entered a link: sends dropped because an endpoint is dead are accounted
// as net.msgs_dropped_dead instead of inflating message-cost numbers.
TEST(ThreadRuntimeTransport, DeadDropsDoNotCountAsSends) {
  obs::MetricsRegistry reg(obs::RegistryMode::kConcurrent);
  ThreadRuntime::Config cfg;
  cfg.metrics = &reg;
  ThreadRuntime rt(2, cfg);
  RecordingEndpoint sink;
  rt.transport()->Register(1, &sink);
  rt.SetAlive(1, false);
  rt.transport()->Send(Probe(1));  // To a dead receiver.
  rt.SetAlive(0, false);
  rt.SetAlive(1, true);
  rt.transport()->Send(Probe(2));  // From a dead sender.
  SleepMs(20);
  rt.SetAlive(0, true);
  rt.transport()->Send(Probe(3));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    bool done = false;
    if (!rt.RunOn(1, [&] { done = !sink.received.empty(); })) break;
    if (done) break;
    SleepMs(5);
  }
  rt.Stop();
  const obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("net.msgs_dropped_dead"), 2u);
  EXPECT_EQ(snap.CounterValue("net.msgs_sent"), 1u);
  EXPECT_EQ(snap.CounterValue("net.msgs_remote"), 1u);
  EXPECT_EQ(snap.CounterValue("net.msgs_delivered"), 1u);
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0], 3u);
}

TEST(ThreadRuntimeTransport, DeadProcessorsDropTraffic) {
  ThreadRuntime rt(2);
  RecordingEndpoint sink;
  rt.transport()->Register(1, &sink);
  EXPECT_TRUE(rt.transport()->CanCommunicate(0, 1));
  rt.SetAlive(1, false);
  EXPECT_FALSE(rt.transport()->Alive(1));
  EXPECT_FALSE(rt.transport()->CanCommunicate(0, 1));
  rt.transport()->Send(Probe(1));  // Lost: the receiver is down.
  SleepMs(50);
  rt.SetAlive(1, true);
  rt.transport()->Send(Probe(2));
  size_t got = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    rt.RunOn(1, [&] { got = sink.received.size(); });
    if (got >= 1) break;
    SleepMs(5);
  }
  rt.Stop();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0], 2u);
}

// ---------------------------------------------------------------------------
// Protocols on real threads: 100 concurrent increment transactions from
// competing client threads, then a read-back and the 1SR certifier.

void RunConcurrentWorkload(harness::Protocol proto, bool reliable = false) {
  using TC = harness::ThreadCluster;
  harness::ThreadClusterConfig cfg;
  cfg.n_processors = 3;
  cfg.n_objects = 4;
  cfg.protocol = proto;
  cfg.reliable.enabled = reliable;
  TC cluster(cfg);

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 25;
  std::array<std::atomic<uint64_t>, 4> committed_per_obj{};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      int done = 0;
      // Early attempts may abort as unavailable while VP views form, and
      // contending increments may abort on lock timeouts; retry with a
      // small backoff until this thread lands its quota.
      for (int attempt = 0; done < kTxnsPerThread && attempt < 2000;
           ++attempt) {
        const ObjectId obj = static_cast<ObjectId>((t + done) % 4);
        const ProcessorId at = static_cast<ProcessorId>(t % 3);
        TC::TxnResult r = cluster.RunTxn(
            at, {TC::Increment(obj), TC::Read((obj + 1) % 4)});
        if (r.committed) {
          committed_per_obj[obj].fetch_add(1);
          ++done;
        } else {
          SleepMs(2);
        }
      }
      EXPECT_EQ(done, kTxnsPerThread) << "client thread starved";
    });
  }
  for (auto& c : clients) c.join();

  // A read-back transaction begins after every increment decided, so strict
  // 2PL forces it to observe all of them: each object's value must equal
  // the number of committed increments on it.
  TC::TxnResult readback = cluster.RunTxn(
      0, {TC::Read(0), TC::Read(1), TC::Read(2), TC::Read(3)});
  ASSERT_TRUE(readback.committed) << readback.failure.ToString();
  ASSERT_EQ(readback.reads.size(), 4u);
  for (int obj = 0; obj < 4; ++obj) {
    EXPECT_EQ(readback.reads[obj],
              std::to_string(committed_per_obj[obj].load()))
        << "lost or phantom increment on object " << obj;
  }

  cluster.Stop();
  EXPECT_GE(cluster.recorder().committed_count(),
            uint64_t{kThreads * kTxnsPerThread});
  if (reliable) {
    // The physical ops really took the channel: acked, deduplicated and
    // handed up on the receiving strand.
    const obs::MetricsSnapshot snap = cluster.metrics().Snapshot();
    EXPECT_GT(snap.CounterValue("rel.delivered"), 0u);
    EXPECT_GT(snap.CounterValue("rel.acks"), 0u);
  }
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

TEST(ThreadProtocols, VirtualPartitionConcurrentTxnsAre1SR) {
  RunConcurrentWorkload(harness::Protocol::kVirtualPartition);
}

TEST(ThreadProtocols, VirtualPartitionOverReliableChannelIs1SR) {
  RunConcurrentWorkload(harness::Protocol::kVirtualPartition,
                        /*reliable=*/true);
}

TEST(ThreadProtocols, MajorityVotingConcurrentTxnsAre1SR) {
  RunConcurrentWorkload(harness::Protocol::kMajorityVoting);
}

TEST(ThreadProtocols, RowaConcurrentTxnsAre1SR) {
  RunConcurrentWorkload(harness::Protocol::kRowa);
}

TEST(ThreadProtocols, LocalCopiesAreServedWithoutTheTransport) {
  // A single processor holds every copy: all its physical operations and
  // 2PC outcomes are local, so they run by direct call on its strand and
  // the transport never carries a message.
  using TC = harness::ThreadCluster;
  harness::ThreadClusterConfig cfg;
  cfg.n_processors = 1;
  cfg.n_objects = 2;
  TC cluster(cfg);
  for (int i = 0; i < 20; ++i) {
    TC::TxnResult r = cluster.RunTxn(
        0, {TC::Increment(0), TC::Read(1), TC::Write(1, std::to_string(i))});
    ASSERT_TRUE(r.committed) << r.failure.ToString();
  }
  TC::TxnResult readback = cluster.RunTxn(0, {TC::Read(0), TC::Read(1)});
  ASSERT_TRUE(readback.committed) << readback.failure.ToString();
  EXPECT_EQ(readback.reads, (std::vector<Value>{"20", "19"}));
  cluster.Stop();
  const obs::MetricsSnapshot snap = cluster.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("net.msgs_sent"), 0u);
  EXPECT_EQ(snap.CounterValue("node.phys_reads_served"), 42u);
  EXPECT_EQ(snap.CounterValue("node.phys_writes_served"), 40u);
  EXPECT_TRUE(cluster.Certify().ok);
}

TEST(ThreadProtocols, OutcomeAcksRideOnTrafficToTheCoordinator) {
  // Back-to-back writes from one coordinator: each participant's outcome
  // ack rides on its reply to the next write, and the flush acks the last
  // transaction. TSan watches the owed-ack lists and their flush timers.
  using TC = harness::ThreadCluster;
  harness::ThreadClusterConfig cfg;
  cfg.n_processors = 3;
  cfg.n_objects = 2;
  cfg.protocol = harness::Protocol::kVirtualPartition;
  TC cluster(cfg);
  constexpr uint64_t kTxns = 40;
  uint64_t committed = 0;
  // Early attempts may fail while the first view forms.
  for (int attempt = 0; committed < kTxns && attempt < 2000; ++attempt) {
    if (cluster.RunTxn(0, {TC::Write(0, std::to_string(committed))})
            .committed) {
      ++committed;
    } else {
      SleepMs(2);
    }
  }
  ASSERT_EQ(committed, kTxns);
  SleepMs(100);  // Past the flush delay (a quarter of the retry period).
  cluster.Stop();
  const obs::MetricsSnapshot snap = cluster.metrics().Snapshot();
  const auto* acked = snap.FindHistogram("txn.outcome_ack_us");
  ASSERT_NE(acked, nullptr);
  EXPECT_GE(acked->count, kTxns);  // Every outcome round completed.
  EXPECT_GE(snap.CounterValue("node.outcome_acks_piggybacked"), kTxns);
  EXPECT_LT(snap.CounterValue("node.outcome_ack_flushes"), kTxns / 2);
  EXPECT_TRUE(cluster.Certify().ok);
}

TEST(ThreadProtocols, SameMembershipViewChangesFailOnlyInFlightTxns) {
  // Closed-loop clients while nodes keep re-forming the partition with the
  // same members (as a missed probe deadline does under CPU contention).
  // A transaction begun between views waits for the new one, so each view
  // change fails at most the few transactions already bound to the old vp
  // — not every resubmission a client makes while the view forms.
  using TC = harness::ThreadCluster;
  harness::ThreadClusterConfig cfg;
  cfg.n_processors = 3;
  cfg.n_objects = 8;
  TC cluster(cfg);
  SleepMs(100);  // The first view forms.
  constexpr int kClients = 3;
  constexpr int kViewChanges = 10;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0}, failed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (uint64_t i = 0; !stop.load(); ++i) {
        const auto obj = static_cast<ObjectId>((3 * t + i) % 8);
        TC::TxnResult r =
            cluster.RunTxn(static_cast<ProcessorId>(t),
                           {TC::Increment(obj), TC::Read((obj + 1) % 8)});
        (r.committed ? committed : failed).fetch_add(1);
      }
    });
  }
  for (int k = 0; k < kViewChanges; ++k) {
    SleepMs(50);
    const auto p = static_cast<ProcessorId>(k % 3);
    ASSERT_TRUE(cluster.runtime().RunOn(p, [&cluster, p] {
      static_cast<core::VpNode&>(cluster.node(p)).ForceCreateNewVp();
    }));
  }
  SleepMs(100);
  stop = true;
  for (auto& c : clients) c.join();
  cluster.Stop();
  EXPECT_GT(committed.load(), 0u);
  // A client has one transaction in flight; allow it a few per change.
  EXPECT_LE(failed.load(), uint64_t{3 * kClients * kViewChanges})
      << committed.load() << " committed";
  EXPECT_TRUE(cluster.Certify().ok);
}

TEST(ThreadProtocols, ReconfigCommitsUnderConcurrentTraffic) {
  // Online reconfiguration on real threads: client threads hammer the
  // cluster while the main thread proposes an epoch advance. TSan watches
  // the lock-free PlacementDirectory readers race the registering writer.
  using TC = harness::ThreadCluster;
  harness::ThreadClusterConfig cfg;
  cfg.n_processors = 3;
  cfg.n_objects = 4;
  cfg.protocol = harness::Protocol::kVirtualPartition;
  TC cluster(cfg);

  constexpr int kThreads = 3;
  constexpr int kTxnsPerThread = 20;
  std::array<std::atomic<uint64_t>, 4> committed_per_obj{};
  std::atomic<bool> proposed{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      int done = 0;
      for (int attempt = 0; done < kTxnsPerThread && attempt < 2000;
           ++attempt) {
        const ObjectId obj = static_cast<ObjectId>((t + done) % 4);
        TC::TxnResult r = cluster.RunTxn(
            static_cast<ProcessorId>(t % 3),
            {TC::Increment(obj), TC::Read((obj + 1) % 4)});
        if (r.committed) {
          committed_per_obj[obj].fetch_add(1);
          ++done;
          // Half-way through the first thread's quota, reconfigure: retire
          // p2's copy of object 3 and double p1's vote on object 0.
          if (t == 0 && done == kTxnsPerThread / 2 &&
              !proposed.exchange(true)) {
            cluster.ProposeReconfig(
                0, {ReconfigOp{ReconfigOp::Kind::kRemoveCopy, 3, 2, 1},
                    ReconfigOp{ReconfigOp::Kind::kSetWeight, 0, 1, 2}});
          }
        } else {
          SleepMs(2);
        }
      }
      EXPECT_EQ(done, kTxnsPerThread) << "client thread starved";
    });
  }
  for (auto& c : clients) c.join();

  // The epoch must have committed while traffic was live.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cluster.placements().LatestEpoch() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    SleepMs(10);
  }
  ASSERT_GE(cluster.placements().LatestEpoch(), 1u);
  const storage::CopyPlacement& current =
      cluster.placements().At(cluster.placements().LatestEpoch());
  EXPECT_FALSE(current.HasCopy(3, 2));
  EXPECT_EQ(current.WeightOf(0, 1), 2u);

  TC::TxnResult readback = cluster.RunTxn(
      0, {TC::Read(0), TC::Read(1), TC::Read(2), TC::Read(3)});
  ASSERT_TRUE(readback.committed) << readback.failure.ToString();
  for (int obj = 0; obj < 4; ++obj) {
    EXPECT_EQ(readback.reads[obj],
              std::to_string(committed_per_obj[obj].load()))
        << "lost or phantom increment on object " << obj;
  }

  cluster.Stop();
  EXPECT_GE(cluster.metrics().Snapshot().CounterValue(
                "vp.reconfigs_committed"),
            1u);
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
}

}  // namespace
}  // namespace vp
