#include "runtime/thread_runtime.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <unordered_set>

#include "common/logging.h"
#include "net/network.h"
#include "runtime/mpsc_queue.h"

namespace vp::runtime {

namespace {
constexpr TimePoint kNoDeadline = std::numeric_limits<TimePoint>::max();
/// How long a delivery waits between retries when the destination endpoint
/// has not registered yet (node mid-Start). Total retry budget is Δ.
constexpr Duration kUnregisteredRetryDelay = sim::Micros(100);

/// The shard whose worker thread this is (null on client threads). Lets
/// ScheduleTask/CancelTask detect the owner-local case — arming or
/// cancelling a timer of one's own shard — and touch the worker-private
/// heap directly instead of routing a command through the mailbox. A void
/// pointer only ever compared for identity, so a shard of a destroyed
/// runtime can never be mistaken for a live one's.
thread_local const void* tls_owner_shard = nullptr;
}  // namespace

// ---------------------------------------------------------------------------
// Shard: one per worker thread. A strand p lives on shard p % workers, so
// every task of a strand is consumed by exactly one thread — the shard
// owner — which is what serializes strands without per-strand locks.

struct ThreadRuntime::Shard {
  /// Due-now tasks plus cross-thread commands (remote timer arms, remote
  /// cancels). Producers (any thread) push lock-free; only the owning
  /// worker pops. This is the ScheduleAfter(0) hot path.
  MpscQueue<Task> mailbox;

  /// Delayed tasks: min-heap by (when, id), WORKER-PRIVATE — no lock.
  /// Every protocol timer is armed and cancelled from its owning strand,
  /// which executes on this shard's worker thread, so in practice the
  /// heap is single-threaded by construction; a foreign-thread arm or
  /// cancel arrives as a mailbox command the owner applies. Stop touches
  /// these only after the worker has joined. `pending` holds the ids
  /// currently in the heap; `cancelled` the tombstones.
  std::vector<Task> heap;
  std::unordered_set<TaskId> pending;
  std::unordered_set<TaskId> cancelled;

  /// Sleep protocol. The worker publishes `sleeping` (seq_cst) before its
  /// final emptiness recheck; producers push (seq_cst RMW) before loading
  /// the flag — the Dekker pair guarantees one side sees the other, so no
  /// wakeup is lost without taking idle_mu on the non-sleeping fast path.
  std::mutex idle_mu;
  std::condition_variable cv;
  std::atomic<bool> sleeping{false};

  /// Producers hold this +1 across the stop-check → enqueue window so
  /// Stop's final drain can wait out in-flight pushes and is guaranteed to
  /// observe (and destroy) every enqueued closure.
  std::atomic<int> inflight{0};

  /// Task-id sequence for this shard; the shard index rides the low bits.
  std::atomic<uint64_t> next_seq{1};
};

// ---------------------------------------------------------------------------
// Clock: steady-clock microseconds since runtime construction.

class ThreadRuntime::SteadyClock final : public Clock {
 public:
  explicit SteadyClock(const ThreadRuntime* rt) : rt_(rt) {}
  TimePoint Now() const override { return rt_->NowUs(); }

 private:
  const ThreadRuntime* const rt_;
};

// ---------------------------------------------------------------------------
// Executor: one strand per processor, pinned to its shard's wheel+mailbox.

class ThreadRuntime::StrandExecutor final : public Executor {
 public:
  StrandExecutor(ThreadRuntime* rt, uint32_t strand)
      : rt_(rt), strand_(strand) {}

  TaskId ScheduleAfter(Duration delay, std::function<void()> fn) override {
    VP_CHECK_MSG(delay >= 0, "negative delay");
    return rt_->ScheduleTask(strand_, rt_->NowUs() + delay, std::move(fn));
  }
  TaskId ScheduleAt(TimePoint when, std::function<void()> fn) override {
    return rt_->ScheduleTask(strand_, when, std::move(fn));
  }
  void Cancel(TaskId id) override { rt_->CancelTask(id); }

 private:
  ThreadRuntime* const rt_;
  const uint32_t strand_;
};

// ---------------------------------------------------------------------------
// Transport: per-directed-link locked queues; every delivery runs as a task
// on the destination strand, so receive handlers are strand-serialized.

class ThreadRuntime::ThreadTransport final : public Transport {
 public:
  ThreadTransport(ThreadRuntime* rt, uint32_t n, Duration delta)
      : rt_(rt), n_(n), delta_(delta), links_(size_t{n} * n),
        endpoints_(n), alive_(n) {
    for (auto& e : endpoints_) e.store(nullptr, std::memory_order_relaxed);
    for (auto& a : alive_) a.store(true, std::memory_order_relaxed);
  }

  void Register(ProcessorId p, net::NodeInterface* endpoint) override {
    VP_CHECK_MSG(p < n_, "Register: bad processor id");
    // Release pairs with the acquire load in DeliverOne: a delivery task
    // observing the new endpoint also observes the incarnation's state.
    endpoints_[p].store(endpoint, std::memory_order_release);
  }

  void Send(net::Message msg) override {
    VP_CHECK_MSG(msg.src < n_ && msg.dst < n_, "Send: bad endpoint");
    // Nodes deliver to themselves by direct call (NodeBase::SendPhys).
    VP_CHECK_MSG(msg.src != msg.dst, "Send: self-send through a transport");
    msg.sent_at = rt_->NowUs();
    if (!Alive(msg.src) || !Alive(msg.dst)) {
      // Not a send that happened: count the drop, not the message, so
      // msgs_sent/msgs_remote track traffic that actually entered a link
      // and message-cost accounting is not inflated by dead-peer sends.
      rt_->ctr_msgs_dropped_dead_->Increment();
      return;
    }
    rt_->ctr_msgs_sent_->Increment();
    rt_->ctr_msgs_remote_->Increment();
    const ProcessorId dst = msg.dst;
    const size_t link = size_t{msg.src} * n_ + dst;
    {
      std::lock_guard<std::mutex> lk(links_[link].mu);
      links_[link].q.push_back(std::move(msg));
    }
    // Drain on the receiver's strand. One task per message: the queue (not
    // the task) carries the payload, so delivery order per link is the
    // queue's FIFO order even if tasks fire out of order.
    rt_->ScheduleTask(dst, rt_->NowUs(),
                      [this, link, dst] { DeliverOne(link, dst); });
  }

  bool Alive(ProcessorId p) const override {
    return p < n_ && alive_[p].load(std::memory_order_acquire);
  }
  bool CanCommunicate(ProcessorId a, ProcessorId b) const override {
    return Alive(a) && Alive(b);  // Full connectivity; no simulated cuts.
  }
  double Cost(ProcessorId a, ProcessorId b) const override {
    return a == b ? 0.0 : 1.0;  // Uniform in-process link cost.
  }
  uint32_t size() const override { return n_; }
  Duration Delta() const override { return delta_; }

  void SetAlive(ProcessorId p, bool alive) {
    VP_CHECK_MSG(p < n_, "SetAlive: bad processor id");
    alive_[p].store(alive, std::memory_order_release);
  }

 private:
  struct Link {
    std::mutex mu;
    std::deque<net::Message> q;
  };

  void DeliverOne(size_t link, ProcessorId dst) {
    net::Message msg;
    {
      std::lock_guard<std::mutex> lk(links_[link].mu);
      if (links_[link].q.empty()) return;
      msg = std::move(links_[link].q.front());
      links_[link].q.pop_front();
    }
    if (!Alive(dst)) {
      rt_->ctr_msgs_dropped_dead_->Increment();
      return;
    }
    net::NodeInterface* ep = endpoints_[dst].load(std::memory_order_acquire);
    if (ep == nullptr) {
      // Destination alive but mid-registration (Start has not run yet).
      // Losing the message here would silently break FIFO-reliable
      // delivery between live peers, so put it back at the front — all
      // DeliverOne calls for this link run on dst's strand, so the
      // re-queue cannot interleave with another pop — and retry shortly,
      // for at most Δ, before declaring the loss.
      if (rt_->NowUs() - msg.sent_at <= delta_) {
        {
          std::lock_guard<std::mutex> lk(links_[link].mu);
          links_[link].q.push_front(std::move(msg));
        }
        rt_->ctr_msgs_retried_unreg_->Increment();
        rt_->ScheduleTask(dst, rt_->NowUs() + kUnregisteredRetryDelay,
                          [this, link, dst] { DeliverOne(link, dst); });
      } else {
        rt_->ctr_msgs_dropped_unreg_->Increment();
      }
      return;
    }
    rt_->ctr_msgs_delivered_->Increment();
    ep->HandleMessage(msg);  // Already on dst's strand.
  }

  ThreadRuntime* const rt_;
  const uint32_t n_;
  const Duration delta_;
  std::vector<Link> links_;  // links_[src * n + dst].
  std::vector<std::atomic<net::NodeInterface*>> endpoints_;
  std::vector<std::atomic<bool>> alive_;
};

// ---------------------------------------------------------------------------
// ThreadRuntime proper.

ThreadRuntime::ThreadRuntime(uint32_t n_processors)
    : ThreadRuntime(n_processors, Config()) {}

ThreadRuntime::ThreadRuntime(uint32_t n_processors, Config config)
    : n_(n_processors),
      config_(config),
      start_(std::chrono::steady_clock::now()) {
  VP_CHECK_MSG(n_ > 0, "ThreadRuntime needs at least one processor");
  obs::MetricsRegistry* metrics = config_.metrics != nullptr
                                      ? config_.metrics
                                      : obs::MetricsRegistry::Default();
  ctr_wheel_lock_ = metrics->counter("runtime.wheel_lock_acquisitions");
  ctr_mailbox_pushes_ = metrics->counter("runtime.mailbox_pushes");
  ctr_cross_wakeups_ = metrics->counter("runtime.cross_shard_wakeups");
  ctr_msgs_sent_ = metrics->counter("net.msgs_sent");
  ctr_msgs_remote_ = metrics->counter("net.msgs_remote");
  ctr_msgs_delivered_ = metrics->counter("net.msgs_delivered");
  ctr_msgs_dropped_dead_ = metrics->counter("net.msgs_dropped_dead");
  ctr_msgs_retried_unreg_ =
      metrics->counter("net.msgs_retried_unregistered");
  ctr_msgs_dropped_unreg_ =
      metrics->counter("net.msgs_dropped_unregistered");
  hist_wheel_depth_ = metrics->histogram("runtime.wheel_queue_depth");
  hist_strand_depth_ = metrics->histogram("runtime.strand_queue_depth");
  strand_depth_ = std::make_unique<std::atomic<uint32_t>[]>(n_);
  for (uint32_t p = 0; p < n_; ++p)
    strand_depth_[p].store(0, std::memory_order_relaxed);
  clock_ = std::make_unique<SteadyClock>(this);
  transport_ = std::make_unique<ThreadTransport>(this, n_, config_.delta);
  strands_.reserve(n_);
  for (uint32_t p = 0; p < n_; ++p) {
    strands_.push_back(std::make_unique<StrandExecutor>(this, p));
  }
  uint32_t workers = config_.workers;
  if (workers == 0) {
    workers = std::clamp(std::thread::hardware_concurrency(), 2u, 16u);
  }
  workers = std::clamp(workers, 1u, kMaxShards);
  shards_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    shards_.push_back(std::make_unique<Shard>());
  }
  threads_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadRuntime::~ThreadRuntime() { Stop(); }

Clock* ThreadRuntime::clock() { return clock_.get(); }

Transport* ThreadRuntime::transport() { return transport_.get(); }

Executor* ThreadRuntime::executor(ProcessorId p) {
  VP_CHECK_MSG(p < n_, "executor: bad processor id");
  return strands_[p].get();
}

RuntimeView ThreadRuntime::view(ProcessorId p) {
  return RuntimeView{clock_.get(), executor(p), transport_.get()};
}

void ThreadRuntime::SetAlive(ProcessorId p, bool alive) {
  transport_->SetAlive(p, alive);
}

bool ThreadRuntime::RunOn(ProcessorId p, std::function<void()> fn) {
  // The closure must be the promise's SOLE owner: if Stop() drains the
  // task unrun, destroying the closure breaks the promise, the wait below
  // returns, and `ran` reports the truth. (Were the caller to also hold
  // the promise — say inside a shared state block it keeps while waiting —
  // the drain could never break it and this would hang, which is exactly
  // the bug this protocol exists to fix.)
  auto ran = std::make_shared<std::atomic<bool>>(false);
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> fut = done->get_future();
  const TaskId id = ScheduleTask(
      p, NowUs(), [ran, done = std::move(done), fn = std::move(fn)] {
        fn();
        ran->store(true, std::memory_order_release);
        done->set_value();
      });
  if (id == kInvalidTask) return false;  // Stopped before enqueue.
  fut.wait();  // Fulfilled by the task, or broken by Stop's drain.
  return ran->load(std::memory_order_acquire);
}

void ThreadRuntime::Stop() {
  std::lock_guard<std::mutex> stop_lk(stop_mu_);
  if (stopped_) return;
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& sh : shards_) {
    {
      std::lock_guard<std::mutex> lk(sh->idle_mu);
    }
    sh->cv.notify_all();
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  // Final drain: destroy every closure that never ran. Waiting out
  // in-flight producers first guarantees we observe their pushes; any
  // producer arriving later sees stop_ and enqueues nothing. Destroying
  // the closures releases their captures (RunOn promises included).
  for (auto& sh : shards_) {
    while (sh->inflight.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    Task t;
    while (sh->mailbox.Pop(&t)) {
      // Cancel commands never counted toward strand depth.
      if (t.cancel_target == kInvalidTask) {
        strand_depth_[t.strand].fetch_sub(1, std::memory_order_relaxed);
      }
    }
    // The worker joined above, so its private heap is safely ours now.
    for (const Task& task : sh->heap) {
      strand_depth_[task.strand].fetch_sub(1, std::memory_order_relaxed);
    }
    sh->heap.clear();
    sh->pending.clear();
    sh->cancelled.clear();
  }
  stopped_ = true;
}

TimePoint ThreadRuntime::NowUs() const {
  return static_cast<TimePoint>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

TaskId ThreadRuntime::ScheduleTask(uint32_t strand, TimePoint when,
                                   std::function<void()> fn) {
  VP_CHECK_MSG(strand < n_, "ScheduleTask: bad strand");
  Shard& sh = *shards_[strand % shards_.size()];
  const auto shard_index =
      static_cast<TaskId>(strand % shards_.size());
  // inflight guards the stop-check → enqueue window (see Stop).
  sh.inflight.fetch_add(1, std::memory_order_seq_cst);
  if (stop_.load(std::memory_order_seq_cst)) {
    sh.inflight.fetch_sub(1, std::memory_order_relaxed);
    return kInvalidTask;  // Dropped before enqueue; caller can tell.
  }
  const TaskId id =
      (sh.next_seq.fetch_add(1, std::memory_order_relaxed) << kShardBits) |
      shard_index;
  hist_strand_depth_->Observe(
      strand_depth_[strand].fetch_add(1, std::memory_order_relaxed) + 1);
  if (when > NowUs() && tls_owner_shard == &sh) {
    // Owner-local timer arm: the caller is this shard's worker thread (a
    // strand task arming its own timer — every protocol timer takes this
    // path), so the heap is private. No lock, and no wake either: the
    // worker is awake right now, running us, and recomputes its sleep
    // deadline from the heap before it next parks.
    ArmLocal(sh, Task{when, id, strand, kInvalidTask, std::move(fn)});
    sh.inflight.fetch_sub(1, std::memory_order_release);
  } else {
    // Hot path (due now) and foreign-thread timer arms: one lock-free
    // push. Due-now tasks carry no cancellation bookkeeping (Cancel on
    // them is a no-op — they are morally already dispatched; generation
    // guards handle the rest). A delayed task pushed from a foreign
    // thread is a command: the owner re-files it into its private heap
    // (see WorkerLoop) instead of running it.
    sh.mailbox.Push(Task{when, id, strand, kInvalidTask, std::move(fn)});
    ctr_mailbox_pushes_->Increment();
    sh.inflight.fetch_sub(1, std::memory_order_release);
    WakeShard(sh);
  }
  return id;
}

void ThreadRuntime::CancelTask(TaskId id) {
  if (id == kInvalidTask) return;
  Shard& sh = *shards_[id & (kMaxShards - 1)];
  if (tls_owner_shard == &sh) {
    // Owning worker: tombstone directly (the heap is ours). Tombstone
    // only ids still in the heap, so `cancelled` never accumulates ids
    // that no pop will ever reclaim (same discipline as sim::Scheduler).
    if (sh.pending.count(id) > 0) sh.cancelled.insert(id);
    return;
  }
  // Cross-thread cancel — best-effort by the Executor contract. Ship a
  // tombstone command through the mailbox for the owner to apply; an
  // expiry that beats the command is absorbed by generation guards
  // (runtime::Timer). The inflight guard keeps the push visible to a
  // racing Stop, exactly as in ScheduleTask.
  sh.inflight.fetch_add(1, std::memory_order_seq_cst);
  if (stop_.load(std::memory_order_seq_cst)) {
    sh.inflight.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  Task cmd;
  cmd.cancel_target = id;
  sh.mailbox.Push(std::move(cmd));
  ctr_mailbox_pushes_->Increment();
  sh.inflight.fetch_sub(1, std::memory_order_release);
  WakeShard(sh);
}

void ThreadRuntime::ArmLocal(Shard& sh, Task task) {
  sh.pending.insert(task.id);
  sh.heap.push_back(std::move(task));
  std::push_heap(sh.heap.begin(), sh.heap.end(), TaskLater{});
  hist_wheel_depth_->Observe(sh.heap.size());
}

void ThreadRuntime::WakeShard(Shard& sh) {
  // Producer half of the Dekker handshake: our push (seq_cst) precedes
  // this load; the worker publishes sleeping (seq_cst) before its final
  // emptiness recheck. One of us is guaranteed to see the other.
  if (!sh.sleeping.load(std::memory_order_seq_cst)) return;
  {
    // Empty critical section: the worker either has not yet entered
    // cv.wait (it still holds idle_mu — we park until it does) or is
    // already waiting and will receive the notify.
    std::lock_guard<std::mutex> lk(sh.idle_mu);
  }
  sh.cv.notify_one();
  ctr_cross_wakeups_->Increment();
}

void ThreadRuntime::RunTask(Task& task) {
  // Tag this thread's log lines with the strand (= processor) whose task
  // it is running, so interleaved worker output stays readable.
  Logger::SetThreadProcessor(static_cast<int>(task.strand));
  task.fn();
  Logger::SetThreadProcessor(-1);
  task.fn = nullptr;  // Destroy captures promptly.
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadRuntime::WorkerLoop(uint32_t shard) {
  Shard& sh = *shards_[shard];
  tls_owner_shard = &sh;  // Mark this thread as the shard's owner.
  // Tasks popped in one sweep before timers are re-examined; bounds
  // timer starvation under a saturated mailbox.
  constexpr int kMailboxBatch = 256;
  std::vector<Task> due;
  while (true) {
    if (stop_.load(std::memory_order_acquire)) return;
    bool ran = false;

    // 1. Expired timers. The heap is ours alone, so the whole sweep —
    // including the nothing-due steady-state peek — takes no lock.
    if (!sh.heap.empty() && sh.heap.front().when <= NowUs()) {
      due.clear();
      const TimePoint now = NowUs();
      while (!sh.heap.empty() && sh.heap.front().when <= now) {
        std::pop_heap(sh.heap.begin(), sh.heap.end(), TaskLater{});
        Task task = std::move(sh.heap.back());
        sh.heap.pop_back();
        sh.pending.erase(task.id);
        strand_depth_[task.strand].fetch_sub(1, std::memory_order_relaxed);
        if (sh.cancelled.erase(task.id) > 0) continue;
        due.push_back(std::move(task));
      }
      for (Task& task : due) {
        RunTask(task);
        ran = true;
      }
    }

    // 2. Mailbox sweep (lock-free pops): apply commands, run due tasks.
    Task task;
    for (int i = 0; i < kMailboxBatch && sh.mailbox.Pop(&task); ++i) {
      if (task.cancel_target != kInvalidTask) {
        // Cross-thread cancel command (see CancelTask).
        if (sh.pending.count(task.cancel_target) > 0) {
          sh.cancelled.insert(task.cancel_target);
        }
        continue;
      }
      if (task.when > NowUs()) {
        // Timer armed from a foreign thread: file it into our heap. (If
        // its deadline passed while queued, the `when` check fails and it
        // simply runs below — a due timer.)
        ArmLocal(sh, std::move(task));
        continue;
      }
      strand_depth_[task.strand].fetch_sub(1, std::memory_order_relaxed);
      RunTask(task);
      ran = true;
    }
    if (ran) continue;

    // 3. Idle: publish the sleep flag, recheck, then park until the next
    // timer deadline or a producer's wake.
    std::unique_lock<std::mutex> ilk(sh.idle_mu);
    sh.sleeping.store(true, std::memory_order_seq_cst);
    const TimePoint next =
        sh.heap.empty() ? kNoDeadline : sh.heap.front().when;
    if (stop_.load(std::memory_order_seq_cst) || !sh.mailbox.Empty()) {
      sh.sleeping.store(false, std::memory_order_relaxed);
      continue;
    }
    if (next != kNoDeadline) {
      const auto deadline = start_ + std::chrono::microseconds(next);
      if (std::chrono::steady_clock::now() < deadline) {
        sh.cv.wait_until(ilk, deadline);
      }
    } else {
      sh.cv.wait(ilk);
    }
    sh.sleeping.store(false, std::memory_order_relaxed);
  }
}

}  // namespace vp::runtime
