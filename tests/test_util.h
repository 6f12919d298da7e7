// Helpers for scripting transactions in tests: runs a fixed op list
// sequentially against one node and reports the outcome.
#ifndef VPART_TESTS_TEST_UTIL_H_
#define VPART_TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/cluster.h"

namespace vp::testutil {

/// Shared cluster-config builder: `n_processors` nodes, `n_objects` fully
/// replicated objects, chosen protocol, everything else default. The
/// per-file Cfg helpers delegate here instead of re-listing the fields.
inline harness::ClusterConfig Cfg(
    uint32_t n_processors, uint64_t seed,
    harness::Protocol protocol = harness::Protocol::kVirtualPartition,
    ObjectId n_objects = 4) {
  harness::ClusterConfig c;
  c.n_processors = n_processors;
  c.n_objects = n_objects;
  c.seed = seed;
  c.protocol = protocol;
  return c;
}

/// Pointers to every node, in processor order (MakeClients input).
inline std::vector<core::NodeBase*> AllNodes(harness::Cluster& cluster) {
  std::vector<core::NodeBase*> nodes;
  nodes.reserve(cluster.size());
  for (ProcessorId p = 0; p < cluster.size(); ++p)
    nodes.push_back(&cluster.node(p));
  return nodes;
}

/// Cluster-wide value of a registry counter (0 if nothing registered it).
/// The registry sums every processor and incarnation; a test that pins one
/// processor's count reads it over a window in which only that processor
/// can move the counter, and says so.
inline uint64_t Counter(harness::Cluster& cluster, std::string_view name) {
  return cluster.metrics().Snapshot().CounterValue(name);
}

/// How far registry counters have moved since construction:
/// `delta("vp.joins")` reads the cluster's counter now, minus its value
/// when the CounterDelta was made.
class CounterDelta {
 public:
  explicit CounterDelta(harness::Cluster& cluster)
      : cluster_(&cluster), before_(cluster.metrics().Snapshot()) {}
  uint64_t operator()(std::string_view name) const {
    return Counter(*cluster_, name) - before_.CounterValue(name);
  }

 private:
  harness::Cluster* cluster_;
  obs::MetricsSnapshot before_;
};

/// Virtual partitions processor `p` has joined so far, from the recorder's
/// view events (its initial singleton partition included).
inline uint64_t Joins(harness::Cluster& cluster, ProcessorId p) {
  uint64_t joins = 0;
  for (const auto& e : cluster.recorder().view_events()) {
    if (e.p == p && e.is_join) ++joins;
  }
  return joins;
}

struct ScriptOp {
  enum class Kind { kRead, kWrite, kIncrement } kind = Kind::kRead;
  ObjectId obj = kInvalidObject;
  Value value;  // For writes.
};

inline ScriptOp Read(ObjectId obj) {
  return ScriptOp{ScriptOp::Kind::kRead, obj, ""};
}
inline ScriptOp Write(ObjectId obj, Value v) {
  return ScriptOp{ScriptOp::Kind::kWrite, obj, std::move(v)};
}
/// Read obj, then write read-value + 1 (counter increment).
inline ScriptOp Increment(ObjectId obj) {
  return ScriptOp{ScriptOp::Kind::kIncrement, obj, ""};
}

struct TxnOutcome {
  bool done = false;       // Reached a decision (commit or abort).
  bool committed = false;
  Status failure;          // First failing status, if any.
  std::vector<Value> reads;  // Values returned by kRead/kIncrement ops.
  TxnId txn;
};

/// Starts the scripted transaction; progresses as the caller pumps the
/// scheduler. The outcome object must outlive the run.
inline void StartScriptedTxn(core::NodeBase& node,
                             std::vector<ScriptOp> ops, TxnOutcome* out) {
  out->txn = node.NewTxnId();
  node.Begin(out->txn);
  // Drive ops recursively through a shared step closure. The closure holds
  // only a weak reference to itself (capturing the shared_ptr would form an
  // ownership cycle and leak); pending operation callbacks keep it alive.
  auto step = std::make_shared<std::function<void(size_t)>>();
  auto fail = [out](Status s) {
    out->done = true;
    out->committed = false;
    out->failure = s;
  };
  auto ops_ptr = std::make_shared<std::vector<ScriptOp>>(std::move(ops));
  std::weak_ptr<std::function<void(size_t)>> weak = step;
  *step = [&node, out, weak, fail, ops_ptr](size_t idx) {
    auto self = weak.lock();
    if (!self) return;
    if (idx >= ops_ptr->size()) {
      node.Commit(out->txn, [out](Status s) {
        out->done = true;
        out->committed = s.ok();
        if (!s.ok()) out->failure = s;
      });
      return;
    }
    const ScriptOp& op = (*ops_ptr)[idx];
    switch (op.kind) {
      case ScriptOp::Kind::kRead:
        node.LogicalRead(out->txn, op.obj,
                         [out, self, idx, fail](Result<core::ReadResult> r) {
                           if (!r.ok()) {
                             fail(r.status());
                             return;
                           }
                           out->reads.push_back(r.value().value);
                           (*self)(idx + 1);
                         });
        break;
      case ScriptOp::Kind::kWrite:
        node.LogicalWrite(out->txn, op.obj, op.value,
                          [out, self, idx, fail](Status s) {
                            if (!s.ok()) {
                              fail(s);
                              return;
                            }
                            (*self)(idx + 1);
                          });
        break;
      case ScriptOp::Kind::kIncrement:
        node.LogicalRead(
            out->txn, op.obj,
            [&node, out, self, idx, fail, ops_ptr](Result<core::ReadResult> r) {
              if (!r.ok()) {
                fail(r.status());
                return;
              }
              out->reads.push_back(r.value().value);
              const int64_t v =
                  std::strtoll(r.value().value.c_str(), nullptr, 10);
              node.LogicalWrite(out->txn, (*ops_ptr)[idx].obj,
                                std::to_string(v + 1),
                                [out, self, idx, fail](Status s) {
                                  if (!s.ok()) {
                                    fail(s);
                                    return;
                                  }
                                  (*self)(idx + 1);
                                });
            });
        break;
    }
  };
  (*step)(0);
}

/// Runs a scripted transaction to completion, pumping the cluster.
inline TxnOutcome RunTxn(harness::Cluster& cluster, ProcessorId at,
                         std::vector<ScriptOp> ops,
                         sim::Duration budget = sim::Seconds(2)) {
  TxnOutcome out;
  StartScriptedTxn(cluster.node(at), std::move(ops), &out);
  const sim::SimTime deadline = cluster.scheduler().Now() + budget;
  while (!out.done && cluster.scheduler().Now() < deadline) {
    if (!cluster.scheduler().RunOne()) break;
  }
  return out;
}

}  // namespace vp::testutil

#endif  // VPART_TESTS_TEST_UTIL_H_
