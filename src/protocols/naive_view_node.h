// The *incorrect* strawman protocol of §4: majority rule plus
// read-one/write-all evaluated against each processor's PRIVATE view, with
// no virtual-partition discipline. Processors update views independently
// and asynchronously, and participants serve any request.
//
// Under assumptions A2 (clusters are cliques) and A3 (views exactly track
// the communication graph) this protocol would be correct; the paper's
// Examples 1 and 2 show that relaxing either assumption produces executions
// that are not one-copy serializable. This implementation exists to
// reproduce those anomalies mechanically (tests/anomaly_test.cc,
// bench/bench_examples.cc) and as a foil for the VP protocol.
//
// Views: by default a node's view is its live neighborhood in the
// communication graph (instant, A3-style detection); SetViewOverride pins
// a stale view, which is how Example 2's laggard processors are scripted.
#ifndef VPART_PROTOCOLS_NAIVE_VIEW_NODE_H_
#define VPART_PROTOCOLS_NAIVE_VIEW_NODE_H_

#include <map>
#include <optional>
#include <set>
#include <string>

#include "core/node_base.h"

namespace vp::protocols {

struct NaiveConfig {
  sim::Duration op_timeout = sim::Millis(20);
  sim::Duration lock_timeout = sim::Millis(100);
  sim::Duration outcome_retry_period = sim::Millis(40);
};

class NaiveViewNode : public core::NodeBase {
 public:
  NaiveViewNode(ProcessorId id, core::NodeEnv env, NaiveConfig config);

  void LogicalRead(TxnId txn, ObjectId obj, core::ReadCallback cb) override;
  void LogicalWrite(TxnId txn, ObjectId obj, Value value,
                    core::WriteCallback cb) override;
  std::string name() const override { return "naive-view"; }

  /// Pins this node's view (Example 2's stale-view processors).
  void SetViewOverride(std::set<ProcessorId> view) {
    view_override_ = std::move(view);
  }
  void ClearViewOverride() { view_override_.reset(); }

  /// The node's current view: the override if set, else its live
  /// neighborhood (itself plus every processor it can reach directly).
  std::set<ProcessorId> CurrentView() const;

 protected:
  bool HandleProtocolMessage(const net::Message& m) override;

 private:
  /// Reliable-channel delivery-deadline hook; synthesizes a failed reply
  /// from `q` so the op fails through the normal reply path.
  void OnDeliveryTimeout(uint64_t op_id, ProcessorId q, bool write_phase);
  /// Reply paths, shared by delivered replies and synthesized nacks.
  void HandleReadReply(ProcessorId src, const core::msg::PhysReadReply& body);
  void HandleWriteReply(ProcessorId src,
                        const core::msg::PhysWriteReply& body);

  struct PendingRead {
    TxnId txn;
    ObjectId obj;
    core::ReadCallback cb;
    runtime::TaskId timeout_event = runtime::kInvalidTask;
  };
  struct PendingWrite {
    TxnId txn;
    ObjectId obj;
    Value value;
    core::WriteCallback cb;
    std::set<ProcessorId> awaiting;
    /// Largest lock wait any reply reported, for critical-path attribution.
    uint64_t max_lock_wait_us = 0;
    runtime::TaskId timeout_event = runtime::kInvalidTask;
  };

  NaiveConfig config_;
  std::optional<std::set<ProcessorId>> view_override_;
  uint64_t write_counter_ = 0;
  std::map<uint64_t, PendingRead> pending_reads_;
  std::map<uint64_t, PendingWrite> pending_writes_;
};

}  // namespace vp::protocols

#endif  // VPART_PROTOCOLS_NAIVE_VIEW_NODE_H_
