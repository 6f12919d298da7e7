// Minimal simulation-backed node environment for unit tests.
//
// harness::Cluster is the full system — failure injector, stable storage,
// reboot machinery, certification. Tests that only need "wired protocol
// nodes on a deterministic substrate" can use TestEnv instead: it owns the
// event kernel, communication graph, network, SimRuntime adapter,
// placement, per-processor stores and lock managers, the recorder, and one
// serial metrics registry that the network, lock managers and nodes share.
// NodeEnv::ForTest(env, p) then yields a ready NodeEnv for constructing
// any protocol node directly, with none of the per-test wiring that used
// to be copy-pasted across test files.
#ifndef VPART_CORE_TEST_ENV_H_
#define VPART_CORE_TEST_ENV_H_

#include <memory>
#include <vector>

#include "cc/lock_manager.h"
#include "core/node_base.h"
#include "history/recorder.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "runtime/sim_runtime.h"
#include "sim/scheduler.h"
#include "storage/placement.h"
#include "storage/replica_store.h"

namespace vp::core {

class TestEnv {
 public:
  struct Options {
    uint32_t n_processors = 3;
    ObjectId n_objects = 2;
    uint64_t seed = 1;
    Value initial_value = "0";
    net::NetworkConfig net;
  };

  TestEnv() : TestEnv(Options()) {}
  explicit TestEnv(Options opts)
      : opts_(opts),
        graph_(opts.n_processors),
        network_(&scheduler_, &graph_, opts.net, opts.seed ^ 0x9e37),
        runtime_(&scheduler_, &network_),
        placement_(storage::CopyPlacement::FullReplication(
            opts.n_processors, opts.n_objects)),
        placements_(placement_) {
    network_.AttachMetrics(&metrics_);
    stores_.reserve(opts.n_processors);
    locks_.reserve(opts.n_processors);
    for (ProcessorId p = 0; p < opts.n_processors; ++p) {
      stores_.push_back(std::make_unique<storage::ReplicaStore>());
      locks_.push_back(std::make_unique<cc::LockManager>(
          runtime_.executor(), runtime_.clock(), &metrics_));
      for (ObjectId obj : placement_.LocalObjects(p)) {
        stores_[p]->CreateCopy(obj, opts.initial_value, kEpochDate);
      }
    }
  }
  TestEnv(const TestEnv&) = delete;
  TestEnv& operator=(const TestEnv&) = delete;

  /// A fully wired environment for a node at processor `p`. `stable` stays
  /// null: crash-amnesia durability is harness territory.
  NodeEnv Env(ProcessorId p) {
    VP_CHECK(p < opts_.n_processors);
    NodeEnv env;
    env.clock = runtime_.clock();
    env.executor = runtime_.executor();
    env.transport = runtime_.transport();
    env.placement = &placement_;
    env.placements = &placements_;
    env.store = stores_[p].get();
    env.locks = locks_[p].get();
    env.recorder = &recorder_;
    env.metrics = &metrics_;
    return env;
  }

  sim::Scheduler& scheduler() { return scheduler_; }
  net::CommGraph& graph() { return graph_; }
  net::Network& network() { return network_; }
  runtime::SimRuntime& runtime() { return runtime_; }
  history::Recorder& recorder() { return recorder_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  storage::ReplicaStore& store(ProcessorId p) { return *stores_[p]; }
  cc::LockManager& locks(ProcessorId p) { return *locks_[p]; }
  const storage::CopyPlacement& placement() const { return placement_; }
  storage::PlacementDirectory& placements() { return placements_; }
  uint32_t size() const { return opts_.n_processors; }

  void RunFor(sim::Duration d) { scheduler_.RunUntil(scheduler_.Now() + d); }
  void RunUntilIdle() { scheduler_.RunUntilIdle(); }

 private:
  const Options opts_;
  /// Declared before every component that caches counter handles.
  obs::MetricsRegistry metrics_{obs::RegistryMode::kSerial};
  sim::Scheduler scheduler_;
  net::CommGraph graph_;
  net::Network network_;
  runtime::SimRuntime runtime_;
  storage::CopyPlacement placement_;
  storage::PlacementDirectory placements_;
  std::vector<std::unique_ptr<storage::ReplicaStore>> stores_;
  std::vector<std::unique_ptr<cc::LockManager>> locks_;
  history::Recorder recorder_;
};

inline NodeEnv NodeEnv::ForTest(TestEnv& env, ProcessorId p) {
  return env.Env(p);
}

}  // namespace vp::core

#endif  // VPART_CORE_TEST_ENV_H_
