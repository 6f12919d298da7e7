// One-stop construction of a simulated replicated-database system: the
// event kernel, communication graph, network, failure injector, per-node
// storage/locks, the chosen replica-control protocol at every processor,
// and the execution recorder. Tests, benchmarks and examples all build on
// this.
#ifndef VPART_HARNESS_CLUSTER_H_
#define VPART_HARNESS_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/lock_manager.h"
#include "core/node_base.h"
#include "core/vp_config.h"
#include "core/vp_node.h"
#include "history/checker.h"
#include "history/recorder.h"
#include "net/failure_injector.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/probes.h"
#include "obs/trace.h"
#include "protocols/naive_view_node.h"
#include "protocols/quorum_node.h"
#include "runtime/sim_runtime.h"
#include "sim/scheduler.h"
#include "storage/placement.h"
#include "storage/replica_store.h"
#include "storage/stable_store.h"

namespace vp::harness {

/// Which replica-control protocol the cluster runs.
enum class Protocol {
  kVirtualPartition,
  kQuorum,           // Gifford weighted voting (QuorumConfig).
  kMajorityVoting,   // Thomas: r = w = majority.
  kRowa,             // read-one/write-all, no views.
  kNaiveView,        // §4 strawman (incorrect by design).
};

std::string ProtocolName(Protocol p);

/// Inverse of ProtocolName. Returns false (leaving *out untouched) for an
/// unknown name.
bool ProtocolFromName(const std::string& name, Protocol* out);

struct ClusterConfig {
  uint32_t n_processors = 3;
  /// Used when `placement` is empty: n_objects fully replicated objects.
  ObjectId n_objects = 4;
  /// Custom placement; empty = FullReplication(n_processors, n_objects).
  storage::CopyPlacement placement;
  bool has_custom_placement = false;
  /// Initial committed value of every copy.
  Value initial_value = "0";
  /// Per-object overrides of the initial value.
  std::map<ObjectId, Value> initial_values;

  net::NetworkConfig net;
  uint64_t seed = 42;

  /// Fault model for processor crashes. kRetainMemory (default) preserves
  /// volatile state across crashes; kWal/kNoWal destroy it on kCrashAmnesia
  /// faults and reboot the node from its StableStore on recovery.
  storage::DurabilityMode durability = storage::DurabilityMode::kRetainMemory;

  /// Integrity model of the stable devices. kChecksum (default) frames WAL
  /// records and copy images with checksums so reboot salvages torn tails
  /// and quarantines rotted copies; kNoChecksum is the negative control
  /// that serves rotted bytes verbatim.
  storage::IntegrityMode integrity = storage::IntegrityMode::kChecksum;

  Protocol protocol = Protocol::kVirtualPartition;
  core::VpConfig vp;
  protocols::QuorumConfig quorum;
  protocols::NaiveConfig naive;

  /// Reliable-delivery layer for physical operations (all protocols); lives
  /// here rather than on the per-protocol configs because kMajorityVoting
  /// and kRowa build their QuorumConfig from factories. The channel's jitter
  /// stream is decorrelated per cluster by xor-ing `seed` into jitter_seed.
  core::ReliableConfig reliable;

  /// Enables causal tracing: transactions and view changes get trace ids
  /// and the cluster's tracer records spans (see obs/trace.h). Metrics are
  /// always on — the serial registry is free on the sim backend.
  bool tracing = false;

  /// Per-node flight-recorder ring capacity (events). The recorder is
  /// always on — serial single-writer rings are cheap on the sim backend —
  /// and feeds the online invariant probes. Zero disables both.
  size_t fdr_capacity = obs::FlightRecorder::kDefaultCapacity;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- Component access ---
  sim::Scheduler& scheduler() { return scheduler_; }
  net::CommGraph& graph() { return graph_; }
  net::Network& network() { return network_; }
  net::FailureInjector& injector() { return injector_; }
  runtime::SimRuntime& runtime() { return runtime_; }
  /// The simulation-backed runtime view nodes and clients program against.
  runtime::RuntimeView runtime_view() { return runtime_.view(); }
  history::Recorder& recorder() { return recorder_; }
  const storage::CopyPlacement& placement() const { return placement_; }
  /// Epoch chain shared by every node (slot 0 = `placement()`).
  storage::PlacementDirectory& placements() { return placements_; }
  const storage::PlacementDirectory& placements() const { return placements_; }
  /// Highest epoch any committed view has introduced so far.
  EpochId LatestEpoch() const { return placements_.LatestEpoch(); }
  /// Placement of the latest epoch — what durability checks must use: a
  /// reconfigured-away copy is legitimately stale.
  const storage::CopyPlacement& FinalPlacement() const {
    return placements_.At(placements_.LatestEpoch());
  }
  storage::ReplicaStore& store(ProcessorId p) { return *stores_[p]; }
  cc::LockManager& locks(ProcessorId p) { return *locks_[p]; }
  storage::StableStore& stable(ProcessorId p) { return *stables_[p]; }
  const ClusterConfig& config() const { return config_; }
  uint32_t size() const { return config_.n_processors; }
  /// Cluster-wide metrics registry (serial mode: the sim runs everything
  /// on one thread, and plain-int counters keep snapshots deterministic).
  /// The only cluster-wide counter store: every node, lock manager, channel
  /// and stable device counts into it, retired incarnations included.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  /// Always-on flight recorder holding each node's last-N protocol events.
  obs::FlightRecorder& fdr() { return fdr_; }
  const obs::FlightRecorder& fdr() const { return fdr_; }
  /// Online invariant probes consuming the flight-recorder stream.
  obs::ProbeEngine& probes() { return probes_; }
  const obs::ProbeEngine& probes() const { return probes_; }

  core::NodeBase& node(ProcessorId p) { return *nodes_[p]; }
  /// Typed access; aborts if the cluster runs a different protocol.
  core::VpNode& vp_node(ProcessorId p);
  protocols::NaiveViewNode& naive_node(ProcessorId p);

  /// Queues a reconfiguration batch at processor `p` (VP protocol only).
  /// The batch commits at the next vp boundary whose view passes the
  /// authoritativeness gate; see VpNode::ProposeReconfig.
  void ProposeReconfig(ProcessorId p, std::vector<ReconfigOp> ops);

  // --- Running ---
  void RunFor(sim::Duration d) { scheduler_.RunUntil(scheduler_.Now() + d); }
  void RunUntilIdle() { scheduler_.RunUntilIdle(); }

  // --- Analysis ---
  /// Initial one-copy database matching the configured initial values.
  history::InitialDb initial_db() const;
  /// Theorem 1′ certification of everything committed so far.
  history::CertifyResult Certify() const;
  /// Exhaustive-search certification (small histories).
  history::CertifyResult CertifyAnyOrder(size_t max_txns = 9) const;
  /// CP-serializability of recorded physical operations (assumption A1).
  history::CertifyResult CertifyConflicts() const;
  /// No-lost-committed-write check: committed reads trace to committed
  /// writes (or the initial database).
  history::CertifyResult CertifyDurableReads() const;

  /// True once every alive, mutually-connected processor pair reports the
  /// same virtual partition (VP protocol only).
  bool VpConverged() const;

  /// Crash-amnesia reboot: retires the node object (the crash hook already
  /// did so for injector-driven crashes), then reconstructs store, locks,
  /// and node from the processor's StableStore and starts the new node.
  void Reboot(ProcessorId p);

  /// Marks `p` alive and, if an amnesia crash left a reboot pending (e.g.
  /// the fault plan crashed it without a matching recover action), reboots
  /// it. Harness code reviving processors directly — bypassing the
  /// injector's recover hook — must use this instead of graph().SetAlive.
  void Revive(ProcessorId p);

 private:
  std::unique_ptr<core::NodeBase> MakeNode(ProcessorId p);

  ClusterConfig config_;
  /// Declared before every component that caches counter handles.
  obs::MetricsRegistry metrics_{obs::RegistryMode::kSerial};
  obs::Tracer tracer_;
  sim::Scheduler scheduler_;
  net::CommGraph graph_;
  net::Network network_;
  net::FailureInjector injector_;
  runtime::SimRuntime runtime_;
  storage::CopyPlacement placement_;
  storage::PlacementDirectory placements_;
  /// Declared after metrics_ (probe counters) and before nodes_ (nodes
  /// record into the rings). Sim runs single-threaded: serial mode.
  obs::FlightRecorder fdr_;
  obs::ProbeEngine probes_;
  history::Recorder recorder_;
  std::vector<std::unique_ptr<storage::ReplicaStore>> stores_;
  std::vector<std::unique_ptr<cc::LockManager>> locks_;
  std::vector<std::unique_ptr<storage::StableStore>> stables_;
  std::vector<std::unique_ptr<core::NodeBase>> nodes_;
  /// Processors whose amnesia crash is awaiting the matching recover.
  std::vector<bool> reboot_pending_;
  /// Graveyards: objects replaced by Reboot stay alive until the cluster
  /// dies, because scheduled closures capture raw pointers into them.
  std::vector<std::unique_ptr<core::NodeBase>> retired_nodes_;
  std::vector<std::unique_ptr<cc::LockManager>> retired_locks_;
  std::vector<std::unique_ptr<storage::ReplicaStore>> retired_stores_;
};

}  // namespace vp::harness

#endif  // VPART_HARNESS_CLUSTER_H_
