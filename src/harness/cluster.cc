#include "harness/cluster.h"

#include <string_view>
#include <utility>

#include "common/logging.h"

namespace vp::harness {

std::string ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kVirtualPartition:
      return "virtual-partition";
    case Protocol::kQuorum:
      return "quorum";
    case Protocol::kMajorityVoting:
      return "majority-voting";
    case Protocol::kRowa:
      return "rowa";
    case Protocol::kNaiveView:
      return "naive-view";
  }
  return "?";
}

bool ProtocolFromName(const std::string& name, Protocol* out) {
  for (Protocol p :
       {Protocol::kVirtualPartition, Protocol::kQuorum,
        Protocol::kMajorityVoting, Protocol::kRowa, Protocol::kNaiveView}) {
    if (ProtocolName(p) == name) {
      *out = p;
      return true;
    }
  }
  return false;
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      graph_(config_.n_processors),
      network_(&scheduler_, &graph_, config_.net, config_.seed ^ 0x9e37),
      injector_(&scheduler_, &graph_, config_.seed ^ 0x79b9),
      runtime_(&scheduler_, &network_),
      placement_(config_.has_custom_placement
                     ? config_.placement
                     : storage::CopyPlacement::FullReplication(
                           config_.n_processors, config_.n_objects)),
      placements_(placement_),
      fdr_(obs::FdrMode::kSerial, config_.n_processors, config_.fdr_capacity),
      probes_(/*thread_safe=*/false, &metrics_) {
  tracer_.set_enabled(config_.tracing);
  network_.AttachMetrics(&metrics_);
  // Probes consume the recorder stream live; violations are echoed back
  // into the rings so a dump shows the flag in its event context.
  fdr_.set_listener(&probes_);
  probes_.AttachRecorder(&fdr_);
  // Legitimate pre-existing values for the durable-read probe: every
  // configured initial value, plus the empty value unstaged copies serve.
  probes_.AddKnownValue("");
  probes_.AddKnownValue(config_.initial_value);
  for (const auto& [obj, v] : config_.initial_values) {
    probes_.AddKnownValue(v);
  }
  const uint32_t n = config_.n_processors;
  stores_.reserve(n);
  locks_.reserve(n);
  stables_.reserve(n);
  nodes_.reserve(n);
  reboot_pending_.assign(n, false);
  for (ProcessorId p = 0; p < n; ++p) {
    stores_.push_back(std::make_unique<storage::ReplicaStore>());
    locks_.push_back(std::make_unique<cc::LockManager>(
        runtime_.executor(), runtime_.clock(), &metrics_));
    stables_.push_back(std::make_unique<storage::StableStore>(
        config_.durability, config_.integrity));
    stables_[p]->AttachMetrics(&metrics_);
    // Mirror stable-device activity into the flight recorder. The hook
    // outlives reboots: the StableStore survives them and `p` is stable.
    stables_[p]->set_event_hook([this, p](const char* what, uint64_t a,
                                          uint64_t b) {
      obs::FdrEvent e;
      e.ts_us = static_cast<int64_t>(scheduler_.Now());
      e.node = p;
      const std::string_view w = what;
      if (w == "wal") {
        e.kind = obs::FdrKind::kWalAppend;
        e.a = a;
        e.b = b;
        fdr_.Record(e);
        e.kind = obs::FdrKind::kFsync;  // Every WAL append syncs the device.
        e.a = 0;
        e.b = a;
      } else if (w == "copy") {
        e.kind = obs::FdrKind::kFsync;
        e.a = 1;
        e.b = a;
      } else if (w == "viewmeta") {
        e.kind = obs::FdrKind::kFsync;
        e.a = 2;
        e.b = 0;
      } else if (w == "reconfig") {
        e.kind = obs::FdrKind::kFsync;
        e.a = 3;
        e.b = a;
      } else if (w == "salvage.torn") {
        e.kind = obs::FdrKind::kSalvage;
        e.a = 0;
        e.b = a;
      } else if (w == "salvage.quarantine") {
        e.kind = obs::FdrKind::kSalvage;
        e.a = 1;
        e.b = 0;
      } else {
        return;
      }
      fdr_.Record(e);
    });
    for (ObjectId obj : placement_.LocalObjects(p)) {
      auto it = config_.initial_values.find(obj);
      const Value& init =
          it != config_.initial_values.end() ? it->second
                                             : config_.initial_value;
      stores_[p]->CreateCopy(obj, init, kEpochDate);
    }
    // First boot: persists the initial images onto the empty device.
    stores_[p]->AttachStable(stables_[p].get());
  }
  for (ProcessorId p = 0; p < n; ++p) nodes_.push_back(MakeNode(p));
  for (auto& node : nodes_) node->Start();
  injector_.SetProcessorHooks(
      [this](ProcessorId p, bool amnesia) {
        if (!amnesia || !stables_[p]->amnesia()) return;
        // The volatile state dies now; the matching recover reboots the
        // node from stable storage.
        reboot_pending_[p] = true;
        nodes_[p]->Retire();
      },
      [this](ProcessorId p) {
        if (!reboot_pending_[p]) return;
        reboot_pending_[p] = false;
        Reboot(p);
      });
  injector_.SetCorruptionHook([this](const net::FaultAction& a) {
    using Kind = net::FaultAction::Kind;
    storage::StableStore* stable = stables_[a.a].get();
    switch (a.kind) {
      case Kind::kBitRot:
        if (a.corrupt_obj != kInvalidObject) {
          stable->CorruptCopyImage(a.corrupt_obj);
        } else {
          stable->CorruptWalPrepare(a.wal_index);
        }
        break;
      case Kind::kTornWrite:
        if (a.corrupt_obj != kInvalidObject) {
          stable->TearCopyImage(a.corrupt_obj);
        } else {
          stable->TearWalPrepare(a.wal_index);
        }
        break;
      case Kind::kCrashAmnesiaTorn:
        stable->TearTailOnCrash(/*drop=*/a.count != 0);
        break;
      default:
        break;
    }
  });
}

std::unique_ptr<core::NodeBase> Cluster::MakeNode(ProcessorId p) {
  core::NodeEnv env;
  env.clock = runtime_.clock();
  env.executor = runtime_.executor();
  env.transport = runtime_.transport();
  env.placement = &placement_;
  env.placements = &placements_;
  env.store = stores_[p].get();
  env.locks = locks_[p].get();
  env.recorder = &recorder_;
  env.stable = stables_[p].get();
  env.reliable = config_.reliable;
  env.reliable.jitter_seed ^= config_.seed;
  env.metrics = &metrics_;
  env.tracer = &tracer_;
  env.fdr = &fdr_;
  switch (config_.protocol) {
    case Protocol::kVirtualPartition:
      return std::make_unique<core::VpNode>(p, env, config_.vp);
    case Protocol::kQuorum:
      return std::make_unique<protocols::QuorumNode>(p, env, config_.quorum);
    case Protocol::kMajorityVoting:
      return std::make_unique<protocols::QuorumNode>(
          p, env, protocols::MajorityVotingConfig());
    case Protocol::kRowa:
      return std::make_unique<protocols::QuorumNode>(p, env,
                                                     protocols::RowaConfig());
    case Protocol::kNaiveView:
      return std::make_unique<protocols::NaiveViewNode>(p, env, config_.naive);
  }
  VP_CHECK(false);
  return nullptr;
}

void Cluster::Reboot(ProcessorId p) {
  storage::StableStore* stable = stables_[p].get();
  VP_CHECK_MSG(stable->amnesia(), "reboot requires an amnesia fault model");
  stable->BeginIncarnation();
  // Ensure the old object is quiet even if the crash hook never ran (tests
  // calling Reboot directly); Retire is idempotent.
  nodes_[p]->Retire();
  // Graveyard the replaced objects: closures already scheduled against them
  // hold raw pointers, so they must stay alive until the cluster dies.
  retired_nodes_.push_back(std::move(nodes_[p]));
  retired_locks_.push_back(std::move(locks_[p]));
  retired_stores_.push_back(std::move(stores_[p]));
  stores_[p] = std::make_unique<storage::ReplicaStore>();
  locks_[p] = std::make_unique<cc::LockManager>(
      runtime_.executor(), runtime_.clock(), &metrics_);
  for (ObjectId obj : placement_.LocalObjects(p)) {
    auto it = config_.initial_values.find(obj);
    const Value& init = it != config_.initial_values.end()
                            ? it->second
                            : config_.initial_value;
    stores_[p]->CreateCopy(obj, init, kEpochDate);
  }
  // Loads the persisted images over the fresh initial values.
  stores_[p]->AttachStable(stable);
  nodes_[p] = MakeNode(p);
  nodes_[p]->Start();
  VP_LOG(kInfo, scheduler_.Now())
      << "p" << p << " rebooted from stable storage (incarnation "
      << stable->incarnation() << ")";
}

void Cluster::Revive(ProcessorId p) {
  graph_.SetAlive(p, true);
  if (reboot_pending_[p]) {
    reboot_pending_[p] = false;
    Reboot(p);
  }
}

core::VpNode& Cluster::vp_node(ProcessorId p) {
  VP_CHECK(config_.protocol == Protocol::kVirtualPartition);
  return static_cast<core::VpNode&>(*nodes_[p]);
}

protocols::NaiveViewNode& Cluster::naive_node(ProcessorId p) {
  VP_CHECK(config_.protocol == Protocol::kNaiveView);
  return static_cast<protocols::NaiveViewNode&>(*nodes_[p]);
}

void Cluster::ProposeReconfig(ProcessorId p, std::vector<ReconfigOp> ops) {
  VP_CHECK(config_.protocol == Protocol::kVirtualPartition);
  vp_node(p).ProposeReconfig(std::move(ops));
}

history::InitialDb Cluster::initial_db() const {
  history::InitialDb db;
  for (ObjectId obj = 0; obj < placement_.object_count(); ++obj) {
    auto it = config_.initial_values.find(obj);
    db[obj] = it != config_.initial_values.end() ? it->second
                                                 : config_.initial_value;
  }
  return db;
}

history::CertifyResult Cluster::Certify() const {
  const std::vector<history::TxnHistory> committed = recorder_.Committed();
  const history::InitialDb initial = initial_db();
  history::CertifyResult r = history::CertifyOneCopySR(committed, initial);
  if (r.ok) return r;
  // The commit-time replay keys can misjudge anti-dependencies (ties,
  // outcome-application lag); the conflict-graph order is the witness
  // strict 2PL actually enforces. Any passing replay is a sound 1SR proof.
  history::CertifyResult conflict_order = history::CertifyOneCopySRConflictOrder(
      recorder_.physical_ops(), committed, initial);
  if (conflict_order.ok) return conflict_order;
  return r;
}

history::CertifyResult Cluster::CertifyAnyOrder(size_t max_txns) const {
  return history::CertifyOneCopySRAnyOrder(recorder_.Committed(), initial_db(),
                                           max_txns);
}

history::CertifyResult Cluster::CertifyConflicts() const {
  return history::CheckConflictSerializable(recorder_.physical_ops(),
                                            recorder_.Committed());
}

history::CertifyResult Cluster::CertifyDurableReads() const {
  return history::CheckNoLostCommittedWrites(recorder_.Committed(),
                                             initial_db());
}

bool Cluster::VpConverged() const {
  if (config_.protocol != Protocol::kVirtualPartition) return false;
  for (ProcessorId a = 0; a < config_.n_processors; ++a) {
    if (!graph_.Alive(a)) continue;
    const auto& na = static_cast<const core::VpNode&>(*nodes_[a]);
    if (!na.assigned()) return false;
    for (ProcessorId b = a + 1; b < config_.n_processors; ++b) {
      if (!graph_.Alive(b) || !graph_.CanCommunicate(a, b)) continue;
      const auto& nb = static_cast<const core::VpNode&>(*nodes_[b]);
      if (!nb.assigned() || !(na.cur_id() == nb.cur_id())) return false;
    }
  }
  return true;
}

}  // namespace vp::harness
