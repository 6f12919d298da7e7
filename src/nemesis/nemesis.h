// Nemesis fault plans: serializable adversarial scenarios and their
// deterministic execution.
//
// A FaultPlan captures everything a run depends on — cluster shape, network
// fault knobs (drops, slowness, duplication, reordering), workload mix, and
// a timed schedule of fault actions (crashes, partitions, symmetric and
// asymmetric link cuts, crash/recovery churn bursts). Because the whole
// stack is a pure function of the plan, one plan ⇒ one execution trace,
// byte for byte; that determinism is what makes campaign-scale search and
// automatic scenario shrinking (shrink.h) possible.
//
// RunPlan executes a plan and, after quiescence + heal, checks the paper's
// whole contract: S1–S3 safety probes, Theorem 1′ one-copy serializability,
// CP-serializability of the physical history (A1), view convergence within
// Δ = π + 8δ of the final heal (L1), and a no-lost-committed-write check.
#ifndef VPART_NEMESIS_NEMESIS_H_
#define VPART_NEMESIS_NEMESIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness/cluster.h"
#include "net/failure_injector.h"
#include "obs/metrics.h"
#include "sim/time.h"
#include "storage/stable_store.h"

namespace vp::nemesis {

/// A serializable adversarial scenario. Action times are relative to the
/// start of the storm (the runner converges views first, then starts the
/// clock). Only serializable action kinds are allowed (no kCustom).
struct FaultPlan {
  /// Which protocol the plan targets (recorded so a .plan file replays
  /// without extra flags).
  harness::Protocol protocol = harness::Protocol::kVirtualPartition;

  // Cluster shape.
  uint32_t n_processors = 5;
  ObjectId n_objects = 6;

  /// Seed for everything else: network delays, client op mix, protocol
  /// stagger. The same seed with the same plan reproduces the same trace.
  uint64_t seed = 1;

  /// Clients issue transactions and scripted faults fire within
  /// [0, storm); afterwards the runner stops clients, heals, and checks.
  sim::Duration storm = sim::Seconds(3);

  // Network fault knobs, active during the storm (zeroed at heal time so
  // the L1 convergence bound applies).
  double drop_prob = 0.0;
  double slow_prob = 0.0;
  double dup_prob = 0.0;
  double reorder_prob = 0.0;

  // Workload mix.
  double read_fraction = 0.6;
  uint32_t ops_per_txn = 3;
  bool rmw = true;

  /// Crash fault model. kRetainMemory keeps the legacy semantics (volatile
  /// state survives a crash); kWal makes kCrashAmnesia faults wipe volatile
  /// state and reboot the node from its write-ahead stable storage; kNoWal
  /// is the deliberately broken strawman (amnesia without a WAL) used as a
  /// negative control — campaigns must catch it losing committed writes.
  storage::DurabilityMode durability = storage::DurabilityMode::kRetainMemory;

  /// Integrity model of the stable devices. kChecksum (default) salvages
  /// torn WAL tails and quarantines rotted records/images on reboot;
  /// kNoChecksum is the negative control that serves rotted bytes verbatim
  /// — corruption campaigns must catch it violating durability or 1SR.
  /// Serialized only when non-default, so legacy plan files stay
  /// byte-identical.
  storage::IntegrityMode integrity = storage::IntegrityMode::kChecksum;

  /// When true the cluster runs every physical operation through the
  /// reliable-delivery channel (ack/retransmit/backoff, net/
  /// reliable_channel.h) with its default knobs. Off by default so legacy
  /// plans and their traces are untouched.
  bool reliable = false;

  /// Epoch gating for online reconfiguration (VpConfig::epoch_gating).
  /// Default on; setting it false runs kReconfig actions through the
  /// deliberately broken ungated path (reconfigurations commit without the
  /// authoritativeness check, active transactions are not drained, and
  /// stale-epoch messages are accepted) — the negative control campaigns
  /// must catch violating 1SR. Serialized only when false, so legacy plan
  /// files stay byte-identical.
  bool epoch_gating = true;

  /// How the VP protocol initializes copies at a join (VpConfig::recovery).
  /// Serialized only when non-default, so legacy plan files stay
  /// byte-identical.
  core::RecoveryMode recovery = core::RecoveryMode::kPreviousSkip;

  /// One weighted physical copy. An empty `placement` means full
  /// replication with unit weights.
  struct CopySpec {
    ObjectId obj = kInvalidObject;
    ProcessorId proc = kInvalidProcessor;
    Weight weight = 1;
  };
  /// Optional quorum-style weighted placement (e.g. the paper's a²b
  /// configurations where one copy carries a double vote).
  std::vector<CopySpec> placement;

  /// Timed fault schedule, sorted by `at`.
  std::vector<net::FaultAction> actions;

  /// Round-trippable text form (the `.plan` file format).
  std::string ToText() const;
  static Result<FaultPlan> FromText(const std::string& text);

  Status SaveFile(const std::string& path) const;
  static Result<FaultPlan> LoadFile(const std::string& path);
};

/// Tunables for random plan generation.
struct GeneratorConfig {
  uint32_t min_processors = 4;
  uint32_t max_processors = 7;
  sim::Duration min_storm = sim::Seconds(2);
  sim::Duration max_storm = sim::Seconds(4);
  /// Fault events per plan (each event is an action plus its undo).
  uint32_t min_events = 3;
  uint32_t max_events = 9;
  /// Mix crash-amnesia faults into plans (plans then run with
  /// `amnesia_durability` so crashes wipe volatile state and reboots replay
  /// the WAL). Off by default so legacy campaigns keep their seed
  /// determinism.
  bool enable_amnesia = false;
  /// Durability mode stamped onto plans when enable_amnesia is set. kWal is
  /// the real protocol; kNoWal runs the identical storms against the broken
  /// strawman, which campaigns must catch losing committed writes.
  storage::DurabilityMode amnesia_durability = storage::DurabilityMode::kWal;
  /// Give half the plans a randomized weighted copy placement (3..n holders
  /// per object, sometimes with one double-weight copy — quorum-style a²b
  /// configurations) instead of uniform full replication.
  bool weighted_placements = false;
  /// Draw the background network-fault knobs from harsher menus (every plan
  /// drops, duplicates, and reorders messages). Swapping the lookup tables
  /// keeps the draw sequence intact, so a seed's plan keeps its shape and
  /// only the knob values change.
  bool harsh = false;
  /// Stamp plans with reliable = true (no rng draw, so seeds keep their
  /// plans byte-identical apart from the stamped flag).
  bool reliable = false;
  /// Mix online-reconfiguration events (kReconfig actions: add/remove copy,
  /// re-weight) into plans. Off by default; all its extra rng draws are
  /// gated on the flag so legacy seeds keep their plans byte-identical.
  bool enable_reconfig = false;
  /// Epoch gating stamped onto plans when enable_reconfig is set (no rng
  /// draw). False = the ungated negative control.
  bool epoch_gating = true;
  /// Mix storage-corruption events into plans: at-rest bit rot / torn
  /// writes against WAL prepare records and copy images (each paired with
  /// an amnesia crash + recover of the same processor, since corruption
  /// only manifests when the device is next loaded), plus a chance that an
  /// amnesia crash tears its in-flight WAL persist. Off by default; all
  /// its extra rng draws are gated on the flag so legacy seeds keep their
  /// plans byte-identical. Forces kWal durability onto plans when set.
  bool enable_corruption = false;
  /// Integrity mode stamped onto plans when enable_corruption is set (no
  /// rng draw). kNoChecksum = the rot-serving negative control.
  storage::IntegrityMode integrity = storage::IntegrityMode::kChecksum;
  /// Recovery mode stamped onto plans (no rng draw).
  core::RecoveryMode recovery = core::RecoveryMode::kPreviousSkip;
};

/// Generates a randomized fault-storm plan. Pure function of (seed, cfg).
FaultPlan GeneratePlan(uint64_t seed, const GeneratorConfig& cfg = {});

/// Everything a single nemesis run observed and checked.
struct RunOutcome {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  /// At least one transaction committed (a plan that smothers all progress
  /// is reported but is not a violation).
  bool progress = false;

  // Invariant checks (true = passed).
  bool one_copy_sr = true;    // Theorem 1′ certification.
  bool conflict_sr = true;    // A1: CP-serializability of physical ops.
  bool durable_reads = true;  // No lost committed writes.
  bool safety_ok = true;      // S1–S3 online probes.
  bool converged = true;      // L1: common view within Δ of final heal
                              // (VP protocol only; vacuous otherwise).
  bool state_durable = true;  // Post-heal physical copies hold the last
                              // committed write (VP protocol, checked only
                              // when certification passed and views
                              // converged; vacuous otherwise).

  /// Fault-mix accounting from the network layer.
  uint64_t duplicated = 0;
  uint64_t reordered = 0;

  /// Reliable-channel accounting, sourced from `metrics` (all zeros when
  /// the plan ran without the reliable-delivery layer). Kept as plain
  /// fields because the shrinker and campaign tables key on them.
  uint64_t retransmits = 0;
  uint64_t delivery_timeouts = 0;
  uint64_t dups_suppressed = 0;

  /// Online-reconfiguration accounting (zeros for plans without kReconfig
  /// actions): committed epoch advances and the cluster's final epoch.
  uint64_t reconfigs_committed = 0;
  EpochId final_epoch = 0;

  /// Full metrics snapshot of the run's cluster registry (counters, gauge
  /// maxima, histogram percentiles). Serial-mode registry: two runs of the
  /// same plan produce byte-identical `metrics.Format()` output.
  obs::MetricsSnapshot metrics;

  /// Stable-device accounting (all zeros under kRetainMemory).
  storage::StableStats stable;

  /// First failed check with its witness; empty when all checks passed.
  std::string failure;

  /// Flight-recorder dump (`.fdr` JSON lines, obs/flight_recorder.h):
  /// captured whenever the run violated an invariant or a device salvage
  /// quarantined state, so every failure ships with the last-N protocol
  /// events of every node. Empty on clean runs (dumps are not free and
  /// campaigns run thousands of them).
  std::string fdr;

  /// Online invariant probes (obs/probes.h): whether a probe flagged a
  /// violation live, and the first-bad-event report ("rule: detail").
  /// The probes see the violation at the moment it is recorded — at or
  /// before the post-hoc checkers, whose witnesses only exist after the
  /// run drains.
  bool probe_flagged = false;
  std::string probe_first;

  /// Canonical rendering of the committed/aborted transactions and view
  /// events. The determinism contract: equal plans ⇒ equal traces.
  std::string trace;

  bool violation() const { return !failure.empty(); }
};

/// Per-run observability knobs (orthogonal to the plan, so they are not
/// part of the serialized .plan format or the determinism contract).
struct RunOptions {
  /// Record causal trace spans during the run (enabled implicitly when
  /// trace_out is set).
  bool tracing = false;
  /// If nonempty, write the run's Chrome trace_event JSON here.
  std::string trace_out;
  /// If nonempty, write the flight-recorder dump here unconditionally
  /// (violating runs also carry the dump in RunOutcome::fdr).
  std::string fdr_out;
};

/// Deterministically executes `plan` under `plan.protocol`.
RunOutcome RunPlan(const FaultPlan& plan);
RunOutcome RunPlan(const FaultPlan& plan, const RunOptions& opts);

}  // namespace vp::nemesis

#endif  // VPART_NEMESIS_NEMESIS_H_
