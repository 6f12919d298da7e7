// Tunables of the virtual-partition protocol (paper §5-§6).
#ifndef VPART_CORE_VP_CONFIG_H_
#define VPART_CORE_VP_CONFIG_H_

#include <string_view>

#include "net/reliable_channel.h"
#include "sim/time.h"

namespace vp::core {

/// Reliable-delivery knobs (ack/retransmit/backoff/delivery-deadline) for
/// physical operations, shared by every protocol and wired into each node
/// through NodeEnv.reliable; see net/reliable_channel.h for the layer and
/// DESIGN.md §9 for the contract. Caution when enabling it for the VP
/// protocol: the paper's liveness bound Δ = π + 8δ is stated for a one-hop
/// delay bound δ, and retransmission stretches the effective per-message
/// latency to the channel's delivery deadline — so any Δ-derived window
/// must be restated with δ' = max(δ, delivery_deadline) to stay sound.
using ReliableConfig = net::ReliableConfig;

/// How Update-Copies-in-View brings accessible copies up to date (R5).
enum class RecoveryMode {
  /// §5 baseline: read every copy in the view, in its entirety, take the
  /// value with the maximum date.
  kFullRead,
  /// §6 optimization 1 (the default): when every member of the new view
  /// comes from the same previous partition (the common "split" case),
  /// skip initialization of every copy that is not dirty — a copy is dirty
  /// while its own initialization in an earlier view has not completed
  /// (DESIGN.md deviation 9). Any other view does the §5 full read; it
  /// does not narrow the read to the members with the maximal previous
  /// partition, since which copy is freshest is not locally known
  /// (DESIGN.md deviation 6).
  kPreviousSkip,
  /// §6 optimization 2 (implies optimization 1's targeting): fetch only the
  /// log of writes missed since the local copy's date instead of the full
  /// value.
  kLogCatchup,
  /// §6 "optimized search" variant: poll all copies for their DATES (tiny
  /// messages), then fetch the full value from the freshest copy only —
  /// and not at all when the local copy is already freshest. Includes the
  /// same-previous split skip.
  kDatePoll,
};

/// Command-line names of the modes: "full-read", "previous-skip",
/// "log-catchup", "date-poll".
inline const char* RecoveryModeName(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kFullRead:
      return "full-read";
    case RecoveryMode::kPreviousSkip:
      return "previous-skip";
    case RecoveryMode::kLogCatchup:
      return "log-catchup";
    case RecoveryMode::kDatePoll:
      return "date-poll";
  }
  return "?";
}

/// Inverse of RecoveryModeName; false for an unknown name.
inline bool RecoveryModeFromName(std::string_view name, RecoveryMode* out) {
  for (RecoveryMode m : {RecoveryMode::kFullRead, RecoveryMode::kPreviousSkip,
                         RecoveryMode::kLogCatchup, RecoveryMode::kDatePoll}) {
    if (name == RecoveryModeName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

struct VpConfig {
  /// δ: upper bound on one-hop message delay assumed by the protocol. The
  /// protocol's correctness never depends on the bound holding (violations
  /// are performance failures it tolerates); only its availability does.
  sim::Duration delta = sim::Millis(5);

  /// π: probe period (Fig. 7). The paper's liveness bound is Δ = π + 8δ.
  sim::Duration probe_period = sim::Millis(100);

  /// Fig. 7 as printed re-forms the partition on ANY probe discrepancy,
  /// which makes a single dropped probe/ack (an omission failure) churn
  /// the views. With probe_retries = k, unresponsive members are re-probed
  /// up to k extra times (2δ each) within the round before acting. 0
  /// reproduces the paper exactly; the default 1 suppresses false churn at
  /// the cost of ≤ 2δ extra detection latency.
  int probe_retries = 1;

  /// Lock-wait budget before a physical access gives up (deadlock breaker).
  sim::Duration lock_timeout = sim::Millis(100);

  /// Period for retrying undelivered transaction-outcome notifications and
  /// for in-doubt participants to query the coordinator.
  sim::Duration outcome_retry_period = sim::Millis(40);

  /// How copies are initialized when joining a partition (R5). kFullRead
  /// stays available as the §5 comparator.
  RecoveryMode recovery = RecoveryMode::kPreviousSkip;

  /// R2 allows a failed physical read to be retried at another copy before
  /// aborting; Fig. 10 as printed aborts immediately (the default).
  bool read_retry = false;

  /// §6 weakened R4: when true, a physical access whose vp-id differs from
  /// the serving processor's current vp is still accepted if the
  /// transaction's footprint is contained in the server's current view and
  /// the object is accessible there (conditions (1)-(2); condition (3)
  /// holds structurally because recovery reads respect write locks).
  bool weakened_r4 = false;

  /// When false (paper Fig. 5), the phase-2 commit of a new virtual
  /// partition is broadcast to every processor; when true, only to the
  /// acceptors in the new view (a pure message-count optimization).
  bool commit_to_acceptors_only = false;

  /// Epoch safety for online reconfiguration (DESIGN.md §12). When true
  /// (default): a reconfiguration only commits from a view holding a
  /// strict weighted majority of every object under the CURRENT epoch's
  /// placement (the authoritativeness gate), transactional physical
  /// accesses carrying a different epoch are rejected deterministically,
  /// and committing to a higher-epoch view aborts every transaction of the
  /// older epoch first (the drain rule). False disables all three — the
  /// nemesis negative control, which demonstrably loses updates when a
  /// minority partition shrinks a placement out from under the majority.
  bool epoch_gating = true;
};

}  // namespace vp::core

#endif  // VPART_CORE_VP_CONFIG_H_
