// Campaign driver: a seed range of randomized fault storms against one
// protocol, with invariant checking per run and optional automatic
// shrinking of every failure to a minimal replayable plan.
#ifndef VPART_NEMESIS_CAMPAIGN_H_
#define VPART_NEMESIS_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "nemesis/nemesis.h"
#include "nemesis/shrink.h"

namespace vp::nemesis {

struct CampaignConfig {
  harness::Protocol protocol = harness::Protocol::kVirtualPartition;
  uint64_t first_seed = 1;
  uint32_t n_seeds = 100;
  GeneratorConfig generator;
  /// Shrink every failing plan to a minimal reproduction.
  bool shrink_failures = true;
  ShrinkConfig shrink;
  /// Stop shrinking (but keep scanning and recording) after this many
  /// failures; shrinking costs up to `shrink.budget` extra runs each.
  uint32_t max_shrinks = 3;
};

/// One violating seed, with its minimized reproduction.
struct CampaignFailure {
  uint64_t seed = 0;
  FaultPlan plan;     // As generated.
  FaultPlan shrunk;   // Minimal failing plan (== plan if shrinking is off).
  RunOutcome outcome; // Of the shrunk plan.
  bool was_shrunk = false;
};

struct CampaignResult {
  uint32_t runs = 0;
  uint32_t passed = 0;
  uint32_t violations = 0;
  /// Runs in which no transaction committed (reported, not a violation).
  uint32_t no_progress = 0;

  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;

  /// Reliable-channel accounting summed over all runs (zeros unless the
  /// generator stamps plans with reliable delivery).
  uint64_t retransmits = 0;
  uint64_t delivery_timeouts = 0;
  uint64_t dups_suppressed = 0;

  /// Every registry counter summed over all runs (name → total). The
  /// per-run snapshots come from RunOutcome::metrics; FormatCampaign
  /// prints this as the campaign's metrics block, and its stable-storage
  /// block from the wal.* and storage.* entries.
  std::map<std::string, uint64_t> metrics;

  /// Summed value of one registry counter, 0 if no run registered it.
  uint64_t Total(const std::string& name) const;

  /// Fault-mix coverage: kind name → number of plans containing it, plus
  /// pseudo-kinds "dup_prob"/"reorder_prob"/"drop_prob"/"slow_prob" for
  /// plans with the knob enabled.
  std::map<std::string, uint32_t> fault_mix;

  std::vector<CampaignFailure> failures;
};

/// Called after every run (progress reporting).
using CampaignProgressFn =
    std::function<void(uint64_t seed, const RunOutcome& outcome)>;

CampaignResult RunCampaign(const CampaignConfig& config,
                           const CampaignProgressFn& progress = nullptr);

/// Pass/fail table plus the fault-mix coverage table.
std::string FormatCampaign(const CampaignConfig& config,
                           const CampaignResult& result);

}  // namespace vp::nemesis

#endif  // VPART_NEMESIS_CAMPAIGN_H_
