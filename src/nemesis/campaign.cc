#include "nemesis/campaign.h"

#include <set>
#include <sstream>
#include <utility>

namespace vp::nemesis {

namespace {

/// Which fault kinds / knobs a plan exercises (for the coverage table).
std::set<std::string> PlanCoverage(const FaultPlan& plan) {
  std::set<std::string> kinds;
  for (const net::FaultAction& a : plan.actions) {
    kinds.insert(net::FaultKindName(a.kind));
  }
  if (plan.drop_prob > 0) kinds.insert("drop_prob");
  if (plan.slow_prob > 0) kinds.insert("slow_prob");
  if (plan.dup_prob > 0) kinds.insert("dup_prob");
  if (plan.reorder_prob > 0) kinds.insert("reorder_prob");
  // Pseudo-kinds for the fault model and copy geometry.
  if (plan.durability == storage::DurabilityMode::kWal) {
    kinds.insert("wal_durability");
  } else if (plan.durability == storage::DurabilityMode::kNoWal) {
    kinds.insert("nowal_strawman");
  }
  if (!plan.placement.empty()) kinds.insert("weighted_placement");
  if (plan.reliable) kinds.insert("reliable_delivery");
  // "reconfig" itself lands in `kinds` via FaultKindName above; the gating
  // pseudo-kind tells negative-control campaigns apart in the table.
  if (!plan.epoch_gating) kinds.insert("gating_disabled");
  // "bit_rot"/"torn_write"/"crash_torn" land via FaultKindName; the
  // integrity pseudo-kind tells the rot-serving control apart.
  if (plan.integrity == storage::IntegrityMode::kNoChecksum) {
    kinds.insert("nochecksum_control");
  }
  return kinds;
}

}  // namespace

uint64_t CampaignResult::Total(const std::string& name) const {
  const auto it = metrics.find(name);
  return it == metrics.end() ? 0 : it->second;
}

CampaignResult RunCampaign(const CampaignConfig& config,
                           const CampaignProgressFn& progress) {
  CampaignResult result;
  for (uint32_t i = 0; i < config.n_seeds; ++i) {
    const uint64_t seed = config.first_seed + i;
    FaultPlan plan = GeneratePlan(seed, config.generator);
    plan.protocol = config.protocol;

    RunOutcome outcome = RunPlan(plan);
    ++result.runs;
    result.committed += outcome.committed;
    result.aborted += outcome.aborted;
    result.duplicated += outcome.duplicated;
    result.reordered += outcome.reordered;
    result.retransmits += outcome.retransmits;
    result.delivery_timeouts += outcome.delivery_timeouts;
    result.dups_suppressed += outcome.dups_suppressed;
    for (const auto& [name, value] : outcome.metrics.counters) {
      result.metrics[name] += value;
    }
    for (const std::string& kind : PlanCoverage(plan)) {
      ++result.fault_mix[kind];
    }
    if (!outcome.progress) ++result.no_progress;

    if (outcome.violation()) {
      ++result.violations;
      CampaignFailure failure;
      failure.seed = seed;
      failure.plan = plan;
      failure.shrunk = plan;
      failure.outcome = outcome;
      if (config.shrink_failures &&
          result.failures.size() <
              static_cast<size_t>(config.max_shrinks)) {
        ShrinkResult shrunk = ShrinkPlan(plan, config.shrink);
        if (shrunk.input_failed) {
          failure.shrunk = std::move(shrunk.plan);
          failure.outcome = std::move(shrunk.outcome);
          failure.was_shrunk = true;
        }
      }
      result.failures.push_back(std::move(failure));
    } else {
      ++result.passed;
    }
    if (progress) progress(seed, outcome);
  }
  return result;
}

std::string FormatCampaign(const CampaignConfig& config,
                           const CampaignResult& result) {
  std::ostringstream out;
  out << "nemesis campaign: protocol=" << harness::ProtocolName(config.protocol)
      << " seeds=[" << config.first_seed << ", "
      << config.first_seed + config.n_seeds - 1 << "]\n";
  out << "  runs        " << result.runs << "\n";
  out << "  passed      " << result.passed << "\n";
  out << "  violations  " << result.violations << "\n";
  out << "  no-progress " << result.no_progress << "\n";
  out << "  committed   " << result.committed << "\n";
  out << "  aborted     " << result.aborted << "\n";
  out << "  dup msgs    " << result.duplicated << "\n";
  out << "  reordered   " << result.reordered << "\n";
  if (result.retransmits > 0 || result.delivery_timeouts > 0 ||
      result.dups_suppressed > 0) {
    out << "reliable delivery (summed over runs):\n";
    out << "  retransmits " << result.retransmits << "\n";
    out << "  deadline timeouts " << result.delivery_timeouts << "\n";
    out << "  dups suppressed   " << result.dups_suppressed << "\n";
  }
  const uint64_t fsyncs = result.Total("wal.fsyncs");
  const uint64_t reboots = result.Total("storage.reboots");
  if (fsyncs > 0 || reboots > 0) {
    out << "stable storage (summed over runs):\n";
    out << "  fsyncs      " << fsyncs << "\n";
    out << "  wal appends " << result.Total("wal.appends") << "\n";
    out << "  wal bytes   " << result.Total("wal.bytes") << "\n";
    out << "  copy bytes  " << result.Total("storage.copy_persist_bytes")
        << "\n";
    out << "  replayed    " << result.Total("wal.replay_records") << "\n";
    out << "  reboots     " << reboots << "\n";
    const uint64_t torn = result.Total("wal.torn_truncated");
    const uint64_t quarantined = result.Total("storage.quarantined");
    const uint64_t repairs = result.Total("storage.scrub_repairs");
    if (torn > 0 || quarantined > 0 || repairs > 0) {
      out << "  torn trunc  " << torn << "\n";
      out << "  quarantined " << quarantined << "\n";
      out << "  scrub reps  " << repairs << "\n";
    }
  }
  if (!result.metrics.empty()) {
    out << "metrics (counters summed over runs):\n";
    for (const auto& [name, value] : result.metrics) {
      if (value == 0) continue;
      out << "  " << name;
      for (size_t pad = name.size(); pad < 32; ++pad) out << ' ';
      out << value << "\n";
    }
  }
  out << "fault-mix coverage (plans containing each fault kind):\n";
  for (const auto& [kind, count] : result.fault_mix) {
    out << "  " << kind;
    for (size_t pad = kind.size(); pad < 18; ++pad) out << ' ';
    out << count << "\n";
  }
  for (const CampaignFailure& f : result.failures) {
    out << "violation @ seed " << f.seed << ": " << f.outcome.failure << "\n";
    out << "  actions " << f.plan.actions.size();
    if (f.was_shrunk) {
      out << " -> " << f.shrunk.actions.size() << " (shrunk), processors "
          << f.plan.n_processors << " -> " << f.shrunk.n_processors;
    } else {
      out << " (not shrunk)";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace vp::nemesis
