// Nemesis campaign CLI: adversarial fault storms against one protocol.
//
//   nemesis_campaign --seeds=1000                      # VP, seeds 1..1000
//   nemesis_campaign --protocol=naive-view --seeds=200 # find its anomalies
//   nemesis_campaign --replay=failure.plan             # re-run a saved plan
//   nemesis_campaign --dump-seed=7                     # print a plan file
//   nemesis_campaign --amnesia --seeds=500             # crash-amnesia storms
//   nemesis_campaign --amnesia --durability=nowal ...  # no-WAL negative ctl
//   nemesis_campaign --weighted-placements ...         # a²b copy geometries
//   nemesis_campaign --protocol=quorum --harsh ...     # harsher knob menus
//   nemesis_campaign --reliable ...                    # ack/retry delivery
//   nemesis_campaign --recovery=log-catchup ...        # §6 R5 variant
//   nemesis_campaign --reconfig --seeds=500            # reconfig storms
//   nemesis_campaign --reconfig --no-epoch-gating ...  # ungated negative ctl
//   nemesis_campaign --corruption --seeds=500          # bit rot / torn writes
//   nemesis_campaign --corruption --integrity=nochecksum  # rot-serving ctl
//   nemesis_campaign --first-seed=7 --trace-out=t.json # trace one run
//   nemesis_campaign --replay=f.plan --trace-out=t.json
//   nemesis_campaign --replay=f.plan --fdr-out=f.fdr   # flight-recorder dump
//   nemesis_campaign --check-fdr=f.fdr                 # validate a dump
//
// --trace-out runs a single plan (the replayed plan, or the plan generated
// from --first-seed) with causal tracing enabled and writes the run's
// Chrome trace_event JSON for Perfetto. --fdr-out writes the run's
// flight-recorder dump (JSON lines, obs/flight_recorder.h) the same way.
// --check-fdr parses a dump and reports its shape; non-zero exit on a
// malformed or empty file (CI uses this to validate emitted artifacts).
//
// Campaign mode prints a pass/fail table plus fault-mix coverage; every
// violation is shrunk to a minimal plan and saved as a replayable
// nemesis_<protocol>_<seed>.plan file, alongside a .fdr dump holding each
// node's last protocol events from the shrunk violating run. Exit code is
// non-zero when any violation was observed (campaign) or reproduced
// (replay).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "nemesis/campaign.h"
#include "nemesis/nemesis.h"
#include "nemesis/shrink.h"
#include "obs/flight_recorder.h"

namespace {

using vp::nemesis::CampaignConfig;
using vp::nemesis::CampaignResult;
using vp::nemesis::FaultPlan;
using vp::nemesis::RunOutcome;

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

void PrintOutcome(const RunOutcome& outcome) {
  std::printf("  committed   %llu\n",
              static_cast<unsigned long long>(outcome.committed));
  std::printf("  aborted     %llu\n",
              static_cast<unsigned long long>(outcome.aborted));
  std::printf("  dup msgs    %llu\n",
              static_cast<unsigned long long>(outcome.duplicated));
  std::printf("  reordered   %llu\n",
              static_cast<unsigned long long>(outcome.reordered));
  if (outcome.retransmits > 0 || outcome.delivery_timeouts > 0 ||
      outcome.dups_suppressed > 0) {
    std::printf("  retransmits   %llu\n",
                static_cast<unsigned long long>(outcome.retransmits));
    std::printf("  dlvry timeout %llu\n",
                static_cast<unsigned long long>(outcome.delivery_timeouts));
    std::printf("  dups supprsd  %llu\n",
                static_cast<unsigned long long>(outcome.dups_suppressed));
  }
  std::printf("  one-copy-sr   %s\n", outcome.one_copy_sr ? "ok" : "VIOLATED");
  std::printf("  conflict-sr   %s\n", outcome.conflict_sr ? "ok" : "VIOLATED");
  std::printf("  durable-reads %s\n",
              outcome.durable_reads ? "ok" : "VIOLATED");
  std::printf("  safety S1-S3  %s\n", outcome.safety_ok ? "ok" : "VIOLATED");
  std::printf("  state-durable %s\n",
              outcome.state_durable ? "ok" : "VIOLATED");
  std::printf("  convergence   %s\n", outcome.converged ? "ok" : "VIOLATED");
  if (outcome.reconfigs_committed > 0 || outcome.final_epoch > 0) {
    std::printf("  reconfigs     %llu (final epoch %u)\n",
                static_cast<unsigned long long>(outcome.reconfigs_committed),
                outcome.final_epoch);
  }
  if (outcome.stable.fsyncs > 0 || outcome.stable.reboots > 0) {
    std::printf("  fsyncs        %llu\n",
                static_cast<unsigned long long>(outcome.stable.fsyncs));
    std::printf("  wal bytes     %llu\n",
                static_cast<unsigned long long>(outcome.stable.wal_bytes));
    std::printf("  copy bytes    %llu\n",
                static_cast<unsigned long long>(
                    outcome.stable.copy_persist_bytes));
    std::printf("  wal replayed  %llu\n",
                static_cast<unsigned long long>(
                    outcome.stable.wal_replay_records));
    std::printf("  reboots       %llu\n",
                static_cast<unsigned long long>(outcome.stable.reboots));
    if (outcome.stable.torn_truncated > 0 || outcome.stable.quarantined > 0 ||
        outcome.stable.scrub_repairs > 0) {
      std::printf("  torn trunc    %llu\n",
                  static_cast<unsigned long long>(
                      outcome.stable.torn_truncated));
      std::printf("  quarantined   %llu\n",
                  static_cast<unsigned long long>(outcome.stable.quarantined));
      std::printf("  scrub repairs %llu\n",
                  static_cast<unsigned long long>(
                      outcome.stable.scrub_repairs));
    }
  }
  if (outcome.violation()) {
    std::printf("  witness: %s\n", outcome.failure.c_str());
  }
  if (outcome.probe_flagged) {
    std::printf("  probe first-bad-event: %s\n", outcome.probe_first.c_str());
  }
  std::printf("metrics:\n%s", outcome.metrics.Format().c_str());
}

int Replay(const std::string& path, const vp::nemesis::RunOptions& opts) {
  vp::Result<FaultPlan> plan = FaultPlan::LoadFile(path);
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
    return 2;
  }
  std::printf("replaying %s (protocol=%s, %zu actions, seed=%llu)\n",
              path.c_str(),
              vp::harness::ProtocolName(plan.value().protocol).c_str(),
              plan.value().actions.size(),
              static_cast<unsigned long long>(plan.value().seed));
  RunOutcome outcome = vp::nemesis::RunPlan(plan.value(), opts);
  PrintOutcome(outcome);
  if (!opts.trace_out.empty()) {
    std::printf("wrote trace to %s\n", opts.trace_out.c_str());
  }
  if (!opts.fdr_out.empty()) {
    std::printf("wrote flight recorder to %s\n", opts.fdr_out.c_str());
  }
  return outcome.violation() ? 1 : 0;
}

// Parses an .fdr dump, prints its shape, exit 0 iff well-formed and
// non-empty. CI's forced-violation smoke validates its artifacts with this.
int CheckFdr(const std::string& path) {
  vp::Result<vp::obs::FlightRecorder::Parsed> parsed =
      vp::obs::FlightRecorder::ParseFile(path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return 2;
  }
  const vp::obs::FlightRecorder::Parsed& p = parsed.value();
  std::printf("%s: %u nodes (ring capacity %zu), %zu events from %zu nodes\n",
              path.c_str(), p.n_nodes, p.capacity, p.events.size(),
              p.nodes.size());
  if (p.events.empty()) {
    std::fprintf(stderr, "error: %s holds no events\n", path.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignConfig config;
  std::string replay_path;
  std::string out_dir = ".";
  std::string trace_out;
  std::string fdr_out;
  std::string check_fdr;
  uint64_t dump_seed = 0;
  bool have_dump_seed = false;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--seeds", &value)) {
      config.n_seeds = static_cast<uint32_t>(std::strtoul(value.c_str(),
                                                          nullptr, 10));
    } else if (ParseFlag(argv[i], "--first-seed", &value)) {
      config.first_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--protocol", &value)) {
      if (!vp::harness::ProtocolFromName(value, &config.protocol)) {
        std::fprintf(stderr, "error: unknown protocol '%s'\n", value.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--amnesia") == 0) {
      config.generator.enable_amnesia = true;
    } else if (std::strcmp(argv[i], "--weighted-placements") == 0) {
      config.generator.weighted_placements = true;
    } else if (std::strcmp(argv[i], "--harsh") == 0) {
      config.generator.harsh = true;
    } else if (std::strcmp(argv[i], "--reliable") == 0) {
      config.generator.reliable = true;
    } else if (std::strcmp(argv[i], "--reconfig") == 0) {
      config.generator.enable_reconfig = true;
    } else if (std::strcmp(argv[i], "--no-epoch-gating") == 0) {
      // Negative control: reconfig storms with the epoch gate off. Implies
      // --reconfig (an ungated campaign without reconfig events is just the
      // baseline campaign).
      config.generator.enable_reconfig = true;
      config.generator.epoch_gating = false;
    } else if (std::strcmp(argv[i], "--corruption") == 0) {
      config.generator.enable_corruption = true;
    } else if (ParseFlag(argv[i], "--integrity", &value)) {
      // Negative control: serve rotted bytes verbatim. Implies --corruption
      // (an integrity mode without corruption events changes nothing).
      bool found = false;
      for (vp::storage::IntegrityMode m :
           {vp::storage::IntegrityMode::kChecksum,
            vp::storage::IntegrityMode::kNoChecksum}) {
        if (vp::storage::IntegrityModeName(m) == value) {
          config.generator.integrity = m;
          config.generator.enable_corruption = true;
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "error: unknown integrity '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "--durability", &value)) {
      bool found = false;
      for (vp::storage::DurabilityMode m :
           {vp::storage::DurabilityMode::kRetainMemory,
            vp::storage::DurabilityMode::kWal,
            vp::storage::DurabilityMode::kNoWal}) {
        if (vp::storage::DurabilityModeName(m) == value) {
          config.generator.amnesia_durability = m;
          // Any explicit durability request implies amnesia storms (retain
          // turns them back off).
          config.generator.enable_amnesia =
              m != vp::storage::DurabilityMode::kRetainMemory;
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "error: unknown durability '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "--recovery", &value)) {
      if (!vp::core::RecoveryModeFromName(value,
                                          &config.generator.recovery)) {
        std::fprintf(stderr, "error: unknown recovery mode '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      config.shrink_failures = false;
    } else if (ParseFlag(argv[i], "--max-shrinks", &value)) {
      config.max_shrinks = static_cast<uint32_t>(std::strtoul(value.c_str(),
                                                              nullptr, 10));
    } else if (ParseFlag(argv[i], "--shrink-budget", &value)) {
      config.shrink.budget = static_cast<uint32_t>(std::strtoul(value.c_str(),
                                                                nullptr, 10));
    } else if (ParseFlag(argv[i], "--out-dir", &value)) {
      out_dir = value;
    } else if (ParseFlag(argv[i], "--replay", &value)) {
      replay_path = value;
    } else if (ParseFlag(argv[i], "--dump-seed", &value)) {
      dump_seed = std::strtoull(value.c_str(), nullptr, 10);
      have_dump_seed = true;
    } else if (ParseFlag(argv[i], "--trace-out", &value)) {
      trace_out = value;
    } else if (ParseFlag(argv[i], "--fdr-out", &value)) {
      fdr_out = value;
    } else if (ParseFlag(argv[i], "--check-fdr", &value)) {
      check_fdr = value;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seeds=N] [--first-seed=K] [--protocol=NAME]\n"
                   "          [--amnesia] [--durability=retain|wal|nowal]\n"
                   "          [--weighted-placements] [--harsh] [--reliable]\n"
                   "          [--reconfig] [--no-epoch-gating]\n"
                   "          [--recovery=full-read|previous-skip|"
                   "log-catchup|date-poll]\n"
                   "          [--corruption] [--integrity=checksum|nochecksum]\n"
                   "          [--no-shrink] [--max-shrinks=N]\n"
                   "          [--shrink-budget=N] [--out-dir=DIR]\n"
                   "          [--replay=FILE] [--dump-seed=K]\n"
                   "          [--trace-out=FILE] [--fdr-out=FILE]\n"
                   "          [--check-fdr=FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  vp::nemesis::RunOptions run_opts;
  run_opts.trace_out = trace_out;
  run_opts.fdr_out = fdr_out;

  if (!check_fdr.empty()) return CheckFdr(check_fdr);
  if (!replay_path.empty()) return Replay(replay_path, run_opts);
  if (have_dump_seed) {
    FaultPlan plan = vp::nemesis::GeneratePlan(dump_seed, config.generator);
    plan.protocol = config.protocol;
    std::fputs(plan.ToText().c_str(), stdout);
    return 0;
  }
  if (!trace_out.empty() || !fdr_out.empty()) {
    // Single instrumented run of the plan generated from --first-seed.
    FaultPlan plan = vp::nemesis::GeneratePlan(config.first_seed,
                                               config.generator);
    plan.protocol = config.protocol;
    std::printf("single run of seed %llu (protocol=%s)\n",
                static_cast<unsigned long long>(config.first_seed),
                vp::harness::ProtocolName(config.protocol).c_str());
    RunOutcome outcome = vp::nemesis::RunPlan(plan, run_opts);
    PrintOutcome(outcome);
    if (!trace_out.empty()) {
      std::printf("wrote trace to %s\n", trace_out.c_str());
    }
    if (!fdr_out.empty()) {
      std::printf("wrote flight recorder to %s\n", fdr_out.c_str());
    }
    return outcome.violation() ? 1 : 0;
  }

  uint32_t done = 0;
  CampaignResult result = vp::nemesis::RunCampaign(
      config, [&](uint64_t seed, const RunOutcome& outcome) {
        ++done;
        if (outcome.violation()) {
          std::printf("seed %llu: VIOLATION (%s)\n",
                      static_cast<unsigned long long>(seed),
                      outcome.failure.c_str());
          std::fflush(stdout);
        } else if (done % 50 == 0) {
          std::printf("... %u/%u seeds done\n", done, config.n_seeds);
          std::fflush(stdout);
        }
      });

  std::fputs(vp::nemesis::FormatCampaign(config, result).c_str(), stdout);

  if (!result.failures.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
  }
  for (const vp::nemesis::CampaignFailure& failure : result.failures) {
    const std::string base =
        out_dir + "/nemesis_" + vp::harness::ProtocolName(config.protocol) +
        "_" + std::to_string(failure.seed);
    const std::string path = base + ".plan";
    const vp::Status s = failure.shrunk.SaveFile(path);
    if (s.ok()) {
      std::printf("saved %s plan to %s (replay with --replay=%s)\n",
                  failure.was_shrunk ? "shrunk" : "failing", path.c_str(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "error saving %s: %s\n", path.c_str(),
                   s.ToString().c_str());
    }
    // Sibling flight-recorder dump: the last protocol events of every node
    // in the (shrunk) violating run, for first-bad-event forensics without
    // a replay.
    if (!failure.outcome.fdr.empty()) {
      const std::string fdr_path = base + ".fdr";
      std::FILE* f = std::fopen(fdr_path.c_str(), "w");
      if (f != nullptr) {
        std::fwrite(failure.outcome.fdr.data(), 1,
                    failure.outcome.fdr.size(), f);
        std::fclose(f);
        std::printf("saved flight recorder to %s\n", fdr_path.c_str());
      } else {
        std::fprintf(stderr, "error saving %s\n", fdr_path.c_str());
      }
    }
  }
  return result.violations > 0 ? 1 : 0;
}
