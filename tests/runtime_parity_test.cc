// Golden-trace parity for the runtime abstraction layer.
//
// The SimRuntime adapters must be invisible: a run through
// Clock/Executor/Transport has to produce byte-for-byte the trace the
// pre-refactor code produced straight against Scheduler/Network. The
// digests below were captured from the direct-wiring implementation; any
// change to scheduling order, rng-draw order, or message routing shows up
// here as a digest mismatch long before a protocol test would notice.
//
// Eight pinned configurations cover both nemesis seeds used elsewhere as
// anchors (3, 438) across protocols and the harsh/reliable generator, and
// a 25-seed smoke sweep covers the default VP generator.
//
// The 29 VP digests (4 pinned + the sweep) were re-captured when the VP
// default recovery became the §6 same-previous skip (kPreviousSkip): a view
// whose members all come from one previous partition no longer reads its
// non-dirty copies, so those recovery messages left the trace. Every
// re-captured run was violation-free.
//
// All 33 digests were re-captured when nodes began serving their own copies
// by direct call (NodeBase::SendPhys) instead of a 10 µs loopback hop
// through the network: every local physical operation, reply and 2PC
// outcome now completes in the tick that issued it, with no delivery or
// timer event, so every trace's timing moved — the quorum and
// majority-voting ones too, since their cheapest copy is the local one.
// Every re-captured run was violation-free.
//
// All 33 were re-captured again when 2PC outcome acks began riding on the
// next message to the coordinator (a batched standalone ack only after a
// quarter of the outcome retry period) instead of one message per ack, and
// when a VP logical op issued while its node is between views began
// waiting for the formation instead of failing: every trace sends fewer
// messages, so every later delay and drop draw moved. Read-only commits
// also stopped logging a decision record. The six harsh+reliable digests
// moved once more because outcome retries now bypass the reliable channel
// (only the first broadcast is retransmitted by it). Every re-captured run
// was violation-free.
//
// The six harsh+reliable digests moved again when the reliable channel's
// acks began riding in the header of the receiver's reply (a standalone
// ack only when nothing goes back within the dispatch, sent after the
// handler instead of before it), and the VP ones (all but smoke seed 14)
// when a logical op's no-response timer stopped forming a new view once
// the view it was issued in has been replaced, or no longer counts the
// silent holder. Every re-captured run was violation-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "nemesis/nemesis.h"

namespace vp {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t DigestFor(uint64_t seed, harness::Protocol proto, bool harsh,
                   bool reliable) {
  nemesis::GeneratorConfig gen;
  gen.harsh = harsh;
  gen.reliable = reliable;
  nemesis::FaultPlan plan = nemesis::GeneratePlan(seed, gen);
  plan.protocol = proto;
  nemesis::RunOutcome out = nemesis::RunPlan(plan);
  EXPECT_FALSE(out.violation()) << out.failure;
  return Fnv1a(out.trace);
}

struct Golden {
  uint64_t seed;
  harness::Protocol proto;
  bool harsh;
  bool reliable;
  uint64_t digest;
};

TEST(RuntimeParity, PinnedConfigurationsMatchGoldenDigests) {
  using harness::Protocol;
  const Golden kGolden[] = {
      {3, Protocol::kVirtualPartition, false, false, 0xe00eaab8e1d8a6ceULL},
      {3, Protocol::kVirtualPartition, true, true, 0x0c3efe083a05113fULL},
      {3, Protocol::kQuorum, true, true, 0x21ede95df13867d3ULL},
      {3, Protocol::kMajorityVoting, true, true, 0x21ede95df13867d3ULL},
      {438, Protocol::kVirtualPartition, false, false, 0x4ace29b8de548d26ULL},
      {438, Protocol::kVirtualPartition, true, true, 0x305c56130b5ca749ULL},
      {438, Protocol::kQuorum, true, true, 0x349cec3246bab2e2ULL},
      {438, Protocol::kMajorityVoting, true, true, 0x349cec3246bab2e2ULL},
  };
  for (const Golden& g : kGolden) {
    EXPECT_EQ(DigestFor(g.seed, g.proto, g.harsh, g.reliable), g.digest)
        << "trace drift at seed " << g.seed << " protocol "
        << harness::ProtocolName(g.proto) << " harsh=" << g.harsh
        << " reliable=" << g.reliable;
  }
}

TEST(RuntimeParity, SmokeSweepMatchesGoldenDigests) {
  const uint64_t kSmoke[25] = {
      0xc75e6d51663e4226ULL, 0x02d34aa2f9512fd0ULL, 0x43dfe0818428c825ULL,
      0xe00eaab8e1d8a6ceULL, 0xe77ec280b4d826ecULL, 0x062d5b10df4e0d76ULL,
      0x2a2a2b090fcce0f1ULL, 0x04974b9dd3cd255cULL, 0xc2f627aedc73970bULL,
      0xe6fc45431b2ecebcULL, 0x0d223ce900635804ULL, 0x2616781bf6d3e4cbULL,
      0xc2e1213ba59e5600ULL, 0xac15c93463f60a0eULL, 0x564fae9a7111b8e2ULL,
      0x0cf897364db1421dULL, 0x4c7f84132c60fe37ULL, 0xcdd9cac0dfbb2bd6ULL,
      0x4f1d6764f1c85018ULL, 0xce5ce8b1925eb4c2ULL, 0xf8e9d1f772d9f36aULL,
      0x7368d8fa9d644930ULL, 0x3c62036cdcf64ea6ULL, 0x75bf58cf54a3990fULL,
      0x7a71f71de81a75d8ULL,
  };
  for (uint64_t seed = 0; seed < 25; ++seed) {
    EXPECT_EQ(DigestFor(seed, harness::Protocol::kVirtualPartition,
                        /*harsh=*/false, /*reliable=*/false),
              kSmoke[seed])
        << "trace drift at smoke seed " << seed;
  }
}

}  // namespace
}  // namespace vp
