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
      {3, Protocol::kVirtualPartition, false, false, 0x889eec24aacfc84bULL},
      {3, Protocol::kVirtualPartition, true, true, 0x1b9519391d69ff05ULL},
      {3, Protocol::kQuorum, true, true, 0x9d8983700c30dd6eULL},
      {3, Protocol::kMajorityVoting, true, true, 0x9d8983700c30dd6eULL},
      {438, Protocol::kVirtualPartition, false, false, 0x77c3df0a598a5ca1ULL},
      {438, Protocol::kVirtualPartition, true, true, 0xe3c7492f67ec1b5bULL},
      {438, Protocol::kQuorum, true, true, 0xd786981f06252372ULL},
      {438, Protocol::kMajorityVoting, true, true, 0xd786981f06252372ULL},
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
      0x09bc77f3c388188fULL, 0x5071bfc45a90e33bULL, 0x1b15148e9363c27eULL,
      0x889eec24aacfc84bULL, 0x07cd38781616d470ULL, 0xa2915883d9b69188ULL,
      0xccfe738ba8fe88baULL, 0xc60278d0f7e31469ULL, 0x714e7e374a10267eULL,
      0x17cfdfe4ef6862b7ULL, 0x92accbfd459907fbULL, 0x651e290d5e507108ULL,
      0x6f79b981c77d492bULL, 0xa7c492a45e802d74ULL, 0x564fae9a7111b8e2ULL,
      0xb4f14c8b395cd6b7ULL, 0x41edff0b864d2ad7ULL, 0x6f2f9f0323969059ULL,
      0x95339e6ca15f0928ULL, 0x4f46d9fb3d079405ULL, 0x6d9a0be5c214d853ULL,
      0xd1dc66f782212145ULL, 0xad888e949773ca63ULL, 0x919278777851e69aULL,
      0x1679193c58ad1f5fULL,
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
