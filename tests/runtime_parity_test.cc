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
      {3, Protocol::kVirtualPartition, false, false, 0xfaafdeeeaed8e639ULL},
      {3, Protocol::kVirtualPartition, true, true, 0x88ce35ada40d9555ULL},
      {3, Protocol::kQuorum, true, true, 0x6a672ee907a2640cULL},
      {3, Protocol::kMajorityVoting, true, true, 0x6a672ee907a2640cULL},
      {438, Protocol::kVirtualPartition, false, false, 0xb1acd7a524aadca8ULL},
      {438, Protocol::kVirtualPartition, true, true, 0x2642235c5d7eb23aULL},
      {438, Protocol::kQuorum, true, true, 0x25661e50d400a7abULL},
      {438, Protocol::kMajorityVoting, true, true, 0x25661e50d400a7abULL},
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
      0x619e90e0aad8cb43ULL, 0xbae29fb593e9e287ULL, 0x2ce84cebe0170527ULL,
      0xfaafdeeeaed8e639ULL, 0xe1a27b2eaa85c90aULL, 0x19efb36d76b5e819ULL,
      0x1ec30659e96cfa0cULL, 0xf6261fb69e4d75c9ULL, 0x875da53bc53247a0ULL,
      0x84914f3bb6bee1faULL, 0xb8c68a3225744a13ULL, 0xc42457f87d8e1764ULL,
      0x194ab5c97cd85914ULL, 0xbfe748c3ca625d5aULL, 0x304d3f1618e04ea4ULL,
      0x28711ba3991110a3ULL, 0x960ca820be8c7ee0ULL, 0xe7b5f4f9c741c2d4ULL,
      0x7ea7ea005f048ee2ULL, 0x3b364056b10f9cf0ULL, 0x485df3b7a58d4460ULL,
      0x9d8c48f4b13f5845ULL, 0x58974b8b9272c38bULL, 0xcd445347501ff4d8ULL,
      0x1c31428d5ea23337ULL,
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
