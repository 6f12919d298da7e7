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
// re-captured run was violation-free. The quorum and majority-voting
// digests were not touched and still match the direct-wiring capture.
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
      {3, Protocol::kVirtualPartition, false, false, 0xe148ccefece14469ULL},
      {3, Protocol::kVirtualPartition, true, true, 0x6b6bae256df486d0ULL},
      {3, Protocol::kQuorum, true, true, 0x560e43276e93835fULL},
      {3, Protocol::kMajorityVoting, true, true, 0x560e43276e93835fULL},
      {438, Protocol::kVirtualPartition, false, false, 0xea471f4e2b5c5442ULL},
      {438, Protocol::kVirtualPartition, true, true, 0xb565b8f73e6ce720ULL},
      {438, Protocol::kQuorum, true, true, 0xe8d3308c6e26ce8cULL},
      {438, Protocol::kMajorityVoting, true, true, 0xe8d3308c6e26ce8cULL},
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
      0x720d7d596d7f32eaULL, 0xd7ad301d55bd710fULL, 0x2a8b9c9b76322825ULL,
      0xe148ccefece14469ULL, 0xab5b3617de494f87ULL, 0x027db90d1a866bbbULL,
      0x83f4893d570aa9baULL, 0x7e64a48c2a15a84cULL, 0x2edf1ef4ba40aeb3ULL,
      0x6e65595339b94f83ULL, 0xec6b68fd11b85febULL, 0xe6f1502d7b054bdaULL,
      0xa517de9c10e566f3ULL, 0xd3640bdb9870a343ULL, 0x840c3be67fb900a5ULL,
      0x3a20810c163cc2b3ULL, 0xe6970650e8f026e5ULL, 0x5678661075db7a95ULL,
      0x64d6e729e15d839fULL, 0x762bef5ae4cdf6e6ULL, 0x962ffd0292ba8f02ULL,
      0x81595065f30371efULL, 0xf305bc57f47b016bULL, 0xabcecbbd650fb06eULL,
      0xf561f75b89e95faaULL,
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
