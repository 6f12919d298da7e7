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
//
// The 29 VP digests moved again when R5 began sending one recovery request
// per (recovering member, holder) per join, listing its objects, instead of
// one read per (object, holder): far fewer messages, so every later delay
// and drop draw moved. The four quorum and majority-voting digests did not
// move. Every re-captured run was violation-free.
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
      {3, Protocol::kVirtualPartition, false, false, 0xb31b85df25bc01faULL},
      {3, Protocol::kVirtualPartition, true, true, 0xb209d10811ef6f65ULL},
      {3, Protocol::kQuorum, true, true, 0x21ede95df13867d3ULL},
      {3, Protocol::kMajorityVoting, true, true, 0x21ede95df13867d3ULL},
      {438, Protocol::kVirtualPartition, false, false, 0x32268ed5a526cdcbULL},
      {438, Protocol::kVirtualPartition, true, true, 0x8ee48750d9f55323ULL},
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
      0x939fb8eb761382adULL, 0x29afcb66df74ef8eULL, 0x2ab564e4372182faULL,
      0xb31b85df25bc01faULL, 0xa16d1fa2f762eca3ULL, 0xf2ba123d807415c2ULL,
      0x32663345f0029e8fULL, 0x915d5fbddb10a623ULL, 0xbc5e26e759e85d5aULL,
      0x42f1cbbc2a1a3d39ULL, 0x17c54cc6f715f02eULL, 0x586e4d3defa74edfULL,
      0x5ff48a65129a92ceULL, 0xe5ff6e476da476eeULL, 0xdd88df1fa1c1c946ULL,
      0x7b18c3fafafbdb8eULL, 0x59e5ff7a6bc3d39fULL, 0xc053bb2fc8a8cccaULL,
      0x91dda7671ebadd61ULL, 0x77be4732c93dbf2dULL, 0x2375ef1c46fb0804ULL,
      0xa6822fa8b48bf972ULL, 0xc6f94f5b8e037e39ULL, 0xa4fdf231c9277d35ULL,
      0xc8eece5b78ca699dULL,
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
