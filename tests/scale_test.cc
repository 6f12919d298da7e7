// Larger-system sanity: the protocol's correctness and convergence do not
// depend on small n. 15 processors, partial replication, WAN costs,
// concurrent workload, partitions — still certified.
#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "net/topology_gen.h"
#include "workload/client.h"

namespace vp {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Protocol;

TEST(Scale, FifteenNodesConvergeAndServe) {
  ClusterConfig config;
  config.n_processors = 15;
  config.seed = 151;
  config.protocol = Protocol::kVirtualPartition;
  // δ must bound the worst one-hop delay: max_delay (5 ms) × WAN cost 3.
  config.vp.delta = sim::Millis(15);
  // Partial replication: object i lives at {i, i+1, ..., i+4} mod 15.
  config.has_custom_placement = true;
  for (ObjectId obj = 0; obj < 10; ++obj) {
    for (uint32_t k = 0; k < 5; ++k) {
      config.placement.AddCopy(obj, (obj + k) % 15, 1);
    }
  }
  Cluster cluster(config);
  net::MakeWanCosts(&cluster.graph(), /*sites=*/3, 1.0, 3.0);
  cluster.RunFor(sim::Seconds(2));
  ASSERT_TRUE(cluster.VpConverged());
  EXPECT_EQ(cluster.vp_node(7).view().size(), 15u);

  std::vector<core::NodeBase*> nodes;
  for (ProcessorId p = 0; p < 15; ++p) nodes.push_back(&cluster.node(p));
  workload::ClientConfig cc;
  cc.read_fraction = 0.8;
  cc.ops_per_txn = 2;
  cc.zipf_theta = 0.5;
  cc.seed = 151;
  auto clients = workload::MakeClients(nodes, cluster.runtime_view(), 10, cc);
  for (auto& c : clients) c->Start(sim::Millis(2));

  cluster.injector().PartitionAt(sim::Seconds(3),
                                 {{0, 1, 2, 3, 4, 5, 6, 7},
                                  {8, 9, 10, 11, 12, 13, 14}});
  cluster.injector().HealAt(sim::Seconds(5));
  cluster.RunFor(sim::Seconds(6));
  for (auto& c : clients) c->Stop();
  cluster.RunFor(sim::Seconds(3));

  const auto agg = workload::Aggregate(clients);
  EXPECT_GT(agg.txns_committed, 500u);
  auto cert = cluster.Certify();
  EXPECT_TRUE(cert.ok) << cert.detail;
  EXPECT_TRUE(cluster.recorder().safety_violations().empty());
  // Partial replication: reads still cost at most one physical access
  // each (R2's read-one rule; unavailable reads send none).
  const obs::MetricsSnapshot m = cluster.metrics().Snapshot();
  EXPECT_LE(m.CounterValue("phys.reads_sent"),
            m.CounterValue("node.reads_attempted"));
  EXPECT_GE(m.CounterValue("phys.reads_sent"),
            m.CounterValue("phys.reads_completed"));
}

TEST(Scale, DeterministicAtScale) {
  uint64_t committed[2];
  for (int run = 0; run < 2; ++run) {
    ClusterConfig config;
    config.n_processors = 12;
    config.n_objects = 8;
    config.seed = 777;
    config.protocol = Protocol::kVirtualPartition;
    Cluster cluster(config);
    cluster.RunFor(sim::Seconds(1));
    std::vector<core::NodeBase*> nodes;
    for (ProcessorId p = 0; p < 12; ++p) nodes.push_back(&cluster.node(p));
    workload::ClientConfig cc;
    cc.seed = 777;
    auto clients = workload::MakeClients(nodes, cluster.runtime_view(), 8, cc);
    for (auto& c : clients) c->Start();
    cluster.injector().PartitionAt(sim::Seconds(2),
                                   {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}});
    cluster.injector().HealAt(sim::Seconds(3));
    cluster.RunFor(sim::Seconds(4));
    committed[run] = workload::Aggregate(clients).txns_committed;
  }
  EXPECT_EQ(committed[0], committed[1]);
  EXPECT_GT(committed[0], 0u);
}

}  // namespace
}  // namespace vp
