// Experiment E7 (paper §6, optimizations 1-2): cost of bringing copies up
// to date when a partition heals, comparing
//   * kFullRead      — §5 baseline: read every copy in its entirety,
//   * kPreviousSkip  — skip initialization when all members share the same
//                      previous partition,
//   * kLogCatchup    — fetch only the missed write suffix.
// We sweep the number of writes missed by the minority and the object
// value size, reporting recovery items, bytes moved, log records, and the
// recovery messages on the wire (one request and one reply per holder per
// recovering member per join, plus any item answered alone after a lock
// wait).
#include <cstdio>

#include "bench_util.h"

namespace vp::bench {
namespace {

struct InitCost {
  uint64_t recovery_msgs = 0;
  uint64_t date_polls = 0;
  uint64_t recovery_bytes = 0;
  uint64_t log_records = 0;
  uint64_t skipped_objects = 0;
  uint64_t fsyncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t copy_persist_bytes = 0;
  /// RecoveryRead + RecoveryReply messages sent, retransmissions included.
  uint64_t wire_msgs = 0;
  bool healed_ok = false;
};

uint64_t RecoveryWireMsgs(harness::Cluster& cluster) {
  const auto& by_type = cluster.network().stats().sent_by_type;
  return by_type[net::Body(core::msg::RecoveryRead{}).index()] +
         by_type[net::Body(core::msg::RecoveryReply{}).index()];
}

InitCost Measure(core::RecoveryMode mode, int missed_writes,
                 size_t value_size, uint64_t seed) {
  harness::ClusterConfig config;
  config.n_processors = 5;
  config.n_objects = 4;
  config.seed = seed;
  config.protocol = harness::Protocol::kVirtualPartition;
  config.vp.recovery = mode;
  // WAL durability, so the fsync/WAL-byte columns show what partition
  // initialization costs on the stable device.
  config.durability = storage::DurabilityMode::kWal;
  harness::Cluster cluster(config);
  cluster.RunFor(sim::Seconds(1));

  // Measure from before the split so the §6 previous-skip savings on the
  // split itself are visible alongside the heal's initialization cost.
  const obs::MetricsSnapshot at_start = cluster.metrics().Snapshot();
  const uint64_t wire_at_start = RecoveryWireMsgs(cluster);
  uint64_t bytes_at_start = 0;
  for (ProcessorId p = 0; p < 5; ++p)
    bytes_at_start += cluster.store(p).stats().recovery_bytes;

  cluster.graph().Partition({{0, 1}, {2, 3, 4}});
  cluster.RunFor(sim::Seconds(1));

  // The majority performs `missed_writes` writes of `value_size` bytes to
  // object 0 that the minority misses.
  std::string last_value;
  for (int i = 0; i < missed_writes; ++i) {
    last_value = std::string(value_size, 'a' + (i % 26));
    auto& node = cluster.vp_node(2);
    TxnId txn = node.NewTxnId();
    node.Begin(txn);
    node.LogicalWrite(txn, 0, last_value, [](Status) {});
    cluster.RunFor(sim::Millis(60));
    node.Commit(txn, [](Status) {});
    cluster.RunFor(sim::Millis(60));
  }

  cluster.graph().Heal();
  cluster.RunFor(sim::Seconds(3));

  const obs::MetricsSnapshot after = cluster.metrics().Snapshot();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - at_start.CounterValue(name);
  };
  uint64_t bytes_after = 0;
  for (ProcessorId p = 0; p < 5; ++p)
    bytes_after += cluster.store(p).stats().recovery_bytes;

  InitCost cost;
  cost.recovery_msgs = delta("vp.recovery_reads_sent");
  cost.date_polls = delta("vp.recovery_date_polls");
  cost.recovery_bytes = bytes_after - bytes_at_start;
  cost.log_records = delta("vp.recovery_log_records");
  cost.skipped_objects = delta("vp.recovery_skipped_objects");
  cost.fsyncs = delta("wal.fsyncs");
  cost.wal_bytes = delta("wal.bytes");
  cost.copy_persist_bytes = delta("storage.copy_persist_bytes");
  cost.wire_msgs = RecoveryWireMsgs(cluster) - wire_at_start;
  cost.healed_ok = true;
  for (ProcessorId p = 0; p < 5; ++p) {
    if (missed_writes > 0 &&
        cluster.store(p).Read(0).value().value != last_value) {
      cost.healed_ok = false;
    }
  }
  return cost;
}

const char* ModeName(core::RecoveryMode mode) {
  switch (mode) {
    case core::RecoveryMode::kFullRead:
      return "full-read (§5)";
    case core::RecoveryMode::kPreviousSkip:
      return "previous-skip (§6.1)";
    case core::RecoveryMode::kLogCatchup:
      return "log-catchup (§6.2)";
    case core::RecoveryMode::kDatePoll:
      return "date-poll (§6 search)";
  }
  return "?";
}

void Main() {
  std::printf(
      "E7: partition-initialization cost after heal (n=5, 4 objects, one "
      "hot object)\n\n");
  Table table({"mode", "missed writes", "value bytes", "value fetches",
               "date polls", "bytes moved", "log records", "skipped objs",
               "fsyncs", "wal bytes", "copy bytes", "correct", "messages"});
  struct Row {
    core::RecoveryMode mode;
    int missed;
    size_t value_size;
    InitCost cost;
  };
  std::vector<Row> rows;
  for (core::RecoveryMode mode :
       {core::RecoveryMode::kFullRead, core::RecoveryMode::kPreviousSkip,
        core::RecoveryMode::kLogCatchup, core::RecoveryMode::kDatePoll}) {
    for (int missed : {0, 5, 25}) {
      for (size_t sz : {16u, 4096u}) {
        if (missed == 0 && sz != 16u) continue;
        InitCost c = Measure(mode, missed, sz, 700 + missed);
        table.AddRow({ModeName(mode), std::to_string(missed),
                      std::to_string(sz), std::to_string(c.recovery_msgs),
                      std::to_string(c.date_polls),
                      std::to_string(c.recovery_bytes),
                      std::to_string(c.log_records),
                      std::to_string(c.skipped_objects),
                      std::to_string(c.fsyncs),
                      std::to_string(c.wal_bytes),
                      std::to_string(c.copy_persist_bytes),
                      c.healed_ok ? "yes" : "NO",
                      std::to_string(c.wire_msgs)});
        rows.push_back(Row{mode, missed, sz, c});
      }
    }
  }
  table.Print();
  WriteBenchJson("BENCH_partition_init.json", "partition_init",
                 [&](obs::JsonWriter& w) {
    w.Field("backend", "sim");
    w.Field("n_processors", 5);
    w.Field("n_objects", 4);
    w.BeginArray("rows");
    for (const Row& row : rows) {
      w.BeginObject();
      w.Field("mode", ModeName(row.mode));
      w.Field("missed_writes", static_cast<uint64_t>(row.missed));
      w.Field("value_bytes", static_cast<uint64_t>(row.value_size));
      w.Field("value_fetches", row.cost.recovery_msgs);
      w.Field("date_polls", row.cost.date_polls);
      w.Field("bytes_moved", row.cost.recovery_bytes);
      w.Field("log_records", row.cost.log_records);
      w.Field("skipped_objects", row.cost.skipped_objects);
      w.Field("fsyncs", row.cost.fsyncs);
      w.Field("wal_bytes", row.cost.wal_bytes);
      w.Field("copy_persist_bytes", row.cost.copy_persist_bytes);
      w.Field("correct", row.cost.healed_ok);
      w.Field("messages", row.cost.wire_msgs);
      w.EndObject();
    }
    w.EndArray();
  });
  std::printf(
      "\nExpected shape: full-read moves whole values on every join; "
      "log-catchup's\nbytes scale with missed writes only; previous-skip "
      "eliminates work on the\nsplit (the heal still initializes since "
      "members come from different partitions).\n");
}

}  // namespace
}  // namespace vp::bench

int main() {
  vp::bench::Main();
  return 0;
}
