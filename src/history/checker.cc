#include "history/checker.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>
#include <unordered_map>

namespace vp::history {

namespace {

/// Replays one transaction against the one-copy database. Returns empty
/// string on success, a violation witness otherwise.
std::string ReplayTxn(const TxnHistory& t, std::map<ObjectId, Value>* db,
                      const InitialDb& initial) {
  // Per-transaction view: reads see the transaction's own earlier writes.
  std::map<ObjectId, Value> own_writes;
  for (const LogicalOp& op : t.ops) {
    if (op.kind == LogicalOp::Kind::kWrite) {
      own_writes[op.obj] = op.value;
      continue;
    }
    const Value* expect;
    auto ow = own_writes.find(op.obj);
    if (ow != own_writes.end()) {
      expect = &ow->second;
    } else {
      auto dbit = db->find(op.obj);
      if (dbit != db->end()) {
        expect = &dbit->second;
      } else {
        auto init = initial.find(op.obj);
        static const Value kEmpty;
        expect = init != initial.end() ? &init->second : &kEmpty;
      }
    }
    if (op.value != *expect) {
      return "txn " + t.id.ToString() + " read obj " + std::to_string(op.obj) +
             " = '" + op.value + "' but one-copy value was '" + *expect + "'";
    }
  }
  for (const auto& [obj, val] : own_writes) (*db)[obj] = val;
  return "";
}

}  // namespace

CertifyResult ReplaySerialOrder(const std::vector<TxnHistory>& committed,
                                const InitialDb& initial,
                                const std::vector<size_t>& order) {
  CertifyResult result;
  std::map<ObjectId, Value> db = initial;
  for (size_t idx : order) {
    const TxnHistory& t = committed[idx];
    std::string err = ReplayTxn(t, &db, initial);
    if (!err.empty()) {
      result.ok = false;
      result.detail = err;
      return result;
    }
    result.serial_order.push_back(t.id);
  }
  result.ok = true;
  result.final_db = std::move(db);
  return result;
}

CertifyResult CertifyOneCopySR(const std::vector<TxnHistory>& committed,
                               const InitialDb& initial) {
  // A passing replay of ANY candidate order is a valid 1SR witness. Three
  // candidates cover the protocol regimes:
  //  * (first vp, commit time)  — Theorem 1' order; under the §6 weakened
  //    R4 a straddling transaction serializes with the partition it
  //    started in (its conflicts afterwards are lock-mediated);
  //  * (last vp, commit time)   — the plain Theorem 1' order for strict
  //    R4 executions;
  //  * (commit time)            — strict-2PL commit order, the natural
  //    witness for protocols without partitions (quorum/ROWA).
  enum class Key { kFirstVp, kLastVp, kCommit };
  CertifyResult first_failure;
  bool have_failure = false;
  for (Key key : {Key::kFirstVp, Key::kLastVp, Key::kCommit}) {
    std::vector<size_t> order(committed.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const TxnHistory& x = committed[a];
      const TxnHistory& y = committed[b];
      if (key != Key::kCommit && x.has_vp && y.has_vp) {
        const VpId& xv = key == Key::kFirstVp ? x.vp_first : x.vp;
        const VpId& yv = key == Key::kFirstVp ? y.vp_first : y.vp;
        if (!(xv == yv)) return xv < yv;
      }
      return DecidedBefore(x, y);
    });
    CertifyResult r = ReplaySerialOrder(committed, initial, order);
    if (r.ok) return r;
    if (!have_failure) {
      first_failure = r;
      have_failure = true;
    }
  }
  return first_failure;
}

CertifyResult CertifyOneCopySRAnyOrder(
    const std::vector<TxnHistory>& committed, const InitialDb& initial,
    size_t max_txns) {
  CertifyResult result;
  if (committed.size() > max_txns) {
    result.skipped = true;
    result.detail = "history too large for exhaustive search";
    return result;
  }
  std::vector<size_t> order(committed.size());
  std::iota(order.begin(), order.end(), 0);
  std::string first_failure;
  do {
    CertifyResult attempt = ReplaySerialOrder(committed, initial, order);
    if (attempt.ok) return attempt;
    if (first_failure.empty()) first_failure = attempt.detail;
  } while (std::next_permutation(order.begin(), order.end()));
  result.ok = false;
  result.detail = "no serial order exists; e.g. " + first_failure;
  return result;
}

namespace {

/// Conflict edges among committed transactions: same node+object, at least
/// one write, different txns, ordered by (time, record sequence).
///
/// Reads served AFTER their transaction decided are excluded. Such an op is
/// a straggler: a request copy that was still in flight when its quorum
/// operation completed without it (vote overshoot, or a network duplicate)
/// and got served at the copy after commit. Its reply was provably
/// discarded — the transaction's value was fixed when the quorum
/// completed, before the decide — so it constrains nothing. Late WRITES
/// are never excluded: a write phase only completes when every targeted
/// copy replied, so a post-decide write for a committed transaction would
/// be a real protocol bug and must keep its edges.
std::map<TxnId, std::set<TxnId>> BuildConflictEdges(
    const std::vector<Recorder::PhysOp>& physical_ops,
    const std::set<TxnId>& committed_ids,
    const std::map<TxnId, sim::SimTime>& decided_at) {
  std::vector<Recorder::PhysOp> ops;
  for (const auto& op : physical_ops) {
    if (committed_ids.count(op.txn) == 0) continue;
    if (!op.is_write) {
      auto d = decided_at.find(op.txn);
      if (d != decided_at.end() && op.at > d->second) continue;
    }
    ops.push_back(op);
  }
  std::sort(ops.begin(), ops.end(),
            [](const Recorder::PhysOp& a, const Recorder::PhysOp& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.seq < b.seq;
            });

  std::map<TxnId, std::set<TxnId>> edges;
  // Group ops by (node, object).
  std::map<std::pair<ProcessorId, ObjectId>, std::vector<const Recorder::PhysOp*>>
      per_copy;
  for (const auto& op : ops) per_copy[{op.node, op.obj}].push_back(&op);
  for (const auto& [key, copy_ops] : per_copy) {
    for (size_t i = 0; i < copy_ops.size(); ++i) {
      for (size_t j = i + 1; j < copy_ops.size(); ++j) {
        const auto* a = copy_ops[i];
        const auto* b = copy_ops[j];
        if (a->txn == b->txn) continue;
        if (a->is_write || b->is_write) edges[a->txn].insert(b->txn);
      }
    }
  }
  return edges;
}

}  // namespace

CertifyResult CheckConflictSerializable(
    const std::vector<Recorder::PhysOp>& physical_ops,
    const std::vector<TxnHistory>& committed) {
  CertifyResult result;
  std::set<TxnId> committed_ids;
  std::map<TxnId, sim::SimTime> decided_at;
  for (const TxnHistory& t : committed) {
    committed_ids.insert(t.id);
    decided_at[t.id] = t.decided_at;
  }

  std::map<TxnId, std::set<TxnId>> edges =
      BuildConflictEdges(physical_ops, committed_ids, decided_at);

  // DFS cycle detection.
  std::map<TxnId, int> color;  // 0 white, 1 grey, 2 black.
  std::vector<TxnId> stack;
  std::string cycle;
  std::function<bool(TxnId)> dfs = [&](TxnId u) -> bool {
    color[u] = 1;
    stack.push_back(u);
    for (TxnId v : edges[u]) {
      auto it = color.find(v);
      if (it == color.end() || it->second == 0) {
        if (dfs(v)) return true;
      } else if (it->second == 1) {
        cycle = "conflict cycle through " + u.ToString() + " and " +
                v.ToString();
        return true;
      }
    }
    color[u] = 2;
    stack.pop_back();
    return false;
  };
  for (const auto& [u, _] : edges) {
    if (color[u] == 0 && dfs(u)) {
      result.ok = false;
      result.detail = cycle;
      return result;
    }
  }
  result.ok = true;
  return result;
}

CertifyResult CertifyOneCopySRConflictOrder(
    const std::vector<Recorder::PhysOp>& physical_ops,
    const std::vector<TxnHistory>& committed, const InitialDb& initial) {
  CertifyResult result;
  std::set<TxnId> committed_ids;
  std::map<TxnId, size_t> index_of;
  std::map<TxnId, sim::SimTime> decided_at;
  for (size_t i = 0; i < committed.size(); ++i) {
    committed_ids.insert(committed[i].id);
    index_of[committed[i].id] = i;
    decided_at[committed[i].id] = committed[i].decided_at;
  }
  std::map<TxnId, std::set<TxnId>> edges =
      BuildConflictEdges(physical_ops, committed_ids, decided_at);

  // Kahn's algorithm with a deterministic ready set: among transactions
  // whose predecessors are all placed, the earliest in decision order goes
  // first, so unconflicting transactions keep their commit order.
  std::map<TxnId, size_t> indegree;
  for (const TxnHistory& t : committed) indegree[t.id] = 0;
  for (const auto& [from, tos] : edges) {
    (void)from;
    for (const TxnId& to : tos) ++indegree[to];
  }
  auto rank = [&](const TxnId& id) {
    const TxnHistory& t = committed[index_of[id]];
    return std::tuple<sim::SimTime, uint64_t, TxnId>(t.decided_at,
                                                     t.decide_seq, id);
  };
  std::set<std::tuple<sim::SimTime, uint64_t, TxnId>> ready;
  for (const auto& [id, deg] : indegree) {
    if (deg == 0) ready.insert(rank(id));
  }
  std::vector<size_t> order;
  order.reserve(committed.size());
  while (!ready.empty()) {
    const TxnId id = std::get<2>(*ready.begin());
    ready.erase(ready.begin());
    order.push_back(index_of[id]);
    for (const TxnId& to : edges[id]) {
      if (--indegree[to] == 0) ready.insert(rank(to));
    }
  }
  if (order.size() != committed.size()) {
    result.skipped = true;
    result.detail = "conflict graph is cyclic";
    return result;
  }
  return ReplaySerialOrder(committed, initial, order);
}

CertifyResult CheckNoLostCommittedWrites(
    const std::vector<TxnHistory>& committed, const InitialDb& initial) {
  CertifyResult result;
  // Legitimate sources per object: the initial value plus every value
  // written by a committed transaction.
  std::map<ObjectId, std::set<Value>> sources;
  for (const auto& [obj, value] : initial) sources[obj].insert(value);
  for (const TxnHistory& txn : committed) {
    for (const LogicalOp& op : txn.ops) {
      if (op.kind == LogicalOp::Kind::kWrite) sources[op.obj].insert(op.value);
    }
  }
  for (const TxnHistory& txn : committed) {
    for (const LogicalOp& op : txn.ops) {
      if (op.kind != LogicalOp::Kind::kRead) continue;
      const auto it = sources.find(op.obj);
      if (it == sources.end() || it->second.count(op.value) == 0) {
        result.ok = false;
        result.detail = txn.id.ToString() + " read '" + op.value +
                        "' from o" + std::to_string(op.obj) +
                        ", which no committed transaction wrote and which "
                        "is not the initial value";
        return result;
      }
    }
  }
  result.ok = true;
  return result;
}

}  // namespace vp::history
