#include "nemesis/nemesis.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "history/trace.h"
#include "workload/client.h"

namespace vp::nemesis {

namespace {

/// Doubles must survive text round-trips bit-exactly or the determinism
/// contract (plan file ⇒ same trace) breaks.
std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FmtGroups(const std::vector<std::vector<ProcessorId>>& groups) {
  std::string out;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (g > 0) out += '|';
    for (size_t i = 0; i < groups[g].size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(groups[g][i]);
    }
  }
  return out;
}

Status ParseGroups(const std::string& text,
                   std::vector<std::vector<ProcessorId>>* out) {
  out->clear();
  std::stringstream groups(text);
  std::string group;
  while (std::getline(groups, group, '|')) {
    std::vector<ProcessorId> ids;
    std::stringstream members(group);
    std::string id;
    while (std::getline(members, id, ',')) {
      try {
        ids.push_back(static_cast<ProcessorId>(std::stoul(id)));
      } catch (...) {
        return Status::InvalidArgument("bad processor id '" + id +
                                       "' in partition groups");
      }
    }
    if (ids.empty()) {
      return Status::InvalidArgument("empty group in partition action");
    }
    out->push_back(std::move(ids));
  }
  if (out->empty()) {
    return Status::InvalidArgument("partition action without groups");
  }
  return Status::Ok();
}

/// One reconfig op as a single whitespace-free token, so it slots into the
/// plan format's space-separated action lines:
///   add:obj:proc:weight | rm:obj:proc | w:obj:proc:weight
std::string FmtReconfigOp(const ReconfigOp& op) {
  std::string out;
  switch (op.kind) {
    case ReconfigOp::Kind::kAddCopy:
      out = "add:" + std::to_string(op.obj) + ":" + std::to_string(op.proc) +
            ":" + std::to_string(op.weight);
      break;
    case ReconfigOp::Kind::kRemoveCopy:
      out = "rm:" + std::to_string(op.obj) + ":" + std::to_string(op.proc);
      break;
    case ReconfigOp::Kind::kSetWeight:
      out = "w:" + std::to_string(op.obj) + ":" + std::to_string(op.proc) +
            ":" + std::to_string(op.weight);
      break;
  }
  return out;
}

Status ParseReconfigOp(const std::string& token, ReconfigOp* out) {
  std::stringstream parts(token);
  std::string kind, field;
  if (!std::getline(parts, kind, ':')) {
    return Status::InvalidArgument("empty reconfig op");
  }
  uint64_t nums[3] = {0, 0, 0};
  int n = 0;
  while (n < 3 && std::getline(parts, field, ':')) {
    try {
      nums[n++] = std::stoull(field);
    } catch (...) {
      return Status::InvalidArgument("bad number in reconfig op '" + token +
                                     "'");
    }
  }
  const bool has_weight = kind != "rm";
  if ((has_weight && n != 3) || (!has_weight && n != 2)) {
    return Status::InvalidArgument("malformed reconfig op '" + token + "'");
  }
  out->kind = kind == "add"  ? ReconfigOp::Kind::kAddCopy
              : kind == "rm" ? ReconfigOp::Kind::kRemoveCopy
              : kind == "w"  ? ReconfigOp::Kind::kSetWeight
                             : ReconfigOp::Kind::kAddCopy;
  if (kind != "add" && kind != "rm" && kind != "w") {
    return Status::InvalidArgument("unknown reconfig op kind '" + kind + "'");
  }
  out->obj = static_cast<ObjectId>(nums[0]);
  out->proc = static_cast<ProcessorId>(nums[1]);
  if (has_weight) {
    if (nums[2] < 1 || nums[2] > 64) {
      return Status::InvalidArgument("reconfig weight must be in [1, 64]");
    }
    out->weight = static_cast<Weight>(nums[2]);
  }
  return Status::Ok();
}

}  // namespace

std::string FaultPlan::ToText() const {
  std::ostringstream out;
  out << "# vpart nemesis fault plan\n";
  out << "protocol " << harness::ProtocolName(protocol) << "\n";
  out << "processors " << n_processors << "\n";
  out << "objects " << n_objects << "\n";
  out << "seed " << seed << "\n";
  out << "storm_us " << storm << "\n";
  out << "drop_prob " << FmtDouble(drop_prob) << "\n";
  out << "slow_prob " << FmtDouble(slow_prob) << "\n";
  out << "dup_prob " << FmtDouble(dup_prob) << "\n";
  out << "reorder_prob " << FmtDouble(reorder_prob) << "\n";
  out << "read_fraction " << FmtDouble(read_fraction) << "\n";
  out << "ops_per_txn " << ops_per_txn << "\n";
  out << "rmw " << (rmw ? 1 : 0) << "\n";
  out << "durability " << storage::DurabilityModeName(durability) << "\n";
  // Only emitted when set, so pre-existing plan files stay byte-identical.
  if (reliable) out << "reliable 1\n";
  // Only emitted when disabled (the non-default), for the same reason.
  if (!epoch_gating) out << "epoch_gating 0\n";
  // Only emitted when non-default, for the same reason.
  if (integrity != storage::IntegrityMode::kChecksum) {
    out << "integrity " << storage::IntegrityModeName(integrity) << "\n";
  }
  if (recovery != core::RecoveryMode::kPreviousSkip) {
    out << "recovery " << core::RecoveryModeName(recovery) << "\n";
  }
  for (const CopySpec& c : placement) {
    out << "copy " << c.obj << " " << c.proc << " " << c.weight << "\n";
  }
  for (const net::FaultAction& a : actions) {
    using Kind = net::FaultAction::Kind;
    if (a.kind == Kind::kCustom) continue;  // Not serializable by design.
    out << "action " << net::FaultKindName(a.kind) << " " << a.at;
    switch (a.kind) {
      case Kind::kCrashProcessor:
      case Kind::kCrashAmnesia:
      case Kind::kRecoverProcessor:
        out << " " << a.a;
        break;
      case Kind::kLinkDown:
      case Kind::kLinkUp:
      case Kind::kLinkDownOneWay:
      case Kind::kLinkUpOneWay:
        out << " " << a.a << " " << a.b;
        break;
      case Kind::kPartition:
        out << " " << FmtGroups(a.groups);
        break;
      case Kind::kHeal:
        break;
      case Kind::kChurnBurst:
        out << " " << a.a << " " << a.count << " " << a.period;
        break;
      case Kind::kReconfig:
        out << " " << a.a;
        for (const ReconfigOp& op : a.reconfig) out << " " << FmtReconfigOp(op);
        break;
      case Kind::kBitRot:
      case Kind::kTornWrite:
        out << " " << a.a << " ";
        if (a.corrupt_obj != kInvalidObject) {
          out << "copy:" << a.corrupt_obj;
        } else {
          out << "wal:" << a.wal_index;
        }
        break;
      case Kind::kCrashAmnesiaTorn:
        out << " " << a.a << " " << a.count;
        break;
      case Kind::kCustom:
        break;
    }
    out << "\n";
  }
  return out.str();
}

Result<FaultPlan> FaultPlan::FromText(const std::string& text) {
  FaultPlan plan;
  plan.actions.clear();
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    auto bad = [&](const std::string& why) -> Status {
      return Status::InvalidArgument("plan line " + std::to_string(lineno) +
                                     ": " + why);
    };
    if (key == "protocol") {
      std::string name;
      fields >> name;
      if (!harness::ProtocolFromName(name, &plan.protocol)) {
        return bad("unknown protocol '" + name + "'");
      }
    } else if (key == "processors") {
      fields >> plan.n_processors;
      if (fields.fail() || plan.n_processors < 1 || plan.n_processors > 64) {
        return bad("processors must be in [1, 64]");
      }
    } else if (key == "objects") {
      fields >> plan.n_objects;
      if (fields.fail() || plan.n_objects < 1) return bad("bad objects");
    } else if (key == "seed") {
      fields >> plan.seed;
      if (fields.fail()) return bad("bad seed");
    } else if (key == "storm_us") {
      fields >> plan.storm;
      if (fields.fail() || plan.storm <= 0) return bad("storm must be > 0");
    } else if (key == "drop_prob") {
      fields >> plan.drop_prob;
    } else if (key == "slow_prob") {
      fields >> plan.slow_prob;
    } else if (key == "dup_prob") {
      fields >> plan.dup_prob;
    } else if (key == "reorder_prob") {
      fields >> plan.reorder_prob;
    } else if (key == "read_fraction") {
      fields >> plan.read_fraction;
    } else if (key == "ops_per_txn") {
      fields >> plan.ops_per_txn;
    } else if (key == "rmw") {
      int v = 0;
      fields >> v;
      plan.rmw = v != 0;
    } else if (key == "durability") {
      std::string name;
      fields >> name;
      bool found = false;
      for (storage::DurabilityMode m :
           {storage::DurabilityMode::kRetainMemory,
            storage::DurabilityMode::kWal, storage::DurabilityMode::kNoWal}) {
        if (storage::DurabilityModeName(m) == name) {
          plan.durability = m;
          found = true;
          break;
        }
      }
      if (!found) return bad("unknown durability mode '" + name + "'");
    } else if (key == "integrity") {
      std::string name;
      fields >> name;
      bool found = false;
      for (storage::IntegrityMode m : {storage::IntegrityMode::kChecksum,
                                       storage::IntegrityMode::kNoChecksum}) {
        if (storage::IntegrityModeName(m) == name) {
          plan.integrity = m;
          found = true;
          break;
        }
      }
      if (!found) return bad("unknown integrity mode '" + name + "'");
    } else if (key == "reliable") {
      int v = 0;
      fields >> v;
      plan.reliable = v != 0;
    } else if (key == "epoch_gating") {
      int v = 0;
      fields >> v;
      plan.epoch_gating = v != 0;
    } else if (key == "recovery") {
      std::string name;
      fields >> name;
      if (!core::RecoveryModeFromName(name, &plan.recovery)) {
        return bad("unknown recovery mode '" + name + "'");
      }
    } else if (key == "copy") {
      FaultPlan::CopySpec c;
      uint32_t weight = 0;
      fields >> c.obj >> c.proc >> weight;
      if (fields.fail()) return bad("copy needs obj, proc and weight");
      if (weight < 1 || weight > 64) return bad("copy weight must be in [1, 64]");
      c.weight = static_cast<Weight>(weight);
      plan.placement.push_back(c);
    } else if (key == "action") {
      std::string kind_name;
      net::FaultAction a;
      fields >> kind_name >> a.at;
      if (fields.fail()) return bad("action needs a kind and a time");
      if (a.at < 0) return bad("action time must be >= 0");
      using Kind = net::FaultAction::Kind;
      if (kind_name == "crash" || kind_name == "crash_amnesia" ||
          kind_name == "recover") {
        a.kind = kind_name == "crash"           ? Kind::kCrashProcessor
                 : kind_name == "crash_amnesia" ? Kind::kCrashAmnesia
                                                : Kind::kRecoverProcessor;
        fields >> a.a;
      } else if (kind_name == "link_down" || kind_name == "link_up" ||
                 kind_name == "link_down_oneway" ||
                 kind_name == "link_up_oneway") {
        a.kind = kind_name == "link_down"          ? Kind::kLinkDown
                 : kind_name == "link_up"          ? Kind::kLinkUp
                 : kind_name == "link_down_oneway" ? Kind::kLinkDownOneWay
                                                   : Kind::kLinkUpOneWay;
        fields >> a.a >> a.b;
      } else if (kind_name == "partition") {
        a.kind = Kind::kPartition;
        std::string groups;
        fields >> groups;
        Status s = ParseGroups(groups, &a.groups);
        if (!s.ok()) return bad(s.message());
      } else if (kind_name == "heal") {
        a.kind = Kind::kHeal;
      } else if (kind_name == "churn") {
        a.kind = Kind::kChurnBurst;
        fields >> a.a >> a.count >> a.period;
        if (a.count < 1 || a.period < 1) {
          return bad("churn needs count >= 1 and period >= 1");
        }
      } else if (kind_name == "reconfig") {
        a.kind = Kind::kReconfig;
        fields >> a.a;
        if (fields.fail()) return bad("reconfig needs a proposer");
        std::string token;
        while (fields >> token) {
          ReconfigOp op;
          Status s = ParseReconfigOp(token, &op);
          if (!s.ok()) return bad(s.message());
          a.reconfig.push_back(op);
        }
        fields.clear();  // The op loop legitimately hits end-of-line.
        if (a.reconfig.empty()) return bad("reconfig needs at least one op");
      } else if (kind_name == "bit_rot" || kind_name == "torn_write") {
        a.kind = kind_name == "bit_rot" ? Kind::kBitRot : Kind::kTornWrite;
        std::string target;
        fields >> a.a >> target;
        if (fields.fail()) {
          return bad(kind_name + " needs a processor and a target");
        }
        try {
          if (target.rfind("wal:", 0) == 0) {
            a.wal_index = static_cast<uint32_t>(std::stoul(target.substr(4)));
          } else if (target.rfind("copy:", 0) == 0) {
            a.corrupt_obj =
                static_cast<ObjectId>(std::stoul(target.substr(5)));
          } else {
            return bad(kind_name + " target must be wal:<idx> or copy:<obj>");
          }
        } catch (...) {
          return bad("bad number in " + kind_name + " target '" + target +
                     "'");
        }
      } else if (kind_name == "crash_torn") {
        a.kind = Kind::kCrashAmnesiaTorn;
        fields >> a.a >> a.count;
      } else {
        return bad("unknown action kind '" + kind_name + "'");
      }
      if (fields.fail()) return bad("malformed " + kind_name + " action");
      plan.actions.push_back(std::move(a));
    } else {
      return bad("unknown key '" + key + "'");
    }
    if (fields.fail()) return bad("malformed value for '" + key + "'");
  }
  // Placement references must be consistent: in-range ids, and (when a
  // custom placement is given) every object owns at least one copy, or the
  // cluster's one-copy database would not cover the workload's key space.
  if (!plan.placement.empty()) {
    std::vector<bool> covered(plan.n_objects, false);
    for (const FaultPlan::CopySpec& c : plan.placement) {
      if (c.obj >= plan.n_objects) {
        return Status::InvalidArgument("copy references object " +
                                       std::to_string(c.obj) + " >= objects");
      }
      if (c.proc >= plan.n_processors) {
        return Status::InvalidArgument("copy references processor " +
                                       std::to_string(c.proc) +
                                       " >= processors");
      }
      covered[c.obj] = true;
    }
    for (ObjectId obj = 0; obj < plan.n_objects; ++obj) {
      if (!covered[obj]) {
        return Status::InvalidArgument("custom placement leaves object " +
                                       std::to_string(obj) + " with no copy");
      }
    }
  }
  // Referenced processors must exist.
  for (const net::FaultAction& a : plan.actions) {
    auto in_range = [&](ProcessorId p) { return p < plan.n_processors; };
    if (a.a != kInvalidProcessor && !in_range(a.a)) {
      return Status::InvalidArgument("action references processor " +
                                     std::to_string(a.a) + " >= processors");
    }
    if (a.b != kInvalidProcessor && !in_range(a.b)) {
      return Status::InvalidArgument("action references processor " +
                                     std::to_string(a.b) + " >= processors");
    }
    for (const auto& group : a.groups) {
      for (ProcessorId p : group) {
        if (!in_range(p)) {
          return Status::InvalidArgument(
              "partition group references processor " + std::to_string(p) +
              " >= processors");
        }
      }
    }
    if (a.corrupt_obj != kInvalidObject && a.corrupt_obj >= plan.n_objects) {
      return Status::InvalidArgument("corruption action references object " +
                                     std::to_string(a.corrupt_obj) +
                                     " >= objects");
    }
    for (const ReconfigOp& op : a.reconfig) {
      if (op.obj >= plan.n_objects) {
        return Status::InvalidArgument("reconfig op references object " +
                                       std::to_string(op.obj) + " >= objects");
      }
      if (!in_range(op.proc)) {
        return Status::InvalidArgument("reconfig op references processor " +
                                       std::to_string(op.proc) +
                                       " >= processors");
      }
    }
  }
  std::stable_sort(plan.actions.begin(), plan.actions.end(),
                   [](const net::FaultAction& x, const net::FaultAction& y) {
                     return x.at < y.at;
                   });
  return plan;
}

Status FaultPlan::SaveFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open '" + path + "' for writing");
  out << ToText();
  out.close();
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::Ok();
}

Result<FaultPlan> FaultPlan::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open plan file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromText(buf.str());
}

FaultPlan GeneratePlan(uint64_t seed, const GeneratorConfig& cfg) {
  Rng rng(seed ^ 0x6e656d6573697321ULL);  // "nemesis!"
  FaultPlan plan;
  plan.seed = seed;
  plan.n_processors = static_cast<uint32_t>(
      rng.UniformInt(cfg.min_processors, cfg.max_processors));
  plan.n_objects = static_cast<ObjectId>(rng.UniformInt(4, 8));
  plan.storm = rng.UniformInt(cfg.min_storm, cfg.max_storm);

  // Background network-fault knobs from small discrete menus, so campaigns
  // cover "clean", "mild" and "nasty" regimes instead of a smear of nearly
  // identical intermediate values.
  static constexpr double kDrop[] = {0.0, 0.01, 0.03};
  static constexpr double kSlow[] = {0.0, 0.01};
  static constexpr double kDup[] = {0.0, 0.02, 0.05};
  static constexpr double kReorder[] = {0.0, 0.05, 0.15};
  // Harsher menus for baseline hardening sweeps: no clean regime, and the
  // nasty end roughly triples. Same draw count either way, so a seed's plan
  // keeps its shape under both menus.
  static constexpr double kDropHarsh[] = {0.02, 0.05, 0.10};
  static constexpr double kSlowHarsh[] = {0.02, 0.05};
  static constexpr double kDupHarsh[] = {0.05, 0.10, 0.20};
  static constexpr double kReorderHarsh[] = {0.10, 0.25, 0.40};
  plan.drop_prob = (cfg.harsh ? kDropHarsh : kDrop)[rng.Uniform(3)];
  plan.slow_prob = (cfg.harsh ? kSlowHarsh : kSlow)[rng.Uniform(2)];
  plan.dup_prob = (cfg.harsh ? kDupHarsh : kDup)[rng.Uniform(3)];
  plan.reorder_prob = (cfg.harsh ? kReorderHarsh : kReorder)[rng.Uniform(3)];

  plan.read_fraction = rng.UniformDouble(0.5, 0.9);
  plan.ops_per_txn = static_cast<uint32_t>(rng.UniformInt(2, 4));
  plan.rmw = rng.Bernoulli(0.5);

  const uint32_t n = plan.n_processors;

  // Every extra rng draw below is gated on its flag, so legacy campaigns
  // (flags off) keep generating byte-identical plans for existing seeds.
  if (cfg.enable_amnesia) plan.durability = cfg.amnesia_durability;
  if (cfg.reliable) plan.reliable = true;  // Stamp only; no rng draw.
  if (cfg.enable_reconfig) plan.epoch_gating = cfg.epoch_gating;  // Stamp.
  plan.recovery = cfg.recovery;  // Stamp only; no rng draw.
  if (cfg.enable_corruption) {
    plan.integrity = cfg.integrity;  // Stamp only; no rng draw.
    // Corruption only manifests through a reboot-from-device, so the plan
    // needs the amnesia fault model even without enable_amnesia.
    if (plan.durability == storage::DurabilityMode::kRetainMemory) {
      plan.durability = storage::DurabilityMode::kWal;
    }
  }
  if (cfg.weighted_placements && n >= 3 && rng.Bernoulli(0.5)) {
    // Quorum-style placements: 3..n holders per object, and half the time
    // one copy carries a double vote (the paper's a²b configurations).
    for (ObjectId obj = 0; obj < plan.n_objects; ++obj) {
      std::vector<ProcessorId> procs(n);
      for (ProcessorId p = 0; p < n; ++p) procs[p] = p;
      const uint32_t holders = static_cast<uint32_t>(rng.UniformInt(3, n));
      const bool heavy = rng.Bernoulli(0.5);
      for (uint32_t i = 0; i < holders; ++i) {
        // Partial Fisher–Yates: procs[i] becomes a fresh distinct holder.
        const uint32_t j = i + static_cast<uint32_t>(rng.Uniform(n - i));
        std::swap(procs[i], procs[j]);
        FaultPlan::CopySpec c;
        c.obj = obj;
        c.proc = procs[i];
        c.weight = heavy && i == 0 ? 2 : 1;
        plan.placement.push_back(c);
      }
    }
  }
  const uint32_t n_events =
      static_cast<uint32_t>(rng.UniformInt(cfg.min_events, cfg.max_events));
  // Epochs only move forward, so cap reconfig events well under the
  // directory's kMaxEpochs slots even if every batch commits.
  uint32_t reconfigs = 0;
  constexpr uint32_t kMaxReconfigEvents = 6;
  for (uint32_t e = 0; e < n_events; ++e) {
    // Fault window [start, end) inside the storm; the undo action fires at
    // `end` so every scripted fault is eventually lifted even before the
    // runner's final heal.
    sim::SimTime start = rng.UniformInt(0, plan.storm * 7 / 10);
    sim::Duration dur = rng.UniformInt(plan.storm / 10, plan.storm / 3);
    sim::SimTime end = std::min<sim::SimTime>(start + dur, plan.storm - 1);
    using Kind = net::FaultAction::Kind;
    net::FaultAction on, off;
    on.at = start;
    off.at = end;
    // Kind menu: slots 0-4 always; slot 5 = amnesia (enable_amnesia), slot
    // 6 = reconfig (enable_reconfig), slot 7 = corruption
    // (enable_corruption). Enabled extra slots are packed densely after 4
    // and a draw >= 5 indexes into that packed menu, so legacy draw
    // sequences (any prefix of flags off) are untouched.
    std::vector<uint32_t> extra;
    if (cfg.enable_amnesia) extra.push_back(5);
    if (cfg.enable_reconfig) extra.push_back(6);
    if (cfg.enable_corruption) extra.push_back(7);
    uint32_t kind_draw = static_cast<uint32_t>(
        rng.Uniform(5 + static_cast<uint32_t>(extra.size())));
    if (kind_draw >= 5) kind_draw = extra[kind_draw - 5];
    switch (kind_draw) {
      case 0: {  // Partition into two non-empty groups.
        if (n < 2) continue;
        std::vector<std::vector<ProcessorId>> groups(2);
        for (ProcessorId p = 0; p < n; ++p) {
          groups[rng.Uniform(2)].push_back(p);
        }
        if (groups[0].empty()) {
          groups[0].push_back(groups[1].back());
          groups[1].pop_back();
        }
        if (groups[1].empty()) {
          groups[1].push_back(groups[0].back());
          groups[0].pop_back();
        }
        on.kind = Kind::kPartition;
        on.groups = std::move(groups);
        off.kind = Kind::kHeal;
        break;
      }
      case 1: {  // Crash + recover (amnesia variant when enabled).
        on.kind = (cfg.enable_amnesia || cfg.enable_corruption) &&
                          rng.Bernoulli(0.5)
                      ? Kind::kCrashAmnesia
                      : Kind::kCrashProcessor;
        off.kind = Kind::kRecoverProcessor;
        on.a = off.a = static_cast<ProcessorId>(rng.Uniform(n));
        break;
      }
      case 5: {  // Amnesia crash + reboot (only drawn with enable_amnesia).
        on.kind = Kind::kCrashAmnesia;
        off.kind = Kind::kRecoverProcessor;
        on.a = off.a = static_cast<ProcessorId>(rng.Uniform(n));
        break;
      }
      case 6: {  // Reconfig batch (only drawn with enable_reconfig).
        if (reconfigs >= kMaxReconfigEvents) continue;
        ++reconfigs;
        on.kind = Kind::kReconfig;
        on.a = static_cast<ProcessorId>(rng.Uniform(n));  // Proposer.
        const uint32_t n_ops = static_cast<uint32_t>(rng.UniformInt(1, 2));
        for (uint32_t i = 0; i < n_ops; ++i) {
          ReconfigOp op;
          op.obj = static_cast<ObjectId>(rng.Uniform(plan.n_objects));
          op.proc = static_cast<ProcessorId>(rng.Uniform(n));
          switch (rng.Uniform(3)) {
            case 0:
              op.kind = ReconfigOp::Kind::kAddCopy;
              op.weight = static_cast<Weight>(rng.UniformInt(1, 2));
              break;
            case 1:
              op.kind = ReconfigOp::Kind::kRemoveCopy;
              break;
            default:
              op.kind = ReconfigOp::Kind::kSetWeight;
              op.weight = static_cast<Weight>(rng.UniformInt(1, 2));
              break;
          }
          on.reconfig.push_back(op);
        }
        plan.actions.push_back(std::move(on));
        continue;  // No undo: epochs only move forward.
      }
      case 7: {  // Device corruption (only drawn with enable_corruption).
        // Rot or shear bytes at rest, then amnesia-crash and recover the
        // same processor: corruption only manifests when the device is
        // next loaded, so without the reboot it would never be observed.
        // Campaign-generated WAL rot targets prepare records only — a
        // decision record is the single durable witness of a commit, so
        // rotting one models an unrecoverable device, not a recoverable
        // fault (unit tests cover detection/quarantine of that case).
        on.kind = rng.Bernoulli(0.5) ? Kind::kBitRot : Kind::kTornWrite;
        on.a = static_cast<ProcessorId>(rng.Uniform(n));
        if (rng.Bernoulli(0.5)) {
          on.corrupt_obj = static_cast<ObjectId>(rng.Uniform(plan.n_objects));
        } else {
          on.wal_index = static_cast<uint32_t>(rng.Uniform(4));
        }
        net::FaultAction crash, rec;
        crash.kind = Kind::kCrashAmnesia;
        crash.a = on.a;
        crash.at = start + (end - start) / 2;
        rec.kind = Kind::kRecoverProcessor;
        rec.a = on.a;
        rec.at = end;
        plan.actions.push_back(std::move(on));
        plan.actions.push_back(std::move(crash));
        plan.actions.push_back(std::move(rec));
        continue;  // The triple is self-contained.
      }
      case 2: {  // Symmetric link cut.
        if (n < 2) continue;
        on.kind = Kind::kLinkDown;
        off.kind = Kind::kLinkUp;
        on.a = static_cast<ProcessorId>(rng.Uniform(n));
        on.b = static_cast<ProcessorId>(rng.Uniform(n - 1));
        if (on.b >= on.a) ++on.b;
        off.a = on.a;
        off.b = on.b;
        break;
      }
      case 3: {  // Asymmetric link cut (one direction only).
        if (n < 2) continue;
        on.kind = Kind::kLinkDownOneWay;
        off.kind = Kind::kLinkUpOneWay;
        on.a = static_cast<ProcessorId>(rng.Uniform(n));
        on.b = static_cast<ProcessorId>(rng.Uniform(n - 1));
        if (on.b >= on.a) ++on.b;
        off.a = on.a;
        off.b = on.b;
        break;
      }
      default: {  // Crash/recovery churn burst; self-terminating, no undo.
        on.kind = Kind::kChurnBurst;
        on.a = static_cast<ProcessorId>(rng.Uniform(n));
        on.count = static_cast<uint32_t>(rng.UniformInt(2, 4));
        on.period = rng.UniformInt(sim::Millis(40), sim::Millis(120));
        // Keep the whole burst (count crash/recover cycles) inside the
        // storm so the post-storm grace period only has to absorb delays.
        const sim::Duration burst = (2 * on.count + 1) * on.period;
        if (on.at + burst >= plan.storm) {
          on.at = std::max<sim::SimTime>(0, plan.storm - burst - 1);
        }
        plan.actions.push_back(std::move(on));
        continue;  // No paired undo.
      }
    }
    // With corruption enabled, an amnesia crash sometimes tears its
    // in-flight persist (half-written or dropped WAL tail record). Gated
    // draws: legacy configs never reach them.
    if (cfg.enable_corruption && on.kind == Kind::kCrashAmnesia &&
        rng.Bernoulli(0.5)) {
      on.kind = Kind::kCrashAmnesiaTorn;
      on.count = rng.Bernoulli(0.5) ? 1 : 0;  // Drop vs half-write the tail.
    }
    plan.actions.push_back(std::move(on));
    plan.actions.push_back(std::move(off));
  }
  std::stable_sort(plan.actions.begin(), plan.actions.end(),
                   [](const net::FaultAction& x, const net::FaultAction& y) {
                     return x.at < y.at;
                   });
  return plan;
}

RunOutcome RunPlan(const FaultPlan& plan) { return RunPlan(plan, {}); }

RunOutcome RunPlan(const FaultPlan& plan, const RunOptions& opts) {
  harness::ClusterConfig cfg;
  cfg.n_processors = plan.n_processors;
  cfg.n_objects = plan.n_objects;
  cfg.seed = plan.seed;
  cfg.protocol = plan.protocol;
  cfg.durability = plan.durability;
  cfg.integrity = plan.integrity;
  cfg.reliable.enabled = plan.reliable;
  cfg.vp.epoch_gating = plan.epoch_gating;
  cfg.vp.recovery = plan.recovery;
  cfg.tracing = opts.tracing || !opts.trace_out.empty();
  cfg.net.drop_prob = plan.drop_prob;
  cfg.net.slow_prob = plan.slow_prob;
  cfg.net.dup_prob = plan.dup_prob;
  cfg.net.reorder_prob = plan.reorder_prob;
  if (!plan.placement.empty()) {
    for (const FaultPlan::CopySpec& c : plan.placement) {
      cfg.placement.AddCopy(c.obj, c.proc, c.weight);
    }
    cfg.has_custom_placement = true;
  }
  harness::Cluster cluster(cfg);
  const bool vp_protocol =
      plan.protocol == harness::Protocol::kVirtualPartition;
  if (vp_protocol) {
    // kReconfig actions queue a batch at the proposer; without the hook
    // (non-VP protocols) they are no-ops.
    cluster.injector().SetReconfigHook(
        [&cluster](ProcessorId p, std::vector<ReconfigOp> ops) {
          cluster.ProposeReconfig(p, std::move(ops));
        });
  }

  // Phase 1: settle. Views form under the (possibly already faulty)
  // network before any workload or scripted fault.
  cluster.RunFor(sim::Seconds(1));

  // Phase 2: storm. Clients everywhere, scripted faults offset by the
  // storm's start time.
  workload::ClientConfig wc;
  wc.read_fraction = plan.read_fraction;
  wc.ops_per_txn = plan.ops_per_txn;
  wc.rmw = plan.rmw;
  wc.think_time = sim::Millis(10);
  wc.seed = plan.seed ^ 0x10adULL;
  // Providers, not raw node pointers: an amnesia reboot replaces the node
  // object mid-run, and clients must re-resolve it per transaction.
  std::vector<workload::NodeProvider> providers;
  providers.reserve(plan.n_processors);
  for (ProcessorId p = 0; p < plan.n_processors; ++p) {
    providers.push_back([&cluster, p]() { return &cluster.node(p); });
  }
  auto clients =
      workload::MakeClients(std::move(providers), cluster.runtime_view(),
                            plan.n_objects, wc);
  for (auto& c : clients) c->Start();
  const sim::SimTime base = cluster.scheduler().Now();
  for (net::FaultAction a : plan.actions) {
    a.at += base;
    const Status s = cluster.injector().Schedule(std::move(a));
    VP_CHECK(s.ok());  // Plan times are >= 0, base is "now".
  }
  cluster.RunFor(plan.storm);
  for (auto& c : clients) c->Stop();

  // Phase 3: quiesce and heal. Background faults off first, then a grace
  // period that absorbs in-flight transactions and any churn-burst tail,
  // then full connectivity and liveness.
  net::NetworkConfig* live = cluster.network().mutable_config();
  live->drop_prob = 0.0;
  live->slow_prob = 0.0;
  live->dup_prob = 0.0;
  live->reorder_prob = 0.0;
  cluster.RunFor(sim::Seconds(1));
  cluster.graph().Heal();
  for (ProcessorId p = 0; p < plan.n_processors; ++p) {
    // Revive, not SetAlive: a processor amnesia-crashed without a matching
    // recover action still needs its reboot from stable storage.
    cluster.Revive(p);
  }

  // Phase 4: the paper's liveness window. Δ = π + 8δ (Fig. 7 analysis),
  // plus 2δ per configured probe retry and a scheduling epsilon; after it
  // every processor must sit in one common virtual partition (L1).
  const core::VpConfig& vp = cluster.config().vp;
  const sim::Duration delta_window = vp.probe_period + 8 * vp.delta +
                                     2 * vp.probe_retries * vp.delta +
                                     sim::Millis(5);
  cluster.RunFor(delta_window);
  const bool converged = !vp_protocol || cluster.VpConverged();
  // On a convergence failure, capture each node's view state for the
  // witness: which sides stalled, and on which vp ids, is the whole
  // diagnosis (only violating runs pay for this; traces are unaffected).
  std::string convergence_detail;
  if (vp_protocol && !converged) {
    for (ProcessorId p = 0; p < plan.n_processors; ++p) {
      const auto& n = static_cast<const core::VpNode&>(cluster.node(p));
      convergence_detail +=
          " p" + std::to_string(p) +
          (cluster.graph().Alive(p) ? "" : "(dead)") + ":" +
          (n.assigned() ? "" : "unassigned,") + "cur=(" +
          std::to_string(n.cur_id().n) + "," + std::to_string(n.cur_id().p) +
          ") max=(" + std::to_string(n.max_id().n) + "," +
          std::to_string(n.max_id().p) + ") epoch=" +
          std::to_string(n.epoch());
    }
  }

  // Phase 5: drain. Outcome-notification retries and recovery complete so
  // the recorded history is closed before certification.
  cluster.RunFor(sim::Seconds(2));

  RunOutcome out;
  const history::Recorder& rec = cluster.recorder();
  out.committed = rec.committed_count();
  out.aborted = rec.aborted_count();
  out.progress = out.committed > 0;
  out.duplicated = cluster.network().stats().duplicated;
  out.reordered = cluster.network().stats().reordered;
  // The registry outlives amnesia reboots (retired node objects shared it),
  // so these totals cover every incarnation.
  out.metrics = cluster.metrics().Snapshot();
  out.retransmits = out.metrics.CounterValue("rel.retransmits");
  out.delivery_timeouts = out.metrics.CounterValue("rel.timed_out");
  out.dups_suppressed = out.metrics.CounterValue("rel.dups_suppressed");
  out.reconfigs_committed = out.metrics.CounterValue("vp.reconfigs_committed");
  out.final_epoch = cluster.LatestEpoch();
  out.converged = converged;

  out.safety_ok = rec.safety_violations().empty();
  std::string safety_witness;
  if (!out.safety_ok) {
    const history::SafetyViolation& v = rec.safety_violations().front();
    safety_witness = v.rule + ": " + v.detail;
  }

  history::CertifyResult one_copy = cluster.Certify();
  if (!one_copy.ok && out.committed <= 9) {
    // Small histories get the exhaustive certifier: protocols without
    // virtual partitions may serialize in an order none of the heuristic
    // replay keys generate.
    history::CertifyResult any = cluster.CertifyAnyOrder();
    if (any.ok) one_copy = any;
  }
  out.one_copy_sr = one_copy.ok;

  history::CertifyResult conflicts = cluster.CertifyConflicts();
  out.conflict_sr = conflicts.ok;

  history::CertifyResult durable = cluster.CertifyDurableReads();
  out.durable_reads = durable.ok;

  // State-level durability: after the final heal, convergence and the R5
  // recovery drain, every physical copy must hold the value of the LAST
  // committed writer of its object. "Last" is well defined because strict
  // 2PL lock-orders write-write conflicts, and the loser of the lock race
  // decides strictly later (or, in the same tick, is recorded later) — so
  // decision order among an object's committed writers is the physical
  // order. This catches losses no committed read witnesses (e.g. a no-WAL
  // reboot discarding a committed but unapplied stage). VP protocol only:
  // quorum-family protocols never refresh stale copies, so their copies may
  // legitimately lag forever.
  std::string state_witness;
  if (vp_protocol && converged && out.safety_ok && out.one_copy_sr) {
    std::map<ObjectId, Value> expected = cluster.initial_db();
    const std::vector<history::TxnHistory> committed = rec.Committed();
    std::map<ObjectId, const history::TxnHistory*> last_writer;
    for (const history::TxnHistory& t : committed) {
      for (const history::LogicalOp& op : t.ops) {
        if (op.kind != history::LogicalOp::Kind::kWrite) continue;
        auto it = last_writer.find(op.obj);
        // Same-txn later writes overwrite earlier ones (ops are in order).
        if (it == last_writer.end() || it->second == &t ||
            history::DecidedBefore(*it->second, t)) {
          last_writer[op.obj] = &t;
          expected[op.obj] = op.value;
        }
      }
    }
    // Check against the FINAL epoch's placement: a copy reconfigured away
    // in an earlier epoch is legitimately stale, while every copy the
    // latest placement names — including ones added mid-run — must be
    // current after the recovery drain.
    const storage::CopyPlacement& placement = cluster.FinalPlacement();
    for (ObjectId obj = 0;
         obj < placement.object_count() && state_witness.empty(); ++obj) {
      for (ProcessorId p : placement.CopyHolders(obj)) {
        Result<storage::CopyVersion> copy = cluster.store(p).Read(obj);
        if (!copy.ok()) continue;
        if (copy.value().value != expected[obj]) {
          out.state_durable = false;
          state_witness = "copy of o" + std::to_string(obj) + " at p" +
                          std::to_string(p) + " holds '" +
                          copy.value().value +
                          "' but the last committed write was '" +
                          expected[obj] + "'";
          break;
        }
      }
    }
  }

  out.probe_flagged = cluster.probes().flagged();
  out.probe_first = cluster.probes().Describe();

  if (!out.safety_ok) {
    out.failure = "safety: " + safety_witness;
  } else if (!out.one_copy_sr) {
    out.failure = "one-copy-sr: " + one_copy.detail;
  } else if (!out.conflict_sr) {
    out.failure = "conflict-sr: " + conflicts.detail;
  } else if (!out.durable_reads) {
    out.failure = "durable-reads: " + durable.detail;
  } else if (!out.state_durable) {
    out.failure = "state-durability: " + state_witness;
  } else if (!out.converged) {
    out.failure = "convergence: views did not agree within pi + 8*delta of "
                  "the final heal;" +
                  convergence_detail;
  } else if (out.probe_flagged) {
    // Every post-hoc check passed but an online probe fired mid-run: either
    // the probe caught a real transient the drained history hides, or the
    // probe itself is wrong. Both demand a look, so it counts as a failure
    // — last, so a probe never masks a checker's richer witness.
    out.failure = "probe: " + out.probe_first;
  }

  // Failures (and quarantine salvages, which are suspicious even when the
  // checks pass) ship with the flight-recorder context of every node.
  if (out.violation() || out.metrics.CounterValue("storage.quarantined") > 0) {
    out.fdr = cluster.fdr().Dump();
  }
  if (!opts.fdr_out.empty()) {
    const Status fdr_write = cluster.fdr().WriteFile(opts.fdr_out);
    if (!fdr_write.ok()) {
      VP_LOG(kWarn, cluster.scheduler().Now())
          << "fdr write failed: " << fdr_write.ToString();
    }
  }

  history::TraceOptions trace_opts;
  trace_opts.timestamps = true;
  trace_opts.include_aborted = true;
  out.trace = history::FormatTransactions(rec, trace_opts) + "--- views ---\n" +
              history::FormatViewEvents(rec);
  if (!opts.trace_out.empty()) cluster.tracer().WriteFile(opts.trace_out);
  return out;
}

}  // namespace vp::nemesis
