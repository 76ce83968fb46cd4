#include "soak/schedule.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "util/check.h"

namespace gs::soak {

proto::Params default_soak_params() {
  proto::Params params;
  params.beacon_phase = sim::seconds(2);
  params.amg_stable_wait = sim::seconds(1);
  params.gsc_stable_wait = sim::seconds(3);
  params.move_window = sim::seconds(5);
  params.report_refresh = sim::seconds(3);
  params.group_lease = sim::seconds(8);
  return params;
}

namespace {

using farm::ActionKind;
using farm::ScriptAction;

// Gap between a fault and its paired recovery. The minimum comfortably
// exceeds heartbeat detection; the maximum keeps pairs inside the horizon.
constexpr sim::SimDuration kRecoverMin = sim::seconds(4);
constexpr sim::SimDuration kRecoverMax = sim::seconds(18);
constexpr sim::SimTime kForever = std::numeric_limits<sim::SimTime>::max() / 2;

enum class Family : std::uint8_t {
  kNode = 0,
  kAdapterDown,
  kAdapterRecv,
  kAdapterSend,
  kSwitch,
  kPartition,
  kMove,
};

// Equipment keys for overlap tracking: (entity class, id).
enum class Ent : std::uint8_t { kNode = 0, kAdapter, kSwitch, kVlan };
using Key = std::pair<Ent, std::uint32_t>;

class Planner {
 public:
  Planner(farm::Farm& farm, const SoakOptions& opts)
      : farm_(farm), opts_(opts), rng_(util::Rng(opts.seed).fork(0x50AC)) {
    net::Fabric& fabric = farm_.fabric();
    for (std::size_t n = 0; n < farm_.node_count(); ++n)
      for (util::AdapterId id : farm_.node_adapters(n)) {
        const util::VlanId vlan = fabric.vlan_of(id);
        vlan_nodes_[vlan].insert(static_cast<std::uint32_t>(n));
        current_vlan_[id.value()] = vlan;
      }
    for (util::VlanId vlan : farm_.vlans())
      if (fabric.adapters_in_vlan(vlan).size() >= 2)
        partitionable_.push_back(vlan);
    for (util::VlanId vlan : farm_.vlans())
      if (!administrative(vlan)) move_vlans_.push_back(vlan);
  }

  std::vector<ScriptAction> plan() {
    if (opts_.force_gsc_failover) plan_gsc_failover();

    const int weights[] = {opts_.weight_node,         opts_.weight_adapter_down,
                           opts_.weight_adapter_recv, opts_.weight_adapter_send,
                           opts_.weight_switch,       opts_.weight_partition,
                           opts_.weight_move};
    int total = 0;
    for (int w : weights) total += w;

    int planned = 0;
    // Each attempt may come up empty (all candidate equipment busy at the
    // sampled time); a bounded retry budget keeps generation total.
    for (int attempt = 0; attempt < opts_.fault_count * 6 && total > 0 &&
                          planned < opts_.fault_count;
         ++attempt) {
      int pick = static_cast<int>(rng_.below(static_cast<std::uint64_t>(total)));
      Family family = Family::kNode;
      for (std::size_t f = 0; f < std::size(weights); ++f) {
        pick -= weights[f];
        if (pick < 0) {
          family = static_cast<Family>(f);
          break;
        }
      }
      if (plan_one(family)) ++planned;
    }

    std::stable_sort(
        actions_.begin(), actions_.end(),
        [](const ScriptAction& a, const ScriptAction& b) { return a.at < b.at; });
    return actions_;
  }

 private:
  // Millisecond-aligned fault time leaving room for the longest recovery.
  sim::SimTime sample_time() {
    const sim::SimTime budget =
        (opts_.horizon - kRecoverMax - sim::kSecond) / sim::kMillisecond;
    GS_CHECK_MSG(budget > 0, "soak horizon too short for fault/recovery pairs");
    return sim::kSecond +
           static_cast<sim::SimTime>(
               rng_.below(static_cast<std::uint64_t>(budget))) *
               sim::kMillisecond;
  }

  sim::SimDuration sample_gap() {
    return rng_.range(kRecoverMin / sim::kMillisecond,
                      kRecoverMax / sim::kMillisecond) *
           sim::kMillisecond;
  }

  bool free_between(const std::vector<Key>& keys, sim::SimTime from,
                    sim::SimTime to) const {
    for (const Key& key : keys) {
      auto it = busy_.find(key);
      if (it == busy_.end()) continue;
      for (const auto& [begin, end] : it->second)
        if (from <= end && to >= begin) return false;
    }
    return true;
  }

  void occupy(const std::vector<Key>& keys, sim::SimTime from, sim::SimTime to) {
    for (const Key& key : keys) busy_[key].emplace_back(from, to);
  }

  std::vector<Key> node_keys(std::uint32_t node) const {
    std::vector<Key> keys{{Ent::kNode, node}};
    for (util::AdapterId id : farm_.node_adapters(node))
      keys.emplace_back(Ent::kAdapter, id.value());
    return keys;
  }

  std::vector<Key> adapter_keys(util::AdapterId id) const {
    // An adapter fault also conflicts with faults of its node and switch
    // (whose recovery would resurrect it out from under ours).
    const net::Adapter& adapter = farm_.fabric().adapter(id);
    return {{Ent::kAdapter, id.value()},
            {Ent::kNode, static_cast<std::uint32_t>(
                             farm_.node_of(id).value_or(~std::size_t{0}))},
            {Ent::kSwitch, adapter.attached_switch().value()}};
  }

  std::vector<Key> switch_keys(util::SwitchId sw) const {
    std::vector<Key> keys{{Ent::kSwitch, sw.value()}};
    const net::Fabric& fabric = farm_.fabric();
    for (std::size_t n = 0; n < farm_.node_count(); ++n)
      for (util::AdapterId id : farm_.node_adapters(n))
        if (fabric.adapter(id).attached_switch() == sw) {
          keys.emplace_back(Ent::kNode, static_cast<std::uint32_t>(n));
          keys.emplace_back(Ent::kAdapter, id.value());
        }
    return keys;
  }

  void add(sim::SimTime at, ActionKind kind, std::uint32_t arg,
           std::uint32_t vlan_arg = 0) {
    ScriptAction action;
    action.at = at;
    action.kind = kind;
    action.arg = arg;
    action.vlan_arg = vlan_arg;
    actions_.push_back(action);
  }

  // Moves must not touch administrative segments: an adapter moved onto
  // one would outrank the management tier and hijack a GSC election
  // (operator error, not a protocol case). In hierarchical farms every
  // domain's admin VLAN is administrative alongside the root VLAN.
  bool administrative(util::VlanId vlan) const {
    if (vlan == farm::admin_vlan()) return true;
    const int domains = farm_.spec().hier_domains;
    for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(domains); ++d)
      if (vlan == farm::domain_admin_vlan(d)) return true;
    return false;
  }

  void plan_gsc_failover() {
    std::vector<std::uint32_t> targets;
    if (farm_.spec().is_hierarchical()) {
      // Exercise failover at both levels: the root tier, and one domain's
      // management tier (forcing a new uplink epoch and a full digest).
      if (const auto root = farm_.expected_root_node())
        targets.push_back(static_cast<std::uint32_t>(*root));
      const auto domains =
          static_cast<std::uint32_t>(farm_.spec().hier_domains);
      const auto domain = static_cast<std::uint32_t>(rng_.below(domains));
      if (const auto gsc = farm_.expected_domain_gsc_node(domain))
        targets.push_back(static_cast<std::uint32_t>(*gsc));
    } else if (const auto gsc = farm_.expected_gsc_node()) {
      targets.push_back(static_cast<std::uint32_t>(*gsc));
    }
    for (const std::uint32_t node : targets) {
      // Mid-horizon so the failover and the fail-back both land inside it.
      const sim::SimTime at = rng_.range(opts_.horizon / 4 / sim::kMillisecond,
                                         opts_.horizon / 2 / sim::kMillisecond) *
                              sim::kMillisecond;
      const sim::SimTime back = at + sample_gap();
      const auto keys = node_keys(node);
      if (!free_between(keys, at, back)) continue;
      occupy(keys, at, back);
      add(at, ActionKind::kFailNode, node);
      add(back, ActionKind::kRecoverNode, node);
    }
  }

  // Permanent death must not empty any VLAN: every VLAN this node touches
  // must be populated by at least one other node (everything else recovers
  // by the horizon). Management nodes always recover so the admin AMG is
  // never left without an eligible leader.
  bool may_stay_dead(std::uint32_t node) const {
    if (permanent_used_) return false;
    const farm::NodeRole role = farm_.role(node);
    if (role == farm::NodeRole::kManagement || role == farm::NodeRole::kGeneric)
      return false;
    const net::Fabric& fabric = farm_.fabric();
    for (util::AdapterId id : farm_.node_adapters(node)) {
      auto it = vlan_nodes_.find(fabric.vlan_of(id));
      if (it == vlan_nodes_.end() || it->second.size() < 2) return false;
    }
    return true;
  }

  bool plan_one(Family family) {
    net::Fabric& fabric = farm_.fabric();
    const sim::SimTime at = sample_time();
    const sim::SimTime back = at + sample_gap();

    switch (family) {
      case Family::kNode: {
        std::vector<std::uint32_t> candidates;
        for (std::size_t n = 0; n < farm_.node_count(); ++n)
          if (free_between(node_keys(static_cast<std::uint32_t>(n)), at, back))
            candidates.push_back(static_cast<std::uint32_t>(n));
        if (candidates.empty()) return false;
        const std::uint32_t node = candidates[rng_.below(candidates.size())];
        bool permanent = may_stay_dead(node) && rng_.below(4) == 0;
        // The candidate filter only vetted [at, back]; staying dead claims
        // [at, forever), which must not swallow an already-planned later
        // fault on this equipment (its recovery would resurrect a NIC on a
        // dead node). Demote to a temporary death when that clashes.
        if (permanent && !free_between(node_keys(node), at, kForever))
          permanent = false;
        // Sometimes restart as a "blip": down for less than the peers'
        // failure-detection threshold, so the daemon's volatile state (its
        // report sequence counter above all) resets while every remote
        // record of the node survives intact — the regressed-seq path.
        sim::SimTime node_back = back;
        if (!permanent && rng_.below(3) == 0)
          node_back = at + rng_.range(200, 800) * sim::kMillisecond;
        occupy(node_keys(node), at, permanent ? kForever : node_back);
        add(at, ActionKind::kFailNode, node);
        if (permanent)
          permanent_used_ = true;
        else
          add(node_back, ActionKind::kRecoverNode, node);
        return true;
      }
      case Family::kAdapterDown:
      case Family::kAdapterRecv:
      case Family::kAdapterSend: {
        std::vector<util::AdapterId> candidates;
        for (std::size_t n = 0; n < farm_.node_count(); ++n)
          for (util::AdapterId id : farm_.node_adapters(n))
            if (free_between(adapter_keys(id), at, back))
              candidates.push_back(id);
        if (candidates.empty()) return false;
        const util::AdapterId id = candidates[rng_.below(candidates.size())];
        occupy(adapter_keys(id), at, back);
        const ActionKind kind = family == Family::kAdapterDown
                                    ? ActionKind::kFailAdapter
                                    : family == Family::kAdapterRecv
                                          ? ActionKind::kFailAdapterRecv
                                          : ActionKind::kFailAdapterSend;
        add(at, kind, id.value());
        add(back, ActionKind::kRecoverAdapter, id.value());
        return true;
      }
      case Family::kSwitch: {
        std::vector<util::SwitchId> candidates;
        for (std::size_t s = 0; s < fabric.switch_count(); ++s) {
          const util::SwitchId sw(static_cast<std::uint32_t>(s));
          if (free_between(switch_keys(sw), at, back)) candidates.push_back(sw);
        }
        if (candidates.empty()) return false;
        const util::SwitchId sw = candidates[rng_.below(candidates.size())];
        occupy(switch_keys(sw), at, back);
        add(at, ActionKind::kFailSwitch, sw.value());
        add(back, ActionKind::kRecoverSwitch, sw.value());
        return true;
      }
      case Family::kPartition: {
        std::vector<util::VlanId> candidates;
        for (util::VlanId vlan : partitionable_)
          if (free_between({{Ent::kVlan, vlan.value()}}, at, back))
            candidates.push_back(vlan);
        if (candidates.empty()) return false;
        const util::VlanId vlan = candidates[rng_.below(candidates.size())];
        occupy({{Ent::kVlan, vlan.value()}}, at, back);
        add(at, ActionKind::kPartitionVlan, vlan.value());
        add(back, ActionKind::kHealVlan, vlan.value());
        return true;
      }
      case Family::kMove: {
        if (move_vlans_.size() < 2) return false;
        std::vector<util::AdapterId> candidates;
        for (const auto& [raw, vlan] : current_vlan_) {
          if (administrative(vlan)) continue;
          const util::AdapterId id(raw);
          if (free_between(adapter_keys(id), at, back)) candidates.push_back(id);
        }
        if (candidates.empty()) return false;
        const util::AdapterId id = candidates[rng_.below(candidates.size())];
        const util::VlanId from = current_vlan_.at(id.value());
        std::vector<util::VlanId> targets;
        for (util::VlanId vlan : move_vlans_)
          if (vlan != from) targets.push_back(vlan);
        if (targets.empty()) return false;
        const util::VlanId target = targets[rng_.below(targets.size())];
        // The move itself is instantaneous; hold the adapter through the
        // move window so its inference is not racing a second fault.
        occupy(adapter_keys(id), at, at + opts_.params.move_window);
        current_vlan_[id.value()] = target;
        add(at, ActionKind::kMoveAdapter, id.value(), target.value());
        return true;
      }
    }
    return false;
  }

  farm::Farm& farm_;
  const SoakOptions& opts_;
  util::Rng rng_;

  std::map<util::VlanId, std::set<std::uint32_t>> vlan_nodes_;
  std::map<std::uint32_t, util::VlanId> current_vlan_;  // tracks planned moves
  std::vector<util::VlanId> partitionable_;
  std::vector<util::VlanId> move_vlans_;
  std::map<Key, std::vector<std::pair<sim::SimTime, sim::SimTime>>> busy_;
  bool permanent_used_ = false;
  std::vector<ScriptAction> actions_;
};

}  // namespace

std::vector<farm::ScriptAction> generate_schedule(farm::Farm& farm,
                                                  const SoakOptions& opts) {
  return Planner(farm, opts).plan();
}

}  // namespace gs::soak
