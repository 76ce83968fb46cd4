#include "farm/sharded.h"

#include <algorithm>
#include <limits>
#include <set>

#include "net/payload.h"
#include "util/check.h"

namespace gs::farm {

ShardedFarm::ShardedFarm(const FarmSpec& spec, const proto::Params& params,
                         std::uint64_t seed, std::size_t shards,
                         sim::SimDuration epoch) {
  GS_CHECK_MSG(shards >= 1, "a sharded farm needs at least one shard");
  sims_.reserve(shards);
  farms_.reserve(shards);
  traces_.resize(shards);
  // Every shard is built from the SAME spec and seed: the farm's builder RNG
  // and per-VLAN fabric forks depend only on those, so ids, IPs, and channel
  // streams agree across shards by construction (see Farm's ShardView docs).
  for (std::size_t s = 0; s < shards; ++s) {
    sims_.push_back(std::make_unique<sim::Simulator>());
    farms_.push_back(std::make_unique<Farm>(
        *sims_[s], spec, params, seed,
        ShardView{s, shards, shards > 1 ? &router_ : nullptr}));
  }
  if (epoch == 0) {
    epoch = router_.max_safe_epoch();
    if (epoch == std::numeric_limits<sim::SimDuration>::max())
      epoch = sim::milliseconds(1);  // nothing spans shards: any window works
  }
  std::vector<sim::Simulator*> raw;
  raw.reserve(shards);
  for (const auto& s : sims_) raw.push_back(s.get());
  set_ = std::make_unique<sim::ShardSet>(raw, epoch);
  if (shards > 1) router_.finalize(*set_);
}

ShardedFarm::~ShardedFarm() { shutdown(); }

void ShardedFarm::enable_trace_capture() {
  if (!taps_.empty()) return;
  taps_.reserve(farms_.size());
  for (std::size_t s = 0; s < farms_.size(); ++s) {
    taps_.push_back(farms_[s]->trace_bus().subscribe(
        [this, s](const obs::TraceRecord& r) { traces_[s].push_back(r); }));
  }
}

void ShardedFarm::start() {
  // Runs on the caller's thread while the shard workers are parked at the
  // ShardSet barrier; the next barrier crossing publishes these queues to
  // their workers. Any frame sent synchronously during boot gets an unowned
  // payload so the worker can release it after delivery (see fail_node).
  net::Payload::UnownedCreationScope unowned;
  for (const auto& farm : farms_) farm->start();
}

std::size_t ShardedFarm::run_until(sim::SimTime deadline) {
  GS_CHECK_MSG(!down_, "run_until after shutdown");
  return set_->run_until(deadline);
}

void ShardedFarm::fail_node(std::size_t node_index) {
  // Runs on the caller's thread while the workers are parked at the barrier
  // (so no data race), but payload thread-ownership needs both directions
  // covered: cancelling the node's timers releases worker-owned payloads
  // here (ForeignReleaseScope — delete, don't poison this thread's pool),
  // and any frame the protocol sends synchronously (halt/restart beacons)
  // is created HERE but released on the worker after delivery, so it must
  // be born unowned (UnownedCreationScope).
  net::Payload::ForeignReleaseScope foreign;
  net::Payload::UnownedCreationScope unowned;
  farms_[shard_of_node(node_index)]->fail_node(node_index);
}

void ShardedFarm::recover_node(std::size_t node_index) {
  net::Payload::ForeignReleaseScope foreign;  // see fail_node
  net::Payload::UnownedCreationScope unowned;
  farms_[shard_of_node(node_index)]->recover_node(node_index);
}

bool ShardedFarm::converged() {
  // The per-shard Farm::converged() only sees its local slice of a VLAN;
  // here we rebuild the GLOBAL ground truth per VLAN — union of every
  // shard's healthy wired adapters — and hold each member's committed state
  // to it, exactly as Farm::converged(vlan) does unsharded.
  std::set<util::VlanId> vlans;
  for (const auto& farm : farms_)
    for (util::VlanId vlan : farm->vlans()) vlans.insert(vlan);

  for (util::VlanId vlan : vlans) {
    std::vector<std::pair<Farm*, util::AdapterId>> healthy;
    std::set<util::IpAddress> expected_ips;
    util::IpAddress expected_leader;
    for (const auto& farm : farms_) {
      for (util::AdapterId id : farm->healthy_adapters_in_vlan(vlan)) {
        const util::IpAddress ip = farm->fabric().adapter(id).ip();
        expected_ips.insert(ip);
        expected_leader = std::max(expected_leader, ip);
        healthy.push_back({farm.get(), id});
      }
    }
    if (healthy.empty()) continue;

    std::optional<std::uint64_t> view;
    for (const auto& [farm, id] : healthy) {
      proto::AdapterProtocol* proto = farm->protocol_for(id);
      if (proto == nullptr || !proto->is_committed()) return false;
      if (proto->leader_ip() != expected_leader) return false;
      std::set<util::IpAddress> ips;
      for (const proto::MemberInfo& m : proto->committed().members())
        ips.insert(m.ip);
      if (ips != expected_ips) return false;
      if (!view) view = proto->committed().view();
      if (*view != proto->committed().view()) return false;
    }
  }
  return true;
}

std::vector<obs::ShardTraceRecord> ShardedFarm::merged_trace() const {
  return obs::merge_shard_traces(traces_);
}

void ShardedFarm::enable_span_tracking() {
  enable_trace_capture();  // the taps subscribe to every kind, so each
                           // shard's emitters actually publish the edges
  span_tracking_ = true;
}

obs::SpanTracker& ShardedFarm::span_tracker() {
  GS_CHECK_MSG(span_tracking_, "enable_span_tracking was never called");
  span_bus_ = std::make_unique<obs::TraceBus>();
  spans_ = std::make_unique<obs::SpanTracker>(*span_bus_);
  for (const obs::ShardTraceRecord& r : merged_trace())
    span_bus_->publish(r.record);
  return *spans_;
}

void ShardedFarm::enable_health_sampling(sim::SimDuration period) {
  // Caller's thread, workers parked at the barrier (the start()/fail_node
  // contract): arming each shard's sampler timer here is race-free, and the
  // sampler's provider then only ever runs from that shard's own sim.
  for (const auto& farm : farms_) farm->enable_health_sampling(period);
}

std::uint64_t ShardedFarm::trace_digest() const {
  return obs::shard_trace_digest(merged_trace());
}

void ShardedFarm::shutdown() {
  if (down_) return;
  down_ = true;
  // Pending events, parked frames and the daemons' parked receptions own
  // payloads that must die on the thread whose pool they came from — drop
  // them on each shard's own worker before those workers exit.
  set_->for_each_shard([this](std::size_t s) {
    sims_[s]->drop_pending();
    Farm& farm = *farms_[s];
    farm.fabric().drop_in_flight();
    for (std::size_t n = 0; n < farm.node_count(); ++n)
      if (farm.is_local(n)) farm.daemon(n).drop_in_flight();
  });
  set_->shutdown();
}

std::size_t run_sharded(const FarmSpec& spec, const proto::Params& params,
                        std::uint64_t seed, std::size_t n_shards,
                        sim::SimTime deadline) {
  ShardedFarm farm(spec, params, seed, n_shards);
  farm.start();
  const std::size_t events = farm.run_until(deadline);
  farm.shutdown();
  return events;
}

}  // namespace gs::farm
