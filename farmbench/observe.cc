#include "observe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "gs/central.h"
#include "gs/central_hier.h"
#include "gs/daemon.h"
#include "gs/messages.h"
#include "sim/simulator.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace farmbench {

namespace obs = gs::obs;
namespace proto = gs::proto;
namespace sim = gs::sim;
using obs::TraceKind;

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double tail_percentile(std::size_t samples) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 95.0,
                                       90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 0.0;
}

namespace {

double seconds_between(sim::SimTime from, sim::SimTime to) {
  return sim::to_seconds(to - from);
}

// Median of the hop `to - from` over records where both ends are set.
template <typename T, typename From, typename To>
double median_hop(const std::vector<T>& items, From from, To to) {
  std::vector<double> hops;
  for (const T& item : items) {
    const sim::SimTime a = from(item);
    const sim::SimTime b = to(item);
    if (a >= 0 && b >= a) hops.push_back(seconds_between(a, b));
  }
  return median(std::move(hops));
}

}  // namespace

void mix_digest(std::uint64_t& digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xffu;
    digest *= 1099511628211ull;
  }
}

void fold_digest(std::uint64_t& digest, const obs::TraceRecord& record) {
  mix_digest(digest, static_cast<std::uint64_t>(record.kind));
  mix_digest(digest, static_cast<std::uint64_t>(record.time));
  mix_digest(digest, record.source.bits());
  mix_digest(digest, record.peer.bits());
  mix_digest(digest, record.node.value());
  mix_digest(digest, record.vlan.value());
  mix_digest(digest, record.a);
  mix_digest(digest, record.b);
  for (const char c : record.detail)
    mix_digest(digest, static_cast<unsigned char>(c));
}

void add_counter_totals(gs::farm::Farm& farm, Counts& into) {
  gs::net::Fabric& fabric = farm.fabric();
  into["net.frames_sent"] += fabric.total_frames_sent();
  into["net.bytes_sent"] += fabric.total_bytes_sent();
  for (const gs::util::VlanId vlan : farm.vlans()) {
    const gs::net::SegmentLoad& load = fabric.load(vlan);
    into["net.deliveries"] += load.frames_delivered;
    into["net.frames_lost"] += load.frames_lost;
  }
  for (std::size_t i = 0; i < farm.node_count(); ++i) {
    if (!farm.is_local(i)) continue;
    proto::GsDaemon& daemon = farm.daemon(i);
    into["report.sent"] += daemon.reports_sent();
    const proto::WireStats& wire = daemon.wire_stats();
    for (std::size_t t = 1; t < proto::WireStats::kTypeSlots; ++t) {
      const auto name =
          proto::to_string(static_cast<proto::MsgType>(t));
      into["wire.decoded." + std::string(name)] += wire.decoded[t];
    }
    for (std::size_t d = 0; d < proto::WireStats::kDropSlots; ++d) {
      const auto name =
          proto::to_string(static_cast<proto::WireStats::Drop>(d));
      into["wire.dropped." + std::string(name)] += wire.dropped[d];
    }
    for (std::size_t k = 0; k < daemon.adapter_count(); ++k) {
      const proto::ProtocolStats& s = daemon.protocol(k).stats();
      into["gs.beacons_sent"] += s.beacons_sent;
      into["gs.views_installed"] += s.commits;
      into["gs.fd.suspicions"] += s.suspicions_raised;
      into["gs.fd.probes"] += s.probes_sent;
      into["gs.fd.refuted"] += s.probes_refuted;
      into["gs.deaths_declared"] += s.deaths_declared;
      into["gs.takeovers"] += s.takeovers;
      into["gs.resets"] += s.resets;
      into["gs.joins_requested"] += s.joins_requested;
    }
    if (proto::DomainUplink* uplink = farm.uplink_of(i)) {
      into["domain_report.sent"] += uplink->reports_sent();
    }
  }
}

// --- TraceTally --------------------------------------------------------------

void TraceTally::on(const obs::TraceRecord& r) {
  ++counts_[static_cast<std::size_t>(r.kind)];
  fold_digest(digest_, r);
  const sim::SimTime t = r.time;
  switch (r.kind) {
    case TraceKind::kBeaconSent: {
      BootMarks& a = adapters_[r.source];
      if (a.first_beacon < 0) a.first_beacon = t;
      break;
    }
    case TraceKind::kElectionDeferred: {
      BootMarks& a = adapters_[r.source];
      if (a.decided < 0) a.decided = t;
      break;
    }
    case TraceKind::kElectionWon: {
      BootMarks& a = adapters_[r.source];
      if (a.decided < 0) a.decided = t;
      if (a.won < 0) a.won = t;
      break;
    }
    case TraceKind::kTwoPcPrepare:
      if (first_prepare_ < 0) first_prepare_ = t;
      break;
    case TraceKind::kTwoPcCommit: {
      BootMarks& a = adapters_[r.source];
      if (a.won >= 0 && a.commit < 0) a.commit = t;
      break;
    }
    case TraceKind::kReportSent: {
      BootMarks& a = adapters_[r.source];
      if (a.commit >= 0 && a.report < 0) a.report = t;
      for (auto& [ip, chain] : open_chains_) {
        if (chain.death >= 0 && chain.report < 0 && chain.declarer == r.source)
          chain.report = t;
      }
      break;
    }
    case TraceKind::kGscReportApplied:
      applied_.push_back(t);
      break;
    case TraceKind::kVerifyDecision:
      verify_inconsistencies_ += r.a;
      break;
    case TraceKind::kFaultInjected:
      open_chains_[r.source] = Chain{};
      open_chains_[r.source].fault = t;
      break;
    case TraceKind::kFaultCleared:
      open_chains_.erase(r.source);
      break;
    case TraceKind::kHeartbeatMiss: {
      auto it = open_chains_.find(r.peer);
      if (it != open_chains_.end() && it->second.miss < 0) it->second.miss = t;
      break;
    }
    case TraceKind::kSuspicionRaised: {
      auto it = open_chains_.find(r.peer);
      if (it != open_chains_.end() && it->second.suspect < 0)
        it->second.suspect = t;
      break;
    }
    case TraceKind::kDeathDeclared:
    case TraceKind::kTakeover: {
      auto it = open_chains_.find(r.peer);
      if (it != open_chains_.end() && it->second.death < 0) {
        it->second.death = t;
        it->second.declarer = r.source;
      }
      break;
    }
    case TraceKind::kFailureCommitted: {
      auto it = open_chains_.find(r.peer);
      if (it != open_chains_.end()) {
        it->second.commit = t;
        done_chains_.push_back(it->second);
        open_chains_.erase(it);
      }
      break;
    }
    default:
      break;
  }
}

void TraceTally::layer_metrics(Metrics& out) const {
  auto c = [this](TraceKind k) { return static_cast<double>(count(k)); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  out["gs.elections"] = c(TraceKind::kElectionWon);
  out["gs.twopc.prepares"] = c(TraceKind::kTwoPcPrepare);
  out["gs.twopc.commits"] = c(TraceKind::kTwoPcCommit);
  out["gs.twopc.aborts"] = c(TraceKind::kTwoPcAbort);
  out["gs.twopc.commit_ratio"] =
      ratio(c(TraceKind::kTwoPcCommit), c(TraceKind::kTwoPcPrepare));
  out["gs.views_installed"] = c(TraceKind::kViewInstalled);
  out["gs.fd.misses"] = c(TraceKind::kHeartbeatMiss);
  out["gs.fd.suspicions"] = c(TraceKind::kSuspicionRaised);
  out["gs.fd.probes"] = c(TraceKind::kProbeSent);
  // Leader verifications that found the suspect alive, over all verdicts.
  out["gs.fd.false_suspicion_ratio"] =
      ratio(c(TraceKind::kProbeRefuted),
            c(TraceKind::kProbeRefuted) + c(TraceKind::kDeathDeclared));

  out["report.sent"] = c(TraceKind::kReportSent);
  out["report.retries"] = c(TraceKind::kReportRetry);
  out["report.need_full"] = c(TraceKind::kReportNeedFull);
  out["report.dups"] = c(TraceKind::kGscReportDup);
  out["report.applied_ratio"] =
      ratio(c(TraceKind::kGscReportApplied), c(TraceKind::kReportSent));
  out["domain_report.sent"] = c(TraceKind::kDomainReportSent);
  out["domain_report.retries"] = c(TraceKind::kDomainReportRetry);
  out["domain_report.need_full"] = c(TraceKind::kDomainReportNeedFull);
  out["domain_report.dups"] = c(TraceKind::kRootReportDup);
  out["domain_report.applied_ratio"] =
      ratio(c(TraceKind::kRootReportApplied), c(TraceKind::kDomainReportSent));

  out["central.applied"] = c(TraceKind::kGscReportApplied);
  out["central.failures_held"] = c(TraceKind::kFailureHeld);
  out["central.failures_committed"] = c(TraceKind::kFailureCommitted);
  out["central.verify_inconsistencies"] =
      static_cast<double>(verify_inconsistencies_);
  out["root.applied"] = c(TraceKind::kRootReportApplied);
  out["root.need_fulls"] = c(TraceKind::kDomainReportNeedFull);
}

std::vector<sim::SimTime> TraceTally::boot_boundaries(
    sim::SimTime stable) const {
  sim::SimTime election = -1, report = -1, applied = -1;
  auto first = [](sim::SimTime& slot, sim::SimTime t) {
    if (t >= 0 && (slot < 0 || t < slot)) slot = t;
  };
  for (const auto& [ip, a] : adapters_) {
    first(election, a.won);
    first(report, a.report);
  }
  for (const sim::SimTime t : applied_) {
    if (t <= stable && t > applied) applied = t;
  }
  return {election, first_prepare_, report, applied, stable};
}

void TraceTally::boot_hops(sim::SimTime stable, Metrics& out) const {
  std::vector<BootMarks> all;
  std::vector<BootMarks> leaders;
  for (const auto& [ip, a] : adapters_) {
    all.push_back(a);
    if (a.won >= 0) leaders.push_back(a);
  }
  out["gs.hop.beacon_phase_s"] = median_hop(
      all, [](const BootMarks& a) { return a.first_beacon; },
      [](const BootMarks& a) { return a.decided; });
  out["gs.hop.election_to_commit_s"] = median_hop(
      leaders, [](const BootMarks& a) { return a.won; },
      [](const BootMarks& a) { return a.commit; });
  out["gs.hop.commit_to_report_s"] = median_hop(
      leaders, [](const BootMarks& a) { return a.commit; },
      [](const BootMarks& a) { return a.report; });
  out["gs.hop.report_to_stable_s"] = median_hop(
      leaders, [](const BootMarks& a) { return a.report; },
      [stable](const BootMarks&) { return stable; });
}

void TraceTally::detection_hops(Metrics& out) const {
  const auto& c = done_chains_;
  out["gs.hop.fault_to_miss_s"] = median_hop(
      c, [](const Chain& x) { return x.fault; },
      [](const Chain& x) { return x.miss; });
  out["gs.hop.miss_to_suspect_s"] = median_hop(
      c, [](const Chain& x) { return x.miss; },
      [](const Chain& x) { return x.suspect; });
  out["gs.hop.suspect_to_death_s"] = median_hop(
      c, [](const Chain& x) { return x.suspect; },
      [](const Chain& x) { return x.death; });
  out["gs.hop.death_to_report_s"] = median_hop(
      c, [](const Chain& x) { return x.death; },
      [](const Chain& x) { return x.report; });
  out["gs.hop.report_to_commit_s"] = median_hop(
      c, [](const Chain& x) { return x.report; },
      [](const Chain& x) { return x.commit; });
  out["gs.hop.chains"] = static_cast<double>(c.size());
}

// --- Codec replay ------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

// Median ns per call of fn over a few calibrated batches.
template <typename Fn>
double time_ns(Fn&& fn) {
  for (int i = 0; i < 8; ++i) fn();  // warm caches and scratch buffers
  auto t0 = Clock::now();
  std::size_t calibrate = 0;
  while (Clock::now() - t0 < std::chrono::milliseconds(2)) {
    fn();
    ++calibrate;
  }
  const std::size_t batch = std::max<std::size_t>(calibrate, 1);
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    per_call.push_back(ns / static_cast<double>(batch));
  }
  return median(std::move(per_call));
}

// encode -> frame -> verify -> typed decode, the path every frame takes.
template <typename T>
double round_trip_ns(const T& msg) {
  gs::wire::Writer writer;
  std::optional<T> decoded;
  bool ok = true;
  const double ns = time_ns([&] {
    const auto frame = proto::build_frame(writer, msg);
    const gs::wire::DecodeResult r = gs::wire::decode_frame(frame);
    T out;
    ok = ok && r.ok() && proto::decode_typed(r.frame.payload, &out);
  });
  return ok ? ns : -1.0;
}

const proto::MembershipView* largest_view(gs::farm::Farm& farm) {
  const proto::MembershipView* best = nullptr;
  for (std::size_t i = 0; i < farm.node_count(); ++i) {
    if (!farm.is_local(i)) continue;
    proto::GsDaemon& daemon = farm.daemon(i);
    for (std::size_t k = 0; k < daemon.adapter_count(); ++k) {
      const proto::AdapterProtocol& p = daemon.protocol(k);
      if (!p.is_leader() || !p.is_committed()) continue;
      if (best == nullptr || p.committed().size() > best->size())
        best = &p.committed();
    }
  }
  return best;
}

// The adapter table a DomainReport digest would carry: the largest
// domain's, or the flat Central's.
std::vector<proto::Central::AdapterStatus> domain_table(gs::farm::Farm& farm) {
  std::vector<proto::Central::AdapterStatus> best;
  for (int d = 0; d < farm.spec().hier_domains; ++d) {
    if (proto::Central* c =
            farm.active_domain_central(static_cast<std::uint32_t>(d))) {
      auto table = c->adapter_table();
      if (table.size() > best.size()) best = std::move(table);
    }
  }
  if (best.empty()) {
    if (proto::Central* c = farm.active_central()) best = c->adapter_table();
  }
  return best;
}

}  // namespace

void replay_codec(gs::farm::Farm& farm,
                  const std::map<std::uint16_t, std::uint64_t>& frames_by_type,
                  Metrics& out) {
  const proto::MembershipView* view = largest_view(farm);
  if (view == nullptr) return;
  const std::vector<proto::MemberInfo>& members = view->members();
  const proto::MemberInfo& leader = members.front();

  auto seen = [&frames_by_type](proto::MsgType t) {
    auto it = frames_by_type.find(static_cast<std::uint16_t>(t));
    return it != frames_by_type.end() && it->second > 0;
  };
  auto put = [&](proto::MsgType t, double ns) {
    if (seen(t)) out["wire.replay_ns." + std::string(proto::to_string(t))] = ns;
  };

  put(proto::MsgType::kBeacon,
      round_trip_ns(proto::Beacon{leader, true, view->view(),
                                  static_cast<std::uint32_t>(members.size())}));
  put(proto::MsgType::kJoinRequest,
      round_trip_ns(proto::JoinRequest{view->view(), members}));
  put(proto::MsgType::kPrepare,
      round_trip_ns(proto::Prepare{view->view(), leader.ip, members}));
  put(proto::MsgType::kCommit,
      round_trip_ns(proto::Commit{view->view(), members}));
  put(proto::MsgType::kHeartbeat,
      round_trip_ns(proto::Heartbeat{view->view(), 12345}));
  proto::MembershipReport report;
  report.seq = 1;
  report.view = view->view();
  report.full = true;
  report.leader = leader;
  report.added = members;
  put(proto::MsgType::kMembershipReport, round_trip_ns(report));

  if (seen(proto::MsgType::kDomainReport)) {
    proto::DomainReport digest;
    digest.seq = 1;
    digest.epoch = 1;
    digest.full = true;
    digest.sender = leader.ip;
    for (const auto& row : domain_table(farm)) {
      digest.entries.push_back(
          proto::DomainAdapterEntry{row.info, row.alive, row.group_leader,
                                    row.view});
    }
    put(proto::MsgType::kDomainReport, round_trip_ns(digest));
  }
}

double replay_central_ingest(gs::farm::Farm& farm) {
  std::vector<proto::MembershipReport> reports;
  for (std::size_t i = 0; i < farm.node_count(); ++i) {
    if (!farm.is_local(i)) continue;
    proto::GsDaemon& daemon = farm.daemon(i);
    for (std::size_t k = 0; k < daemon.adapter_count(); ++k) {
      const proto::AdapterProtocol& p = daemon.protocol(k);
      if (!p.is_leader() || !p.is_committed()) continue;
      proto::MembershipReport r;
      r.seq = 1;
      r.view = p.committed().view();
      r.full = true;
      r.leader = p.self();
      r.added = p.committed().members();
      reports.push_back(std::move(r));
    }
  }
  if (reports.empty()) return 0.0;
  std::vector<double> per_report;
  for (int rep = 0; rep < 5; ++rep) {
    sim::Simulator clock;
    gs::config::ConfigDb db = farm.db();
    proto::Params params = farm.params();
    params.trace = nullptr;  // the replay must not feed the farm's bus
    proto::Central central(clock, params, &db, nullptr);
    central.activate(gs::util::IpAddress(10, 255, 255, 254));
    const auto ack = [](const proto::ReportAck&) {};
    const auto start = Clock::now();
    for (const auto& r : reports) central.handle_report(r.leader.ip, r, ack);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    per_report.push_back(ns / static_cast<double>(reports.size()));
  }
  return median(std::move(per_report));
}

}  // namespace farmbench
