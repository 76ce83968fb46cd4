#include "gs/daemon.h"

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "wire/frame.h"

namespace gs::proto {

std::string_view to_string(WireStats::Drop reason) {
  switch (reason) {
    case WireStats::Drop::kTooShort: return "too-short";
    case WireStats::Drop::kBadMagic: return "bad-magic";
    case WireStats::Drop::kBadVersion: return "bad-version";
    case WireStats::Drop::kLengthMismatch: return "length-mismatch";
    case WireStats::Drop::kBadChecksum: return "bad-checksum";
    case WireStats::Drop::kDecode: return "decode";
    case WireStats::Drop::kUnknownType: return "unknown-type";
    case WireStats::Drop::kCount_: break;
  }
  return "?";
}

namespace {

WireStats::Drop drop_reason(wire::FrameError error) {
  switch (error) {
    case wire::FrameError::kTooShort: return WireStats::Drop::kTooShort;
    case wire::FrameError::kBadMagic: return WireStats::Drop::kBadMagic;
    case wire::FrameError::kBadVersion: return WireStats::Drop::kBadVersion;
    case wire::FrameError::kLengthMismatch:
      return WireStats::Drop::kLengthMismatch;
    case wire::FrameError::kBadChecksum: return WireStats::Drop::kBadChecksum;
    case wire::FrameError::kNone: break;
  }
  return WireStats::Drop::kTooShort;
}

}  // namespace

GsDaemon::GsDaemon(Options opts)
    : sim_(*opts.clock),
      transport_(*opts.transport),
      params_(*opts.params),
      config_(std::move(opts.node)),
      rng_(opts.rng),
      central_(opts.central),
      root_central_(opts.root_central),
      uplink_index_(opts.uplink_adapter_index) {
  GS_CHECK_MSG(opts.clock != nullptr && opts.transport != nullptr &&
                   opts.params != nullptr,
               "GsDaemon::Options requires clock, transport, and params");
  const std::size_t ports = transport_.port_count();
  GS_CHECK(ports > 0);
  GS_CHECK(config_.admin_adapter_index < ports);
  senders_.resize(ports);

  for (std::size_t i = 0; i < ports; ++i) {
    GS_CHECK_MSG(!transport_.local_ip(i).is_unspecified(),
                 "assign adapter IPs before constructing the daemon");

    MemberInfo self;
    self.ip = transport_.local_ip(i);
    self.mac = transport_.local_mac(i);
    self.node = config_.node;
    // §2.2: beacons on the administrative adapter of an eligible node carry
    // the central-eligibility flag.
    self.central_eligible =
        config_.central_eligible && i == config_.admin_adapter_index;

    AdapterProtocol::NetIface net;
    net.unicast = [this, i](util::IpAddress to, net::Payload frame) {
      return transport_.unicast(i, to, std::move(frame));
    };
    net.beacon_multicast = [this, i](net::Payload frame) {
      return transport_.multicast(i, net::kBeaconGroup, std::move(frame));
    };
    net.loopback_ok = [this, i] { return transport_.loopback_ok(i); };

    AdapterProtocol::Hooks hooks;
    hooks.on_report_pending = [this, i] { report_pending(i); };
    hooks.on_leadership_reset = [this, i] { senders_[i].mark_full(); };
    hooks.on_reset = [this, i] {
      senders_[i].drop();
      if (i == config_.admin_adapter_index) {
        last_gsc_ = util::IpAddress();
        if (central_ != nullptr) central_->deactivate();
      }
      if (uplink_index_ && i == *uplink_index_) last_root_ = util::IpAddress();
    };
    if (i == config_.admin_adapter_index) {
      hooks.on_committed = [this](const MembershipView& view) {
        on_admin_committed(view);
      };
    } else if (uplink_index_ && i == *uplink_index_) {
      hooks.on_committed = [this](const MembershipView& view) {
        on_uplink_committed(view);
      };
    }

    protocols_.push_back(std::make_unique<AdapterProtocol>(
        sim_, params_, self, std::move(net), std::move(hooks),
        rng_.fork(0xAD0 + i)));
  }
}

GsDaemon::~GsDaemon() {
  start_timer_.cancel();
  for (InFlight& parked : in_flight_) parked.timer.cancel();
  report_retry_timer_.cancel();
  report_refresh_timer_.cancel();
  if (started_) {
    for (std::size_t i = 0; i < protocols_.size(); ++i)
      transport_.set_receive_handler(i, nullptr);
  }
}

AdapterProtocol& GsDaemon::protocol(std::size_t index) {
  GS_CHECK(index < protocols_.size());
  return *protocols_[index];
}

const AdapterProtocol& GsDaemon::protocol(std::size_t index) const {
  GS_CHECK(index < protocols_.size());
  return *protocols_[index];
}

util::IpAddress GsDaemon::leader_of(std::size_t index) const {
  const AdapterProtocol& proto = *protocols_[index];
  return proto.is_committed() ? proto.leader_ip() : util::IpAddress();
}

void GsDaemon::start() {
  GS_CHECK(!started_);
  started_ = true;
  const sim::SimDuration skew =
      params_.start_skew_max > 0 ? rng_.range(0, params_.start_skew_max) : 0;
  start_timer_ = sim_.after(skew, [this] { begin_receiving(); });
}

void GsDaemon::begin_receiving() {
  for (std::size_t i = 0; i < protocols_.size(); ++i) {
    transport_.set_receive_handler(
        i, [this, i](const net::Datagram& dgram) { on_datagram(i, dgram); });
    if (!halted_) protocols_[i]->start();
  }
  if (!halted_) arm_report_refresh();
}

void GsDaemon::halt() {
  GS_CHECK_MSG(started_, "halt before start");
  if (halted_) return;
  halted_ = true;
  if (central_ != nullptr) central_->deactivate();
  if (root_central_ != nullptr) root_central_->deactivate();
  if (uplink_ != nullptr) uplink_->halt();
  for (auto& proto : protocols_) proto->shutdown();
  // The report counters die with the daemon process: after a restart each
  // adapter numbers its reports from scratch (the GSC recognizes the fresh
  // instance by the full snapshot, not by the counter).
  for (auto& sender : senders_) sender.restart();
  report_retry_timer_.cancel();
  report_refresh_timer_.cancel();
  last_gsc_ = util::IpAddress();
  last_root_ = util::IpAddress();
}

void GsDaemon::resume() {
  if (!halted_) return;
  halted_ = false;
  if (uplink_ != nullptr) uplink_->resume();
  for (auto& proto : protocols_) proto->restart();
  arm_report_refresh();
}

void GsDaemon::on_datagram(std::size_t index, const net::Datagram& dgram) {
  if (halted_) return;
  // Model of per-message handling latency (thread scheduling, §4.1).
  sim::SimDuration delay = 0;
  if (params_.proc_delay_mean > 0) {
    delay = static_cast<sim::SimDuration>(
        rng_.exponential(static_cast<double>(params_.proc_delay_mean)));
  }
  std::uint32_t slot;
  if (in_flight_free_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = in_flight_free_.back();
    in_flight_free_.pop_back();
  }
  InFlight& parked = in_flight_[slot];
  parked.dgram = dgram;
  parked.index = index;
  parked.timer = sim_.after(delay, [this, slot] { deliver_parked(slot); });
}

void GsDaemon::deliver_parked(std::uint32_t slot) {
  // Unpark before dispatching: handlers may re-enter on_datagram (a local
  // send delivered synchronously) and grow or reuse the slab.
  InFlight& parked = in_flight_[slot];
  const net::Datagram dgram = std::move(parked.dgram);
  const std::size_t index = parked.index;
  // The event is firing: leave the slot's handle inert without a cancel
  // round-trip (a Timer's destructor never cancels).
  sim::Timer(std::move(parked.timer));
  in_flight_free_.push_back(slot);
  dispatch(index, dgram);
}

void GsDaemon::drop_in_flight() {
  for (InFlight& parked : in_flight_) parked.timer.cancel();
  in_flight_.clear();
  in_flight_free_.clear();
  for (auto& sender : senders_) sender.drop();
  if (uplink_ != nullptr) uplink_->drop_in_flight();
}

void GsDaemon::dispatch(std::size_t index, const net::Datagram& dgram) {
  if (halted_) return;
  // Envelope verification is cached on the shared payload: the first
  // receiver of a multicast pays the CRC, the rest read the stored verdict.
  const wire::VerifiedFrame verified = dgram.payload.verified();
  if (!verified.ok()) {
    ++frames_dropped_;
    ++wire_stats_.dropped[static_cast<std::size_t>(drop_reason(verified.error))];
    GS_LOG(kDebug, "daemon") << config_.name << " dropped frame: "
                             << wire::to_string(verified.error);
    return;
  }
  const auto type = static_cast<MsgType>(verified.type);
  const FrameRef frame(dgram.payload.frame_payload(), &dgram.payload);

  HandleResult result;
  switch (type) {
    case MsgType::kMembershipReport:
      result = receive_frame<MembershipReport>(index, dgram.src, frame);
      break;
    case MsgType::kReportAck:
      result = receive_frame<ReportAck>(index, dgram.src, frame);
      break;
    case MsgType::kDomainReport:
      result = receive_frame<DomainReport>(index, dgram.src, frame);
      break;
    case MsgType::kDomainReportAck:
      result = receive_frame<DomainReportAck>(index, dgram.src, frame);
      break;
    default:
      result = protocols_[index]->handle_frame(dgram.src, type, frame);
      break;
  }

  switch (result) {
    case HandleResult::kHandled:
      ++wire_stats_.decoded[static_cast<std::size_t>(verified.type) %
                            WireStats::kTypeSlots];
      break;
    case HandleResult::kDecodeError:
      // A verified envelope whose typed payload would not decode: counted
      // per receiver, exactly like envelope drops.
      ++frames_dropped_;
      ++wire_stats_.dropped[static_cast<std::size_t>(WireStats::Drop::kDecode)];
      GS_LOG(kDebug, "daemon") << config_.name << " dropped "
                               << to_string(type) << ": payload decode failed";
      break;
    case HandleResult::kUnknownType:
      ++frames_dropped_;
      ++wire_stats_
            .dropped[static_cast<std::size_t>(WireStats::Drop::kUnknownType)];
      break;
  }
}

template <typename Msg>
HandleResult GsDaemon::receive_frame(std::size_t index, util::IpAddress src,
                                     FrameRef frame) {
  std::optional<Msg> scratch;
  const Msg* msg = frame.get(scratch);
  if (msg == nullptr) return HandleResult::kDecodeError;
  receive(index, src, *msg);
  return HandleResult::kHandled;
}

void GsDaemon::receive(std::size_t index, util::IpAddress src,
                       const MembershipReport& rep) {
  if (central_ == nullptr || !central_->active()) return;
  central_->handle_report(src, rep, [this, index, src](const ReportAck& ack) {
    reply(index, src, ack);
  });
}

void GsDaemon::receive(std::size_t index, util::IpAddress src,
                       const DomainReport& rep) {
  if (root_central_ == nullptr || !root_central_->active()) return;
  root_central_->handle_domain_report(
      src, rep,
      [this, index, src](const DomainReportAck& ack) { reply(index, src, ack); });
}

void GsDaemon::receive(std::size_t /*index*/, util::IpAddress /*src*/,
                       const ReportAck& ack) {
  for (std::size_t i = 0; i < protocols_.size(); ++i) {
    AdapterProtocol& proto = *protocols_[i];
    if (proto.self().ip != ack.leader) continue;
    if (!senders_[i].ack(ack.seq, ack.need_full)) return;
    obs::emit_trace(params_.trace,
                    ack.need_full ? obs::TraceKind::kReportNeedFull
                                  : obs::TraceKind::kReportAcked,
                    sim_.now(), proto.self().ip, {}, ack.seq, 0, {},
                    config_.node);
    if (ack.need_full) {
      report_pending(i);
    } else {
      proto.report_acked();
    }
    return;
  }
}

void GsDaemon::receive(std::size_t /*index*/, util::IpAddress /*src*/,
                       const DomainReportAck& ack) {
  if (uplink_ != nullptr) uplink_->handle_ack(ack);
}

template <typename Report>
void GsDaemon::send_report(std::size_t index, util::IpAddress to,
                           const Report& rep, const net::Payload& frame) {
  if (to == transport_.local_ip(index)) {
    // This node hosts the receiving Central: deliver without the network.
    receive(index, to, rep);
    return;
  }
  transport_.unicast(index, to, frame);
}

template <typename Ack>
void GsDaemon::reply(std::size_t index, util::IpAddress to, const Ack& ack) {
  if (to == transport_.local_ip(index)) {
    // The reporter lives on this very node: loop back.
    receive(index, to, ack);
    return;
  }
  transport_.unicast(index, to,
                     net::Payload::copy_of(build_frame(scratch_, ack)));
}

void GsDaemon::send_domain_report(const DomainReport& rep,
                                  const net::Payload& frame) {
  if (!uplink_index_) return;
  const util::IpAddress root = uplink_root_ip();
  if (root.is_unspecified()) return;  // uplink AMG not formed yet; retried
  send_report(*uplink_index_, root, rep, frame);
}

void GsDaemon::report_pending(std::size_t index) {
  if (halted_) return;
  AdapterProtocol& proto = *protocols_[index];
  if (!proto.is_leader() || !proto.is_committed()) return;
  ReportSender<MembershipReport>& sender = senders_[index];
  sender.stamp(proto.build_report(sender.need_full()), scratch_);
  try_send_report(index);
  arm_report_retry();
}

void GsDaemon::try_send_report(std::size_t index) {
  const ReportSender<MembershipReport>& sender = senders_[index];
  if (!sender.outstanding()) return;
  const util::IpAddress gsc = gsc_ip();
  if (gsc.is_unspecified()) return;  // admin AMG not formed yet; retried

  ++reports_sent_;
  obs::emit_trace(params_.trace, obs::TraceKind::kReportSent, sim_.now(),
                  protocols_[index]->self().ip, gsc, sender.report().seq,
                  sender.report().full ? 1 : 0, {}, config_.node);
  send_report(config_.admin_adapter_index, gsc, sender.report(),
              sender.frame());
}

void GsDaemon::arm_report_retry() {
  if (report_retry_timer_.armed()) return;
  report_retry_timer_ =
      sim_.after(params_.report_retry, [this] { report_retry_tick(); });
}

void GsDaemon::report_retry_tick() {
  report_retry_timer_ = sim::Timer();
  bool any = false;
  for (std::size_t i = 0; i < protocols_.size(); ++i) {
    if (!senders_[i].outstanding()) continue;
    if (!protocols_[i]->is_leader()) {
      senders_[i].drop();  // demoted: the new leader reports for us
      continue;
    }
    any = true;
    obs::emit_trace(params_.trace, obs::TraceKind::kReportRetry, sim_.now(),
                    protocols_[i]->self().ip, gsc_ip(),
                    senders_[i].report().seq, 0, {}, config_.node);
    try_send_report(i);
  }
  if (any) arm_report_retry();
}

void GsDaemon::arm_report_refresh() {
  if (params_.report_refresh <= 0) return;
  report_refresh_timer_ =
      sim_.after(params_.report_refresh, [this] { report_refresh_tick(); });
}

void GsDaemon::report_refresh_tick() {
  report_refresh_timer_ = sim::Timer();
  if (halted_) return;
  // Re-establish each hosted group's lease at the GSC, even when nothing
  // changed: silence is indistinguishable from a whole group dying at once.
  for (std::size_t i = 0; i < protocols_.size(); ++i) {
    if (senders_[i].outstanding()) continue;  // a report is already in flight
    // Refreshes are full snapshots: soft state re-asserted wholesale, so a
    // member claim the GSC fenced off (or lost to a stale report) heals on
    // the next cycle without any rejection/renegotiation machinery.
    senders_[i].mark_full();
    report_pending(i);
  }
  arm_report_refresh();
}

void GsDaemon::on_admin_committed(const MembershipView& view) {
  if (halted_) return;
  const util::IpAddress gsc = view.leader().ip;
  // Both hosted Central tiers follow this AMG's leadership (re-activating
  // an active tier, or deactivating an inactive one, is a no-op). Root-tier
  // nodes' admin adapter sits on the root VLAN: winning that AMG makes this
  // node both its tier's GSC and the farm's root GSC.
  const bool hosts = gsc == admin_ip() && config_.central_eligible;
  auto follow = [hosts, gsc](auto* tier) {
    if (tier != nullptr) hosts ? tier->activate(gsc) : tier->deactivate();
  };
  follow(central_);
  follow(root_central_);

  if (gsc != last_gsc_) {
    last_gsc_ = gsc;
    // A new GulfStream Central starts empty: every hosted AMG leader must
    // re-establish its group with a full report. (report_pending skips the
    // adapters that lead no committed group; their senders already owe a
    // full to their next leadership.)
    for (std::size_t i = 0; i < protocols_.size(); ++i) {
      senders_[i].mark_full();
      report_pending(i);
    }
  }
}

void GsDaemon::on_uplink_committed(const MembershipView& view) {
  if (halted_) return;
  const util::IpAddress root = view.leader().ip;
  if (root == last_root_) return;
  last_root_ = root;
  // A new root Central starts empty: re-establish the domain with a full
  // digest (mirrors the leaders' full-report re-send on GSC change).
  if (uplink_ != nullptr) uplink_->on_root_changed();
}

}  // namespace gs::proto
