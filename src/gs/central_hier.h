// Two-level Central hierarchy: per-domain Centrals feeding a root GSC.
//
// The flat design (central.h) has every AMG leader in the farm report to ONE
// Central — the scalability wall the related work attacks. Here each domain
// keeps a plain Central consuming its VLANs' leader reports exactly as
// before, and two new pieces carry the aggregate upward over the same report
// channel the leaders use (report_channel.h):
//
//  * DomainUplink observes its domain Central's table (Central::TableObserver)
//    and batches every changed adapter into compressed DomainReport digests —
//    many per-adapter changes per frame, full digests to (re)establish the
//    domain, deltas in the steady state. Its ReportSender keeps one digest
//    in flight, retried until acked, re-sent as a full when the root changes
//    or asks (need_full), and periodically refreshed in full (every
//    report_refresh) to renew the root's lease. An epoch, bumped each time
//    the domain Central activates, lets the root tell a restarted domain
//    Central from a lost frame.
//
//  * RootCentral consumes DomainReports from every domain uplink through its
//    ReportLedger and keeps the farm-wide adapter table plus group structure
//    *derived* from the per-adapter (group_leader, view) pairs — member
//    lists never cross the uplink. Failover mirrors the flat design at both
//    levels: a domain Central dying makes its leaders re-home via the
//    existing discovery path (new epoch, full digest); a root dying rebuilds
//    from the need_full-triggered domain fulls; a silently dead domain
//    expires wholesale after group_lease.
//
// Neither class owns a transport: the hosting daemon wires DomainUplink's
// Iface to its uplink adapter and routes kDomainReport/kDomainReportAck
// frames (see gs/daemon.h), keeping both classes drivable object-level in
// tests and bench/central_scale.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "gs/central.h"
#include "gs/messages.h"
#include "gs/params.h"
#include "gs/report_channel.h"
#include "sim/time_source.h"
#include "wire/buffer.h"

namespace gs::proto {

class DomainUplink : public Central::TableObserver {
 public:
  struct Iface {
    // Delivers one DomainReport, already encoded as `frame`, toward the
    // current root GSC; never called while root_ip() is unspecified.
    std::function<void(const DomainReport&, const net::Payload& frame)> send;
    // Current root GSC IP (the uplink adapter's AMG leader), or unspecified
    // while that AMG is uncommitted.
    std::function<util::IpAddress()> root_ip;
  };

  // Registers itself as `central`'s table observer; `central` must outlive
  // the uplink.
  DomainUplink(sim::TimeSource& clock, const Params& params, Central& central,
               std::uint32_t domain, util::IpAddress self_ip, Iface iface);
  ~DomainUplink() override;

  DomainUplink(const DomainUplink&) = delete;
  DomainUplink& operator=(const DomainUplink&) = delete;

  // Central::TableObserver — driven by the observed domain Central.
  void central_activated() override;
  void central_deactivated() override;
  void adapter_changed(util::IpAddress ip) override;

  // The uplink adapter's AMG committed with a (possibly new) leader: the
  // root may have failed over, so re-establish with a full digest.
  void on_root_changed();
  void handle_ack(const DomainReportAck& ack);

  // Node death/boot, mirroring the daemon's halt/resume.
  void halt();
  void resume();
  // Teardown only: releases the digest in flight without a trace, on the
  // thread that encoded it (see GsDaemon::drop_in_flight).
  void drop_in_flight() { sender_.drop(); }

  [[nodiscard]] std::uint32_t domain() const { return domain_; }
  [[nodiscard]] util::IpAddress self_ip() const { return self_ip_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t reports_sent() const { return reports_sent_; }
  [[nodiscard]] bool report_outstanding() const {
    return sender_.outstanding();
  }

 private:
  void arm_batch();
  void flush();
  void arm_retry();
  void retry_tick();
  void arm_refresh();
  void refresh_tick();
  void drop_outstanding();
  // The digest's content: the whole table when `full`, else the dirty set.
  [[nodiscard]] DomainReport build_report(bool full);

  sim::TimeSource& sim_;
  const Params& params_;
  Central& central_;
  const std::uint32_t domain_;
  const util::IpAddress self_ip_;
  Iface iface_;

  bool halted_ = false;
  std::uint64_t epoch_ = 0;  // counts central_activated()
  ReportSender<DomainReport> sender_;  // seqs restart with each epoch
  std::set<util::IpAddress> dirty_;  // changed since the last flush
  wire::Writer scratch_;
  sim::Timer batch_timer_;
  sim::Timer retry_timer_;
  sim::Timer refresh_timer_;
  std::uint64_t reports_sent_ = 0;
};

class RootCentral {
 public:
  RootCentral(sim::TimeSource& clock, const Params& params);

  RootCentral(const RootCentral&) = delete;
  RootCentral& operator=(const RootCentral&) = delete;

  // Activation follows the root VLAN's AMG leadership, exactly like the
  // flat Central follows the admin AMG's. A fresh instance starts empty and
  // rebuilds from the domain fulls its need_full acks solicit.
  void activate(util::IpAddress self_ip);
  void deactivate();
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] util::IpAddress self_ip() const { return self_ip_; }

  void handle_domain_report(
      util::IpAddress from, const DomainReport& report,
      const std::function<void(const DomainReportAck&)>& reply);

  // --- Farm view (mirrors Central's introspection shape) -------------------

  struct AdapterStatus {
    MemberInfo info;
    bool alive = false;
    util::IpAddress group_leader;  // unspecified when unassigned
    std::uint64_t view = 0;
    std::uint32_t domain = 0;
    sim::SimTime last_change = 0;
  };
  [[nodiscard]] std::optional<AdapterStatus> adapter_status(
      util::IpAddress ip) const;
  [[nodiscard]] std::size_t known_adapter_count() const { return rows_.size(); }
  [[nodiscard]] std::size_t alive_adapter_count() const;

  // Group structure derived from the per-adapter (group_leader, view)
  // pairs: one group per distinct leader among alive assigned adapters.
  struct GroupInfo {
    util::IpAddress leader;
    std::uint64_t view = 0;
    std::vector<util::IpAddress> members;
  };
  [[nodiscard]] std::vector<GroupInfo> groups() const;

  // Node correlation at farm scope: down when every known adapter of the
  // node is recorded dead (and at least one is known).
  [[nodiscard]] bool node_down(util::NodeId node) const;

  [[nodiscard]] std::size_t domain_count() const { return domains_.size(); }
  [[nodiscard]] std::uint64_t reports_received() const {
    return reports_received_;
  }
  [[nodiscard]] std::uint64_t need_fulls_sent() const {
    return need_fulls_sent_;
  }

 private:
  struct DomainState {
    util::IpAddress sender;      // uplink adapter IP of the current epoch
    std::uint64_t epoch = 0;
    ReportLedger::Record ingest;  // the uplink's seq and lease
    std::set<util::IpAddress> owned;
  };

  void trace(obs::TraceKind kind, util::IpAddress peer = {},
             std::uint64_t a = 0, std::uint64_t b = 0);
  void lease_sweep();
  // Applies one digest row; false when a stale cross-domain claim was
  // fenced off (a dead/unassigned verdict from a domain that no longer
  // owns the adapter).
  bool apply_entry(std::uint32_t domain, const DomainAdapterEntry& entry);
  void clear_all_state();

  sim::TimeSource& sim_;
  const Params& params_;

  bool active_ = false;
  util::IpAddress self_ip_;
  std::uint64_t reports_received_ = 0;
  std::uint64_t need_fulls_sent_ = 0;

  std::map<util::IpAddress, AdapterStatus> rows_;
  std::map<std::uint32_t, DomainState> domains_;
  ReportLedger ledger_;
};

}  // namespace gs::proto
