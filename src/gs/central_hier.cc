#include "gs/central_hier.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace gs::proto {

// --- DomainUplink -----------------------------------------------------------

DomainUplink::DomainUplink(sim::TimeSource& clock, const Params& params,
                           Central& central, std::uint32_t domain,
                           util::IpAddress self_ip, Iface iface)
    : sim_(clock),
      params_(params),
      central_(central),
      domain_(domain),
      self_ip_(self_ip),
      iface_(std::move(iface)) {
  GS_CHECK_MSG(iface_.send != nullptr && iface_.root_ip != nullptr,
               "DomainUplink::Iface requires send and root_ip");
  central_.set_table_observer(this);
}

DomainUplink::~DomainUplink() {
  central_.set_table_observer(nullptr);
  batch_timer_.cancel();
  retry_timer_.cancel();
  refresh_timer_.cancel();
}

void DomainUplink::central_activated() {
  if (halted_) return;
  // A fresh incarnation of the domain Central: new epoch, sequence space
  // from scratch, and a full digest once its tables have content. The root
  // recognizes the epoch change and replaces the domain's slice.
  ++epoch_;
  sender_.restart();
  dirty_.clear();
  arm_refresh();
  arm_batch();
}

void DomainUplink::central_deactivated() {
  batch_timer_.cancel();
  retry_timer_.cancel();
  refresh_timer_.cancel();
  drop_outstanding();
  dirty_.clear();
  sender_.mark_full();
}

void DomainUplink::adapter_changed(util::IpAddress ip) {
  if (halted_ || !central_.active()) return;
  dirty_.insert(ip);
  arm_batch();
}

void DomainUplink::on_root_changed() {
  if (halted_ || !central_.active()) return;
  // A new root starts empty; whatever was in flight toward the old one is
  // moot. Re-establish the whole domain.
  sender_.mark_full();
  sender_.drop();
  retry_timer_.cancel();
  flush();
}

void DomainUplink::handle_ack(const DomainReportAck& ack) {
  if (halted_ || ack.domain != domain_) return;
  if (!sender_.ack(ack.seq, ack.need_full)) return;
  obs::emit_trace(params_.trace,
                  ack.need_full ? obs::TraceKind::kDomainReportNeedFull
                                : obs::TraceKind::kDomainReportAcked,
                  sim_.now(), self_ip_, {}, ack.seq, domain_);
  if (ack.need_full) {
    flush();
  } else if (sender_.need_full() || !dirty_.empty()) {
    // Changes accumulated while the acked report was in flight.
    arm_batch();
  }
}

void DomainUplink::halt() {
  halted_ = true;
  central_deactivated();
}

void DomainUplink::drop_outstanding() {
  if (!sender_.outstanding()) return;
  // The in-flight digest dies with this Central incarnation: the retry
  // timer is cancelled and a demoted standby never sends again, so without
  // this edge the digest's span could never close or be superseded.
  obs::emit_trace(params_.trace, obs::TraceKind::kDomainReportDropped,
                  sim_.now(), self_ip_, {}, sender_.report().seq, domain_);
  sender_.drop();
}

void DomainUplink::resume() {
  halted_ = false;
  // Nothing to send until the domain Central reactivates (which bumps the
  // epoch and queues the full digest).
}

void DomainUplink::arm_batch() {
  // One report outstanding at a time: while in flight, new dirt waits for
  // the ack. The batch window is what turns a burst of table changes into
  // ONE frame with many per-adapter entries.
  if (sender_.outstanding() || batch_timer_.armed()) return;
  const sim::SimDuration wait = std::max<sim::SimDuration>(params_.domain_batch, 0);
  batch_timer_ = sim_.after(wait, [this] { flush(); });
}

void DomainUplink::flush() {
  batch_timer_.cancel();
  if (halted_ || !central_.active()) return;
  if (sender_.outstanding()) return;  // ack path re-arms
  if (!sender_.need_full() && dirty_.empty()) return;  // nothing to say
  if (iface_.root_ip().is_unspecified()) {
    // Uplink AMG not formed yet; try again on the retry cadence (and
    // immediately when on_root_changed fires).
    arm_retry();
    return;
  }
  sender_.stamp(build_report(sender_.need_full()), scratch_);
  ++reports_sent_;
  obs::emit_trace(params_.trace, obs::TraceKind::kDomainReportSent, sim_.now(),
                  self_ip_, iface_.root_ip(), sender_.report().seq,
                  sender_.report().full ? 1 : 0);
  iface_.send(sender_.report(), sender_.frame());
  arm_retry();
}

DomainReport DomainUplink::build_report(bool full) {
  DomainReport rep;
  rep.epoch = epoch_;
  rep.domain = domain_;
  rep.sender = self_ip_;

  // The adapter table knows each row's group leader but not the group's
  // view; one pass over the (small) group list covers every entry.
  std::map<util::IpAddress, std::uint64_t> views;
  for (const Central::GroupInfo& g : central_.groups())
    views[g.leader.ip] = g.view;
  auto to_entry = [&views](const Central::AdapterStatus& status) {
    DomainAdapterEntry e;
    e.info = status.info;
    e.alive = status.alive;
    e.group_leader = status.group_leader;
    auto it = views.find(status.group_leader);
    e.view = it != views.end() ? it->second : status.view;
    return e;
  };

  if (full) {
    for (const Central::AdapterStatus& status : central_.adapter_table())
      rep.entries.push_back(to_entry(status));
  } else {
    for (util::IpAddress ip : dirty_) {
      const auto status = central_.adapter_status(ip);
      if (!status) {
        rep.removed.push_back(ip);
        continue;
      }
      rep.entries.push_back(to_entry(*status));
    }
  }
  dirty_.clear();
  return rep;
}

void DomainUplink::arm_retry() {
  if (retry_timer_.armed()) return;
  retry_timer_ = sim_.after(params_.report_retry, [this] { retry_tick(); });
}

void DomainUplink::retry_tick() {
  retry_timer_ = sim::Timer();
  if (halted_ || !central_.active()) return;
  if (sender_.outstanding()) {
    if (iface_.root_ip().is_unspecified()) {
      arm_retry();  // root vanished mid-flight; keep the report queued
      return;
    }
    obs::emit_trace(params_.trace, obs::TraceKind::kDomainReportRetry,
                    sim_.now(), self_ip_, iface_.root_ip(),
                    sender_.report().seq, domain_);
    iface_.send(sender_.report(), sender_.frame());
    arm_retry();
    return;
  }
  // No report in flight: we were parked waiting for a root to appear.
  if (sender_.need_full() || !dirty_.empty()) flush();
}

void DomainUplink::arm_refresh() {
  if (params_.report_refresh <= 0) return;
  refresh_timer_ =
      sim_.after(params_.report_refresh, [this] { refresh_tick(); });
}

void DomainUplink::refresh_tick() {
  refresh_timer_ = sim::Timer();
  if (halted_ || !central_.active()) return;
  // Re-assert the whole domain even when nothing changed: the root retires
  // a silent domain after group_lease, so renewal is the liveness signal.
  sender_.mark_full();
  arm_batch();
  arm_refresh();
}

// --- RootCentral ------------------------------------------------------------

RootCentral::RootCentral(sim::TimeSource& clock, const Params& params)
    : sim_(clock),
      params_(params),
      ledger_(clock, params, ReportLedger::Incarnations::kNamed,
              [this] { lease_sweep(); }) {}

void RootCentral::trace(obs::TraceKind kind, util::IpAddress peer,
                        std::uint64_t a, std::uint64_t b) {
  obs::emit_trace(params_.trace, kind, sim_.now(), self_ip_, peer, a, b);
}

void RootCentral::clear_all_state() {
  rows_.clear();
  domains_.clear();
  ledger_.cancel_sweep();
  reports_received_ = 0;
  need_fulls_sent_ = 0;
}

void RootCentral::activate(util::IpAddress self_ip) {
  if (active_ && self_ip_ == self_ip) return;
  clear_all_state();
  active_ = true;
  self_ip_ = self_ip;
  ledger_.arm_sweep();
  trace(obs::TraceKind::kRootActivated);
}

void RootCentral::deactivate() {
  if (!active_) return;
  active_ = false;
  clear_all_state();
  trace(obs::TraceKind::kRootDeactivated);
  self_ip_ = util::IpAddress();
}

void RootCentral::handle_domain_report(
    util::IpAddress from, const DomainReport& report,
    const std::function<void(const DomainReportAck&)>& reply) {
  (void)from;
  if (!active_) return;
  ++reports_received_;

  DomainReportAck ack{};
  ack.seq = report.seq;
  ack.domain = report.domain;

  auto it = domains_.find(report.domain);
  ReportLedger::Record* record =
      it != domains_.end() ? &it->second.ingest : nullptr;
  // A domain's stream is one uplink sender in one epoch: a restarted domain
  // Central (new epoch) or a standby's uplink (new sender) starts another.
  const bool same_incarnation = record != nullptr &&
                                it->second.sender == report.sender &&
                                it->second.epoch == report.epoch;
  switch (ledger_.admit(record, report.seq, report.full, same_incarnation)) {
    case ReportLedger::Verdict::kDuplicate:
      trace(obs::TraceKind::kRootReportDup, report.sender, report.seq,
            report.domain);
      reply(ack);
      return;
    case ReportLedger::Verdict::kNeedFull:
      // Unknown incarnation (fresh root, restarted domain Central, or a new
      // uplink sender) or a dropped delta mid-batch: ask for the full
      // digest, without touching the row table.
      ack.need_full = true;
      ++need_fulls_sent_;
      reply(ack);
      return;
    case ReportLedger::Verdict::kApply:
      break;
  }

  DomainState& st = domains_[report.domain];
  st.sender = report.sender;
  st.epoch = report.epoch;
  ledger_.applied(st.ingest, report.seq);

  if (report.full) {
    // Replace the domain's slice: apply every entry, then drop owned rows
    // the digest no longer mentions (the domain Central restarted and lost
    // them; they re-enter the table when re-reported).
    std::set<util::IpAddress> seen;
    for (const DomainAdapterEntry& entry : report.entries) {
      if (apply_entry(report.domain, entry)) seen.insert(entry.info.ip);
    }
    for (util::IpAddress ip : st.owned) {
      if (seen.count(ip)) continue;
      auto row = rows_.find(ip);
      if (row != rows_.end() && row->second.domain == report.domain)
        rows_.erase(row);
    }
    st.owned = std::move(seen);
  } else {
    for (const DomainAdapterEntry& entry : report.entries) {
      if (apply_entry(report.domain, entry)) st.owned.insert(entry.info.ip);
    }
    for (util::IpAddress ip : report.removed) {
      auto row = rows_.find(ip);
      if (row == rows_.end() || row->second.domain != report.domain) continue;
      rows_.erase(row);
      st.owned.erase(ip);
    }
  }
  trace(obs::TraceKind::kRootReportApplied, report.sender, report.seq,
        report.domain);
  reply(ack);
}

bool RootCentral::apply_entry(std::uint32_t domain,
                              const DomainAdapterEntry& entry) {
  auto it = rows_.find(entry.info.ip);
  if (it != rows_.end() && it->second.domain != domain) {
    // Cross-domain race (a node moved between domains): an ALIVE claim is
    // the adapter re-appearing under the reporting domain and transfers
    // ownership; a dead/unassigned verdict from a non-owner is the old
    // domain's stale view and must not kill the row the new owner renews.
    if (!entry.alive) return false;
    auto old_domain = domains_.find(it->second.domain);
    if (old_domain != domains_.end())
      old_domain->second.owned.erase(entry.info.ip);
  }
  AdapterStatus& row = rows_[entry.info.ip];
  const bool changed = row.alive != entry.alive ||
                       row.group_leader != entry.group_leader ||
                       row.last_change == 0;
  row.info = entry.info;
  row.alive = entry.alive;
  row.group_leader = entry.group_leader;
  row.view = entry.view;
  row.domain = domain;
  if (changed) row.last_change = sim_.now();
  return true;
}

void RootCentral::lease_sweep() {
  std::vector<std::uint32_t> expired;
  for (const auto& [domain, st] : domains_)
    if (ledger_.expired(st.ingest)) expired.push_back(domain);
  for (std::uint32_t domain : expired) {
    auto it = domains_.find(domain);
    if (it == domains_.end()) continue;
    GS_LOG(kDebug, "root-gsc") << "domain " << domain
                               << " lease expired; marking its slice dead";
    // The whole domain went silent: its Central (and uplink) died with no
    // successor. Mark every adapter it owned dead — there is nobody left
    // to send the deaths — and forget the incarnation so the next contact
    // must re-establish with a full.
    for (util::IpAddress ip : it->second.owned) {
      auto row = rows_.find(ip);
      if (row == rows_.end() || row->second.domain != domain) continue;
      if (row->second.alive) {
        row->second.alive = false;
        row->second.last_change = sim_.now();
      }
      row->second.group_leader = util::IpAddress();
    }
    trace(obs::TraceKind::kRootDomainExpired, {}, domain);
    domains_.erase(it);
  }
}

std::optional<RootCentral::AdapterStatus> RootCentral::adapter_status(
    util::IpAddress ip) const {
  auto it = rows_.find(ip);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

std::size_t RootCentral::alive_adapter_count() const {
  std::size_t n = 0;
  for (const auto& [ip, row] : rows_)
    if (row.alive) ++n;
  return n;
}

std::vector<RootCentral::GroupInfo> RootCentral::groups() const {
  std::map<util::IpAddress, GroupInfo> by_leader;
  for (const auto& [ip, row] : rows_) {
    if (!row.alive || row.group_leader.is_unspecified()) continue;
    GroupInfo& g = by_leader[row.group_leader];
    g.leader = row.group_leader;
    g.view = std::max(g.view, row.view);
    g.members.push_back(ip);
  }
  std::vector<GroupInfo> out;
  out.reserve(by_leader.size());
  for (auto& [leader, g] : by_leader) out.push_back(std::move(g));
  return out;
}

bool RootCentral::node_down(util::NodeId node) const {
  bool any = false;
  for (const auto& [ip, row] : rows_) {
    if (row.info.node != node) continue;
    if (row.alive) return false;
    any = true;
  }
  return any;
}

}  // namespace gs::proto
