// The report channel (§2.2): sequenced reports from a source to the Central
// above it. Full snapshots establish the source's state, deltas keep it
// current, and a gap makes the receiver ask for a full (need_full).
//
// Both Central tiers speak it: every AMG leader reports to its Central
// (GsDaemon hosts one ReportSender per adapter, Central one ReportLedger),
// and every domain Central's DomainUplink reports to the RootCentral. The
// hosts keep what differs between the tiers — what a delta contains, when
// timers fire, what identifies a source's incarnation, and the trace records
// — and this module owns the sequencing, ack matching, admission and lease
// decisions both tiers share.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "gs/messages.h"
#include "gs/params.h"
#include "net/payload.h"
#include "sim/time_source.h"
#include "wire/buffer.h"

namespace gs::proto {

// One source's sending half: the per-incarnation sequence number, whether
// the next report must be a full, and the single report in flight together
// with its encoded frame (retries re-send the same bytes).
template <typename Report>
class ReportSender {
 public:
  // A new incarnation: sequence numbers restart at 1, the next report is a
  // full, and nothing is in flight.
  void restart() {
    seq_ = 0;
    need_full_ = true;
    drop();
  }

  void mark_full() { need_full_ = true; }
  // Whether the next stamped report will be a full: the host builds its
  // content accordingly.
  [[nodiscard]] bool need_full() const { return need_full_; }

  // Numbers `report`, flags it full or delta, encodes it once, and holds it
  // as the report in flight, superseding any previous one.
  void stamp(Report report, wire::Writer& scratch) {
    report.seq = ++seq_;
    report.full = std::exchange(need_full_, false);
    frame_ = net::Payload::copy_of(build_frame(scratch, report));
    outstanding_ = std::move(report);
  }

  [[nodiscard]] bool outstanding() const { return outstanding_.has_value(); }
  // The report in flight and its frame; only while outstanding().
  [[nodiscard]] const Report& report() const { return *outstanding_; }
  [[nodiscard]] const net::Payload& frame() const { return frame_; }

  // Matches an ack against the report in flight. An ack for any other seq
  // (or with nothing in flight) is stale: ignored, returns false. A match
  // releases the report; a need_full ack also makes the next report a full.
  bool ack(std::uint64_t seq, bool need_full) {
    if (!outstanding_ || outstanding_->seq != seq) return false;
    drop();
    if (need_full) need_full_ = true;
    return true;
  }

  // Forgets the report in flight without an ack.
  void drop() {
    outstanding_.reset();
    frame_ = net::Payload();
  }

 private:
  std::uint64_t seq_ = 0;
  bool need_full_ = true;
  std::optional<Report> outstanding_;
  net::Payload frame_;
};

// The receiving half: admits each report against its source's record and
// runs the lease sweep that retires sources gone silent. The records live
// in the host's per-source state (a Central group, a RootCentral domain), so
// they are created and erased together with it.
class ReportLedger {
 public:
  struct Record {
    std::uint64_t last_seq = 0;
    sim::SimTime last_report = 0;  // lease: when the source last reported
  };

  // Whether reports name their sender's incarnation. AMG leaders' do not: a
  // restarted daemon numbers its reports from 1 again, so a full at or below
  // the recorded seq may be a fresh snapshot, and only the recorded one
  // (same seq, same stream) is a duplicate. Domain uplinks' do (an epoch):
  // within one incarnation seqs only grow, so any report at or below the
  // recorded seq is a duplicate.
  enum class Incarnations : std::uint8_t { kUnnamed, kNamed };

  // kDuplicate: already applied, ack idempotently (lease renewed).
  // kNeedFull: a delta that cannot be applied, ask for a full.
  // kApply: news, apply it and then call applied().
  enum class Verdict : std::uint8_t { kDuplicate, kNeedFull, kApply };

  // `sweep` retires every source whose record expired(); it runs every
  // max(group_lease / 4, 1 s) while armed.
  ReportLedger(sim::TimeSource& clock, const Params& params,
               Incarnations incarnations, std::function<void()> sweep);
  ~ReportLedger() { sweep_timer_.cancel(); }

  ReportLedger(const ReportLedger&) = delete;
  ReportLedger& operator=(const ReportLedger&) = delete;

  // `record` is the source's record, or null for an unknown source.
  // `same_stream` says whether the report continues the record's stream as
  // the host identifies it. A duplicate renews the lease; so does a
  // rejected delta from a known source, which proves the source alive and
  // mid-recovery, but never creates a record.
  Verdict admit(Record* record, std::uint64_t seq, bool full,
                bool same_stream);
  // Records an applied report.
  void applied(Record& record, std::uint64_t seq);
  // Silent for longer than the lease.
  [[nodiscard]] bool expired(const Record& record) const;

  // The sweep is off when the lease or the refresh period is <= 0: without
  // renewals every healthy-but-quiet source would expire on schedule.
  void arm_sweep();
  void cancel_sweep() { sweep_timer_.cancel(); }

 private:
  sim::TimeSource& sim_;
  const Params& params_;
  const Incarnations incarnations_;
  std::function<void()> sweep_;
  sim::Timer sweep_timer_;
};

}  // namespace gs::proto
