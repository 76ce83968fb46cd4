#include "gs/report_channel.h"

#include <algorithm>

namespace gs::proto {

ReportLedger::ReportLedger(sim::TimeSource& clock, const Params& params,
                           Incarnations incarnations,
                           std::function<void()> sweep)
    : sim_(clock),
      params_(params),
      incarnations_(incarnations),
      sweep_(std::move(sweep)) {}

ReportLedger::Verdict ReportLedger::admit(Record* record, std::uint64_t seq,
                                          bool full, bool same_stream) {
  const bool known = record != nullptr;
  const bool exact_full = full && incarnations_ == Incarnations::kUnnamed;
  if (known && same_stream &&
      (exact_full ? seq == record->last_seq : seq <= record->last_seq)) {
    // Even a duplicate renews the lease: it is first-hand evidence that the
    // source is alive and still reporting.
    record->last_report = sim_.now();
    return Verdict::kDuplicate;
  }
  if (!full && (!known || !same_stream || seq != record->last_seq + 1)) {
    // A delta from a source with no snapshot here (fresh receiver, new
    // incarnation) or one that skipped a seq. A known source still renews
    // its lease, or a source stuck in need_full (its fulls lost on the wire)
    // would expire while actively reporting.
    if (known) record->last_report = sim_.now();
    return Verdict::kNeedFull;
  }
  return Verdict::kApply;
}

void ReportLedger::applied(Record& record, std::uint64_t seq) {
  record.last_seq = seq;
  record.last_report = sim_.now();
}

bool ReportLedger::expired(const Record& record) const {
  return sim_.now() - record.last_report > params_.group_lease;
}

void ReportLedger::arm_sweep() {
  if (params_.group_lease <= 0 || params_.report_refresh <= 0) return;
  const sim::SimDuration period =
      std::max<sim::SimDuration>(params_.group_lease / 4, sim::kSecond);
  sweep_timer_ = sim_.after(period, [this] {
    sweep_timer_ = sim::Timer();
    sweep_();
    arm_sweep();
  });
}

}  // namespace gs::proto
