// Outside-in measurement helpers for the whole-farm benchmark.
//
// Nothing here reaches into the program's internals: layers are measured by
// reading public counters, by subscribing to the TraceBus, and by timing
// calls into public functions (the codec and Central replays).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "farm/farm.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace farmbench {

using Metrics = std::map<std::string, double>;
using Counts = std::map<std::string, std::uint64_t>;

// Order statistics over host-time samples.
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double quantile(std::vector<double> values, double q);

// The tail percentile a run reports: the highest of a fixed ladder
// (p50 .. p99.9) that leaves at least ten samples beyond it when `samples`
// values are collected. Returns 0 when even p50 would not.
[[nodiscard]] double tail_percentile(std::size_t samples);

// FNV-1a: folds the eight bytes of `value`, or every field of one trace
// record, into `digest` (start from kDigestSeed).
inline constexpr std::uint64_t kDigestSeed = 14695981039346656037ull;
void mix_digest(std::uint64_t& digest, std::uint64_t value);
void fold_digest(std::uint64_t& digest, const gs::obs::TraceRecord& record);

// Public-counter totals of one farm stack (local nodes only): the fabric's
// wire accounting, every adapter protocol's ProtocolStats, every daemon's
// report and codec counters. Keys are stable metric names; `into` is summed
// into, so sharded runs fold every shard into one map.
void add_counter_totals(gs::farm::Farm& farm, Counts& into);

// Everything a fully traced pass learns from the TraceBus.
class TraceTally {
 public:
  void on(const gs::obs::TraceRecord& record);

  [[nodiscard]] std::uint64_t count(gs::obs::TraceKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  // gs / report / domain_report / central layer metrics from record counts.
  void layer_metrics(Metrics& out) const;
  // Boot milestones and per-AMG hops (simulated seconds), given the instant
  // the last Central tier declared the topology stable.
  void boot_hops(gs::sim::SimTime stable, Metrics& out) const;
  // Farm-wide boot phase boundaries: first election, first Prepare, first
  // report sent, last report applied at or before `stable`.
  [[nodiscard]] std::vector<gs::sim::SimTime> boot_boundaries(
      gs::sim::SimTime stable) const;
  // Detection hops, fault -> first heartbeat miss -> suspicion -> death ->
  // leader report -> Central commit, medians over completed chains.
  void detection_hops(Metrics& out) const;

 private:
  struct Chain {
    gs::sim::SimTime fault = -1, miss = -1, suspect = -1, death = -1,
                     report = -1, commit = -1;
    gs::util::IpAddress declarer;
  };
  struct BootMarks {
    gs::sim::SimTime first_beacon = -1, decided = -1, won = -1, commit = -1,
                     report = -1;
  };

  std::uint64_t counts_[static_cast<std::size_t>(gs::obs::TraceKind::kCount_)] =
      {};
  std::uint64_t verify_inconsistencies_ = 0;
  gs::sim::SimTime first_prepare_ = -1;
  std::uint64_t digest_ = kDigestSeed;
  std::map<gs::util::IpAddress, BootMarks> adapters_;
  std::map<gs::util::IpAddress, Chain> open_chains_;
  std::vector<Chain> done_chains_;
  std::vector<gs::sim::SimTime> applied_;
};

// Times one encode -> verify -> decode round trip for each of the large or
// hot message types (beacon, join-request, prepare, commit, heartbeat,
// membership-report, domain-report), over messages built from the farm's own
// converged state (its largest committed view, its Central's adapter table).
// Types the run never put on the wire are skipped. Writes
// wire.replay_ns.<type>.
void replay_codec(gs::farm::Farm& farm,
                  const std::map<std::uint16_t, std::uint64_t>& frames_by_type,
                  Metrics& out);

// Replays every AMG leader's full membership report into a fresh Central
// (its own clock, a copy of the farm's ConfigDb) and times handle_report.
// Returns ns per report, 0 when the farm has no leaders.
[[nodiscard]] double replay_central_ingest(gs::farm::Farm& farm);

}  // namespace farmbench
