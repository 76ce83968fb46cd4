// farmbench — the whole-farm benchmark.
//
// Runs one workload against the real farm::Farm / farm::ShardedFarm stacks
// (unmodified daemons and Centrals) and prints every metric by name with its
// unit, the correctness verdict and the run's provenance. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   farmbench --workload boot|steady|churn --seed N --seconds S
//             --trace 0|1 [--size full|tiny] [--unrecovered-fault]
//             [--domain-moves] [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 is the untraced run: it repeats the workload's unit of work
// until --seconds of host time have been measured and reports the
// end-to-end metrics. --trace 1 runs a fixed amount of work three times —
// untraced, with only a trace digest subscribed, and fully observed (trace
// tally, SpanTracker, health snapshot, codec and Central replays) — checks
// that tracing only observed (identical sim.events, public counters,
// simulated-time metrics and trace digests) and reports the per-layer
// metrics. See README.md for the workloads and the layer map.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "farm/script.h"
#include "farm/sharded.h"
#include "gs/central.h"
#include "obs/spans.h"
#include "obs/trace_check.h"
#include "observe.h"
#include "soak/invariants.h"
#include "soak/schedule.h"

#ifndef FARMBENCH_BUILD_TYPE
#define FARMBENCH_BUILD_TYPE "unknown"
#endif

namespace farmbench {
namespace {

namespace farm = gs::farm;
namespace obs = gs::obs;
namespace proto = gs::proto;
namespace sim = gs::sim;
namespace soak = gs::soak;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Options and workload shapes ---------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool unrecovered_fault = false;  // churn only: a partition never healed
  bool domain_moves = false;  // churn only: domain moves in the schedule
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

enum class Tracing { kOff, kDigest, kFull };

// Everything one pass over a workload measured.
struct Pass {
  std::vector<double> setup_s;
  std::vector<double> run_s;     // host seconds per unit of measured work
  std::vector<double> slice_ms;  // host ms per simulated second, per slice
  // Slices that fix the tail's percentile: the guaranteed units' (churn:
  // the first unit's).
  std::size_t min_unit_slices = 0;
  double run_total_s = 0;
  std::uint64_t window_events = 0;  // events executed in the measured work
  double window_sim_s = 0;          // simulated seconds measured
  double stabilize_s = 0;
  double net_bytes_per_adapter_s = 0;
  std::optional<double> reconverge_s;  // churn
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  Counts counts;             // the determinism guard's public counters
  std::uint64_t digest = 0;  // trace digest (traced passes)
  Metrics layers;            // per-layer metrics
};

struct Shape {
  farm::FarmSpec spec;
  proto::Params params;
  sim::SimDuration slice = sim::milliseconds(250);
  // The fully traced pass of boot and churn steps finer for its phase
  // attribution; stepping never changes what the simulation executes.
  sim::SimDuration traced_slice = sim::milliseconds(250);
  sim::SimDuration unit = sim::seconds(10);  // steady window unit
  int setups = 3;        // set-ups per untraced run
  int min_units = 3;     // units of measured work per untraced run, at least
  int traced_units = 2;  // units per traced pass
  sim::SimDuration horizon = sim::seconds(60);  // churn fault window
  int faults = 12;                              // churn faults scheduled
  // Churn's timed window, from convergence: the schedule (2 s after
  // convergence, `horizon` long) and the start of the reconvergence.
  sim::SimDuration measured = sim::seconds(120);
  // Churn reconvergence deadline after the fault window. Generous on
  // purpose: a domain move into a ~120-member VLAN can leave it unconverged
  // for over two simulated minutes (README.md, "Findings"); reconverge_s
  // reports how long it took.
  sim::SimDuration quiesce = sim::seconds(300);
};

// How much work one pass does: set-ups (build-only for boot; unused by
// churn, whose every unit is a fresh set-up), guaranteed units of measured
// work, and the host-time budget further units may fill.
struct Plan {
  int setups = 1;
  int units = 1;
  double budget = 0;
};

constexpr std::size_t kShards = 2;
constexpr sim::SimDuration kConvergeDeadline = sim::seconds(120);
constexpr sim::SimDuration kPoll = sim::milliseconds(100);
// Network load is the protocol's steady cost: bytes per adapter-second over
// this window once the farm has settled (after GSC-stable for boot, after
// the settle for churn; steady's whole window is settled).
constexpr sim::SimDuration kLoadWindow = sim::seconds(10);
// Churn polls ground-truth convergence (a whole-farm walk) this often, and
// counts the farm reconverged once it has stayed converged this long.
constexpr sim::SimDuration kReconvergePoll = sim::seconds(2);
constexpr sim::SimDuration kReconvergeHold = sim::seconds(30);

Shape shape_for(const std::string& workload, bool tiny) {
  Shape s;
  s.params = soak::default_soak_params();
  if (workload == "boot") {
    // Océano multi-domain farm with the paper's timers (Fig. 5, Eq. 1).
    s.spec = tiny ? farm::FarmSpec::oceano(2, 3, 2, 1, 1)
                  : farm::FarmSpec::oceano(8, 40, 31, 2, 2);
    s.params = proto::Params{};
    s.slice = sim::milliseconds(500);
    s.traced_slice = sim::milliseconds(50);
    s.setups = 48;  // build-only set-ups; every boot unit builds once more
    s.min_units = 5;
    s.traced_units = 1;
  } else if (workload == "churn") {
    s.spec = tiny ? farm::FarmSpec::hierarchical(2, 8)
                  : farm::FarmSpec::hierarchical(4, 120);
    s.slice = sim::seconds(2);
    s.traced_slice = sim::milliseconds(100);
    // Each unit runs its own schedule, and the work a schedule makes varies
    // widely (README.md, "Findings" 6), so results are medians over at least
    // six schedules; a unit is short, so fewer leave a run at the mercy of a
    // few seconds of host noise. One schedule's slices fix the tail's
    // percentile (p75 of 60): counting every unit's would move it into the
    // few heaviest fault slices, whose weight is the schedules', not the
    // program's.
    s.min_units = 6;
    s.traced_units = 1;
    if (tiny) {
      s.horizon = sim::seconds(30);
      s.faults = 4;
      s.quiesce = sim::seconds(30);
      s.measured = sim::seconds(60);
    }
  } else {  // steady
    s.spec = tiny ? farm::FarmSpec::hierarchical(2, 6)
                  : farm::FarmSpec::hierarchical(16, 122);
    if (tiny) s.unit = sim::seconds(2);
  }
  if (tiny) {
    s.setups = std::min(s.setups, 2);
    s.min_units = 1;
    s.traced_units = 1;
  }
  return s;
}

// --- Shared farm helpers -----------------------------------------------------

using CentralQuery = std::function<proto::Central*(farm::Farm&)>;

// The instant the last Central tier declared the initial topology stable;
// nullopt while any tier is still waiting. `find` runs a tier query over the
// farm stacks (one for Farm, every shard for ShardedFarm).
std::optional<sim::SimTime> stable_at(
    const farm::FarmSpec& spec,
    const std::function<proto::Central*(const CentralQuery&)>& find,
    const std::function<bool()>& root_up) {
  auto stable = [](proto::Central* c) {
    return c != nullptr && c->initial_topology_stable();
  };
  if (!spec.is_hierarchical()) {
    proto::Central* c = find([](farm::Farm& f) { return f.active_central(); });
    if (!stable(c)) return std::nullopt;
    return c->stable_time();
  }
  proto::Central* root_tier =
      find([](farm::Farm& f) { return f.active_root_tier_central(); });
  if (!stable(root_tier) || !root_up()) return std::nullopt;
  sim::SimTime at = root_tier->stable_time();
  for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(spec.hier_domains);
       ++d) {
    proto::Central* c =
        find([d](farm::Farm& f) { return f.active_domain_central(d); });
    if (!stable(c)) return std::nullopt;
    at = std::max(at, c->stable_time());
  }
  return at;
}

std::optional<sim::SimTime> stable_at(farm::Farm& f) {
  return stable_at(
      f.spec(), [&f](const CentralQuery& q) { return q(f); },
      [&f] { return f.active_root_central() != nullptr; });
}

std::optional<sim::SimTime> stable_at(farm::ShardedFarm& sf) {
  return stable_at(
      sf.shard(0).spec(),
      [&sf](const CentralQuery& q) -> proto::Central* {
        for (std::size_t s = 0; s < sf.shard_count(); ++s) {
          proto::Central* c = q(sf.shard(s));
          if (c != nullptr && c->initial_topology_stable()) return c;
        }
        return nullptr;
      },
      [&sf] {
        for (std::size_t s = 0; s < sf.shard_count(); ++s)
          if (sf.shard(s).active_root_central() != nullptr) return true;
        return false;
      });
}

sim::SimTime ceil_second(sim::SimTime t) {
  return (t + sim::kSecond - 1) / sim::kSecond * sim::kSecond;
}

using Steps = std::vector<std::pair<sim::SimTime, double>>;  // (end, host s)

struct Sliced {
  sim::SimTime reached = 0;
  double host_s = 0;  // host time inside `advance` only
};

// Advances `advance` from `from` to `to` in `slice` steps, appending host ms
// per simulated second of every step to `slice_ms` and, when given, the
// step's end time and host seconds to `steps`. `after` runs after each step,
// outside the timed part, and stops the loop by returning false.
Sliced run_slices(sim::SimTime from, sim::SimTime to, sim::SimDuration slice,
                  const std::function<void(sim::SimTime)>& advance,
                  std::vector<double>& slice_ms, Steps* steps,
                  const std::function<bool(sim::SimTime)>& after = {}) {
  Sliced r{from, 0.0};
  while (r.reached < to) {
    const sim::SimTime next = std::min(to, r.reached + slice);
    const auto t0 = Clock::now();
    advance(next);
    const double host = since(t0);
    slice_ms.push_back(host * 1e3 / sim::to_seconds(next - r.reached));
    if (steps != nullptr) steps->emplace_back(next, host);
    r.reached = next;
    r.host_s += host;
    if (after && !after(next)) break;
  }
  return r;
}

// Trace observers of one farm stack, attached before start().
struct Observers {
  TraceTally tally;
  std::uint64_t digest = kDigestSeed;
  obs::Subscription sub;
  std::unique_ptr<obs::TraceInvariants> invariants;

  void attach(farm::Farm& f, Tracing tracing) {
    if (tracing == Tracing::kDigest) {
      sub = f.trace_bus().subscribe(
          [this](const obs::TraceRecord& r) { fold_digest(digest, r); });
    } else if (tracing == Tracing::kFull) {
      sub = f.trace_bus().subscribe(
          [this](const obs::TraceRecord& r) { tally.on(r); });
      f.enable_span_tracking();
      invariants = std::make_unique<obs::TraceInvariants>(f.trace_bus());
    }
  }
  [[nodiscard]] std::uint64_t trace_digest(Tracing tracing) const {
    return tracing == Tracing::kFull ? tally.digest() : digest;
  }
};

Counts counts_of(farm::Farm& f) {
  Counts c;
  add_counter_totals(f, c);
  c["sim.events"] = f.sim().executed_events();
  return c;
}

// Ground-truth check of a settled farm: converged, and the Central tables
// match the fabric (the soak invariant checker).
void check_farm(farm::Farm& f, Pass& p, const char* what,
                std::uint64_t operations = 1) {
  p.attempted += operations;
  std::vector<soak::Violation> v = soak::check_farm_invariants(f);
  if (!f.converged())
    v.push_back({soak::Violation::Kind::kNotConverged, "farm not converged"});
  if (!v.empty()) {
    p.failed += std::min<std::uint64_t>(operations, v.size());
    p.problems.push_back(std::string(what) + ": " +
                         soak::format_violations(v));
  }
}

// Health snapshot (queue occupancy, codec counters) of one farm stack.
void snapshot_layers(farm::Farm& f, Metrics& out) {
  const obs::FarmHealthSampler::Snapshot snap = f.health_snapshot();
  if (snap.queue) {
    out["sim.queue.high_water"] += static_cast<double>(snap.queue->high_water);
    out["sim.queue.slots"] += static_cast<double>(snap.queue->slots);
  }
  if (snap.codec) {
    for (const auto& [type, n] : snap.codec->decoded)
      out["wire.decoded." + type] += static_cast<double>(n);
    for (const auto& [reason, n] : snap.codec->dropped)
      out["wire.dropped." + reason] += static_cast<double>(n);
  }
}

void net_layers(const Counts& c, Metrics& out) {
  auto get = [&c](const char* k) {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  out["net.frames_sent"] = get("net.frames_sent");
  out["net.deliveries"] = get("net.deliveries");
  out["net.bytes_sent"] = get("net.bytes_sent");
  out["net.frames_lost"] = get("net.frames_lost");
  const double frames = get("net.frames_sent");
  out["net.deliveries_per_frame"] =
      frames > 0 ? get("net.deliveries") / frames : 0.0;
}

// Layers every fully traced single-farm pass reports once it has settled.
void traced_farm_layers(farm::Farm& f, const Observers& ob, Pass& p) {
  ob.tally.layer_metrics(p.layers);
  snapshot_layers(f, p.layers);
  net_layers(p.counts, p.layers);
  replay_codec(f, f.fabric().frames_by_type(), p.layers);
  p.layers["central.ingest_replay_ns_per_report"] = replay_central_ingest(f);
}

void farm_setup_layers(double build, double start, double converge,
                       Pass& p) {
  p.layers["farm.build_s"] = build;
  p.layers["farm.start_s"] = start;
  p.layers["farm.converge_s"] = converge;
}

// --- boot --------------------------------------------------------------------
// Cold start of an Océano farm to GSC-stable. A unit is one whole boot on a
// fresh farm.

Pass run_boot(const Shape& s, const Options& o, Tracing tracing,
              const Plan& plan) {
  Pass p;
  for (int k = 0; k < plan.setups; ++k) {
    const auto t0 = Clock::now();
    sim::Simulator sim;
    farm::Farm f(sim, s.spec, s.params, o.seed);
    p.setup_s.push_back(since(t0));
  }
  // Unit u boots seed + u. GSC-stable time is bimodal across seeds (about
  // one in seven declares near 22.5 s instead of 26 s), so simulated-time
  // results are medians over the guaranteed units' farms.
  std::vector<double> stabilize, load;
  const auto begin = Clock::now();
  for (int u = 0; u < plan.units || since(begin) < plan.budget; ++u) {
    const bool guaranteed = u < plan.units;
    const auto t0 = Clock::now();
    sim::Simulator sim;
    farm::Farm f(sim, s.spec, s.params,
                 o.seed + static_cast<std::uint64_t>(u));
    const double build = since(t0);
    p.setup_s.push_back(build);
    Observers ob;
    ob.attach(f, tracing);

    const auto t1 = Clock::now();
    f.start();
    const double start = since(t1);
    std::optional<sim::SimTime> stable;
    Steps steps;
    const auto advance = [&sim](sim::SimTime to) { sim.run_until(to); };
    const sim::SimDuration slice =
        tracing == Tracing::kFull ? s.traced_slice : s.slice;
    Sliced boot = run_slices(0, kConvergeDeadline, slice, advance,
                             p.slice_ms, &steps, [&](sim::SimTime) {
                               stable = stable_at(f);
                               return !stable;
                             });
    if (stable) {
      const Sliced pad = run_slices(boot.reached, ceil_second(*stable),
                                    slice, advance, p.slice_ms, &steps);
      boot.reached = pad.reached;
      boot.host_s += pad.host_s;
    }
    const sim::SimTime t = boot.reached;
    const double run = start + boot.host_s;
    p.run_s.push_back(run);
    p.run_total_s += run;
    p.window_events += sim.executed_events();
    p.window_sim_s += sim::to_seconds(t);
    if (guaranteed) p.min_unit_slices = p.slice_ms.size();
    if (!stable) {
      ++p.attempted;
      ++p.failed;
      p.problems.push_back("boot: no GSC-stable declaration within " +
                           std::to_string(sim::to_seconds(kConvergeDeadline)) +
                           " s");
      continue;
    }
    if (guaranteed) stabilize.push_back(sim::to_seconds(*stable));
    check_farm(f, p, "boot");
    // Boot traffic itself is bimodal by seed (an extra admin-VLAN 2PC round
    // re-sends the whole ~570-member view); the traced run's net.bytes_sent
    // shows it. The end-to-end load is the settled farm's.
    const std::uint64_t bytes0 = f.fabric().total_bytes_sent();
    sim.run_until(t + kLoadWindow);
    if (guaranteed) {
      load.push_back(
          static_cast<double>(f.fabric().total_bytes_sent() - bytes0) /
          static_cast<double>(s.spec.total_adapters()) /
          sim::to_seconds(kLoadWindow));
    }
    if (u > 0) continue;  // observe the first unit, which boots `seed`
    p.counts = counts_of(f);
    p.digest = ob.trace_digest(tracing);
    farm_setup_layers(build, start, run - start, p);
    if (tracing != Tracing::kFull) continue;
    traced_farm_layers(f, ob, p);
    ob.tally.boot_hops(*stable, p.layers);
    const std::vector<sim::SimTime> bounds = ob.tally.boot_boundaries(*stable);
    const std::vector<std::string> names = {"discovery", "election",
                                            "formation", "reporting",
                                            "gsc_wait"};
    sim::SimTime prev = 0;
    for (const auto& [end, host] : steps) {
      std::size_t phase = 0;
      while (phase + 1 < names.size() && bounds[phase] >= 0 &&
             prev >= bounds[phase])
        ++phase;
      p.layers["phase." + names[phase] + ".host_s"] += host;
      prev = end;
    }
  }
  if (!stabilize.empty()) p.stabilize_s = median(stabilize);
  if (!load.empty()) p.net_bytes_per_adapter_s = median(load);
  return p;
}

// --- steady ------------------------------------------------------------------
// A converged hierarchical farm running fault-free. Set-up is build + start +
// convergence; a unit is `shape.unit` of simulated time. Every set-up's farm
// runs its share of the units: one process's heap layout can make a whole
// farm a few percent faster or slower, so the median spans several farms.

struct SetupTimes {
  double build = 0, start = 0, converge = 0;
};

// Runs units of `unit` simulated time until both `units` and `budget` are
// met, slicing each unit; returns the simulated time reached. The network
// load is taken over the first `units` units only, so it is a pure function
// of the seed and the plan.
sim::SimTime run_units(const Shape& s, sim::SimTime from, int units,
                       double budget,
                       const std::function<void(sim::SimTime)>& advance,
                       const std::function<std::uint64_t()>& bytes_sent,
                       Pass& p) {
  sim::SimTime t = from;
  const std::uint64_t bytes0 = bytes_sent();
  const auto begin = Clock::now();
  for (int u = 0; u < units || since(begin) < budget; ++u) {
    const std::size_t slices0 = p.slice_ms.size();
    const Sliced unit =
        run_slices(t, t + s.unit, s.slice, advance, p.slice_ms, nullptr);
    t = unit.reached;
    p.run_s.push_back(unit.host_s);
    p.run_total_s += unit.host_s;
    if (u < units) p.min_unit_slices += p.slice_ms.size() - slices0;
    if (u + 1 == units) {
      p.net_bytes_per_adapter_s =
          static_cast<double>(bytes_sent() - bytes0) /
          static_cast<double>(s.spec.total_adapters()) /
          sim::to_seconds(t - from);
    }
  }
  p.window_sim_s += sim::to_seconds(t - from);
  return t;
}

// Units and host-time budget one set-up's farm runs under `plan`.
int units_per_setup(const Plan& plan) {
  return (plan.units + plan.setups - 1) / plan.setups;
}

Pass run_steady(const Shape& s, const Options& o, Tracing tracing,
                const Plan& plan) {
  Pass p;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<farm::Farm> f;
  std::unique_ptr<Observers> ob;
  SetupTimes times;
  for (int k = 0; k < plan.setups; ++k) {
    ob.reset();
    f.reset();
    sim.reset();
    const auto t0 = Clock::now();
    sim = std::make_unique<sim::Simulator>();
    f = std::make_unique<farm::Farm>(*sim, s.spec, s.params, o.seed);
    times.build = since(t0);
    ob = std::make_unique<Observers>();
    ob->attach(*f, tracing);
    const auto t1 = Clock::now();
    f->start();
    times.start = since(t1);
    const auto t2 = Clock::now();
    std::optional<sim::SimTime> stable;
    if (farm::run_until_converged(*f, kConvergeDeadline, kPoll)) {
      farm::run_until(
          *sim, kConvergeDeadline,
          [&] { return (stable = stable_at(*f)).has_value(); }, kPoll);
    }
    if (stable) sim->run_until(ceil_second(sim->now()));
    times.converge = since(t2);
    p.setup_s.push_back(times.build + times.start + times.converge);
    ++p.attempted;  // each set-up's convergence is one operation
    if (!stable) {
      ++p.failed;
      p.problems.push_back("steady: farm did not converge and stabilise");
      return p;
    }
    p.stabilize_s = sim::to_seconds(*stable);
    const std::uint64_t events0 = sim->executed_events();
    run_units(
        s, sim->now(), units_per_setup(plan), plan.budget / plan.setups,
        [&sim](sim::SimTime t) { sim->run_until(t); },
        [&f] { return f->fabric().total_bytes_sent(); }, p);
    p.window_events += sim->executed_events() - events0;
    check_farm(*f, p, "steady");
  }
  p.counts = counts_of(*f);
  p.digest = ob->trace_digest(tracing);
  farm_setup_layers(times.build, times.start, times.converge, p);
  if (tracing == Tracing::kFull) traced_farm_layers(*f, *ob, p);
  return p;
}

// The steady farm under ShardedFarm at kShards shards (round-robin nodes, so
// every VLAN spans both shards): one set-up, then `units` units. Only the
// traced steady run calls this, for the shard layer; each shard's stream
// feeds a trace digest.
Pass run_sharded(const Shape& s, const Options& o, int units) {
  Pass p;
  const auto t0 = Clock::now();
  farm::ShardedFarm sf(s.spec, s.params, o.seed, kShards);
  const double build = since(t0);
  std::vector<std::unique_ptr<Observers>> obs_per_shard;
  for (std::size_t i = 0; i < sf.shard_count(); ++i) {
    obs_per_shard.push_back(std::make_unique<Observers>());
    obs_per_shard.back()->attach(sf.shard(i), Tracing::kDigest);
  }
  const auto t1 = Clock::now();
  sf.start();
  const double start = since(t1);
  const auto t2 = Clock::now();
  sim::SimTime t = 0;
  while (!sf.converged() && t < kConvergeDeadline) sf.run_until(t += kPoll);
  std::optional<sim::SimTime> stable = stable_at(sf);
  while (!stable && t < kConvergeDeadline) {
    sf.run_until(t += kPoll);
    stable = stable_at(sf);
  }
  if (stable) sf.run_until(t = ceil_second(t));
  farm_setup_layers(build, start, since(t2), p);
  ++p.attempted;  // the set-up's convergence is one operation
  if (!stable) {
    ++p.failed;
    p.problems.push_back("sharded: farm did not converge and stabilise");
    return p;
  }
  p.stabilize_s = sim::to_seconds(*stable);

  std::vector<std::uint64_t> events0;
  for (std::size_t i = 0; i < sf.shard_count(); ++i)
    events0.push_back(sf.shard(i).sim().executed_events());
  const std::uint64_t forwarded0 = sf.router().frames_forwarded();
  const sim::SimTime from = sf.now();
  const sim::SimTime to = run_units(
      s, from, units, 0, [&sf](sim::SimTime end) { sf.run_until(end); },
      [&sf] {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < sf.shard_count(); ++i)
          n += sf.shard(i).fabric().total_bytes_sent();
        return n;
      },
      p);
  std::uint64_t busiest = 0;
  for (std::size_t i = 0; i < sf.shard_count(); ++i) {
    const std::uint64_t n = sf.shard(i).sim().executed_events() - events0[i];
    busiest = std::max(busiest, n);
    p.window_events += n;
  }

  ++p.attempted;
  if (!sf.converged()) {
    ++p.failed;
    p.problems.push_back("sharded: farm not converged after the window");
  }
  p.digest = kDigestSeed;
  for (std::size_t i = 0; i < sf.shard_count(); ++i) {
    Counts c = counts_of(sf.shard(i));
    for (const auto& [k, v] : c) p.counts[k] += v;
    mix_digest(p.digest, obs_per_shard[i]->trace_digest(Tracing::kDigest));
  }

  // The shard layer: epoch barrier windows, forwarding, balance.
  const double windows =
      sim::to_seconds(to - from) / sim::to_seconds(sf.shard_set().epoch());
  p.layers["shard.epoch_us"] = sim::to_seconds(sf.shard_set().epoch()) * 1e6;
  p.layers["shard.windows"] = windows;
  p.layers["shard.frames_forwarded"] =
      static_cast<double>(sf.router().frames_forwarded() - forwarded0);
  p.layers["shard.event_imbalance"] =
      p.window_events > 0 ? static_cast<double>(busiest) *
                                static_cast<double>(kShards) /
                                static_cast<double>(p.window_events)
                          : 0.0;
  p.layers["shard.host_us_per_window"] = p.run_total_s * 1e6 / windows;
  return p;
}

// --- churn -------------------------------------------------------------------
// A hierarchical farm under a seeded operational fault schedule. A unit is one
// fresh farm: build + converge (set-up), then the schedule's fault window and
// the start of the reconvergence (measured), then the rest of the quiesce, a
// settle and the soak invariant check (not measured).

std::string family_of(const farm::ScriptAction& a,
                      const std::vector<std::size_t>& gsc_nodes) {
  switch (a.kind) {
    case farm::ActionKind::kFailNode:
    case farm::ActionKind::kRecoverNode:
      return std::find(gsc_nodes.begin(), gsc_nodes.end(), a.arg) !=
                     gsc_nodes.end()
                 ? "gsc_failover"
                 : "node";
    case farm::ActionKind::kFailAdapter:
    case farm::ActionKind::kRecoverAdapter:
    case farm::ActionKind::kFailAdapterRecv:
    case farm::ActionKind::kFailAdapterSend:
      return "adapter";
    case farm::ActionKind::kFailSwitch:
    case farm::ActionKind::kRecoverSwitch:
      return "switch";
    case farm::ActionKind::kPartitionVlan:
    case farm::ActionKind::kHealVlan:
      return "partition";
    case farm::ActionKind::kMoveAdapter:
      return "move";
    case farm::ActionKind::kVerify:
      break;
  }
  return "quiesce";
}

bool is_fault(const farm::ScriptAction& a) {
  switch (a.kind) {
    case farm::ActionKind::kFailNode:
    case farm::ActionKind::kFailAdapter:
    case farm::ActionKind::kFailAdapterRecv:
    case farm::ActionKind::kFailAdapterSend:
    case farm::ActionKind::kFailSwitch:
    case farm::ActionKind::kMoveAdapter:
    case farm::ActionKind::kPartitionVlan:
      return true;
    default:
      return false;
  }
}

// Nodes the schedule generator treats as GSC hosts (flat and both tiers).
std::vector<std::size_t> gsc_nodes(farm::Farm& f) {
  std::vector<std::size_t> nodes;
  if (auto n = f.expected_gsc_node()) nodes.push_back(*n);
  if (f.spec().is_hierarchical()) {
    if (auto n = f.expected_root_node()) nodes.push_back(*n);
    for (int d = 0; d < f.spec().hier_domains; ++d)
      if (auto n = f.expected_domain_gsc_node(static_cast<std::uint32_t>(d)))
        nodes.push_back(*n);
  }
  return nodes;
}

Pass run_churn(const Shape& s, const Options& o, Tracing tracing,
               const Plan& plan) {
  Pass p;
  soak::SoakOptions so;
  so.spec = s.spec;
  so.params = s.params;
  so.horizon = s.horizon;
  so.fault_count = s.faults;
  // Domain moves are left out of the schedule by default: a move into a
  // ~120-member VLAN can wedge it for good (README.md, "Findings" 1), which
  // would fail the workload on a few percent of seeds.
  if (!o.domain_moves) so.weight_move = 0;
  const sim::SimDuration settle = s.params.group_lease + s.params.move_window +
                                  s.params.amg_stable_wait +
                                  2 * s.params.report_retry + sim::seconds(3);
  // Slices divide kReconvergePoll, so ground truth is polled on slice ends.
  const sim::SimDuration slice =
      tracing == Tracing::kFull ? s.traced_slice : s.slice;
  // Unit u runs the farm and schedule of seed + u; simulated-time results
  // come from the guaranteed units.
  std::vector<double> stabilize, load, reconverge;
  bool all_reconverged = true;
  const auto begin = Clock::now();
  for (int u = 0; u < plan.units || since(begin) < plan.budget; ++u) {
    so.seed = o.seed + static_cast<std::uint64_t>(u);
    const auto t0 = Clock::now();
    sim::Simulator sim;
    farm::Farm f(sim, s.spec, s.params, so.seed);
    const double build = since(t0);
    std::vector<farm::ScriptAction> schedule = soak::generate_schedule(f, so);
    const std::vector<std::size_t> gsc = gsc_nodes(f);
    Observers ob;
    ob.attach(f, tracing);
    const auto t1 = Clock::now();
    f.start();
    const double start = since(t1);
    std::optional<sim::SimTime> stable;
    if (farm::run_until_converged(f, kConvergeDeadline, kPoll)) {
      farm::run_until(
          sim, kConvergeDeadline,
          [&] { return (stable = stable_at(f)).has_value(); }, kPoll);
    }
    if (stable) sim.run_until(ceil_second(sim.now()));
    const double setup = since(t0);
    p.setup_s.push_back(setup);
    if (!stable) {
      ++p.attempted;
      ++p.failed;
      p.problems.push_back("churn: farm did not converge before the faults");
      continue;
    }
    const bool guaranteed = u < plan.units;
    if (guaranteed) stabilize.push_back(sim::to_seconds(*stable));

    // Shift the relative schedule two seconds past convergence.
    const sim::SimTime offset = sim.now() + 2 * sim::kSecond;
    for (farm::ScriptAction& a : schedule) a.at += offset;
    const sim::SimTime horizon_end = offset + s.horizon;
    if (o.unrecovered_fault) {
      schedule.push_back({horizon_end, farm::ActionKind::kPartitionVlan,
                          farm::internal_vlan(0).value(), 0});
    }
    const std::uint64_t faults = static_cast<std::uint64_t>(
        std::count_if(schedule.begin(), schedule.end(), is_fault));
    const sim::SimTime last_action =
        schedule.empty() ? offset : schedule.back().at;
    farm::ScriptRun script_run;
    farm::schedule_script(f, schedule, &script_run);

    const sim::SimTime from = sim.now();
    const std::uint64_t events0 = sim.executed_events();
    // Ground truth is polled every kReconvergePoll once the last action is
    // past, outside the timed part of each step. Reconvergence is the start
    // of the first converged streak that lasts kReconvergeHold (or holds at
    // the quiesce deadline).
    std::optional<sim::SimTime> reconverged;
    const auto poll = [&](sim::SimTime now) {
      if (now <= last_action || (now - from) % kReconvergePoll != 0) return;
      if (!f.converged())
        reconverged.reset();
      else if (!reconverged)
        reconverged = now;
    };
    // The timed window has a fixed simulated length, so host time compares
    // across seeds.
    Steps steps;
    const Sliced window = run_slices(
        from, from + s.measured, slice,
        [&sim](sim::SimTime to) { sim.run_until(to); }, p.slice_ms, &steps,
        [&poll](sim::SimTime now) {
          poll(now);
          return true;
        });
    p.run_s.push_back(window.host_s);
    p.run_total_s += window.host_s;
    p.window_events += sim.executed_events() - events0;
    p.window_sim_s += sim::to_seconds(window.reached - from);
    if (u == 0) p.min_unit_slices = p.slice_ms.size();

    // The rest of the quiesce and the settle are not timed.
    const sim::SimTime deadline = horizon_end + s.quiesce;
    for (sim::SimTime now = sim.now();
         now < deadline &&
         !(reconverged && now - *reconverged >= kReconvergeHold);) {
      now = std::min(deadline, now + kReconvergePoll);
      sim.run_until(now);
      poll(now);
    }
    const sim::SimTime t = sim.now() + settle;
    sim.run_until(t);
    if (guaranteed) {
      if (reconverged)
        reconverge.push_back(sim::to_seconds(*reconverged - last_action));
      all_reconverged = all_reconverged && reconverged.has_value();
    }

    // Operations are the scheduled faults; each soak invariant violation or
    // a missed reconvergence fails one of them. (Like the soak runner, an
    // action whose target vanished first is not a protocol failure.)
    Pass check;
    check_farm(f, check, "churn", faults);
    std::uint64_t failed = check.failed;
    if (!reconverged) {
      ++failed;
      check.problems.push_back("churn: farm did not reconverge within " +
                               std::to_string(sim::to_seconds(s.quiesce)) +
                               " s of the fault window");
    }
    if (ob.invariants && !ob.invariants->violations().empty()) {
      failed += ob.invariants->violations().size();
      check.problems.push_back("churn: trace invariants violated (" +
                               ob.invariants->violations().front().detail +
                               ")");
    }
    p.attempted += faults;
    p.failed += std::min(faults, failed);
    for (std::string& msg : check.problems)
      p.problems.push_back(std::move(msg));
    // The settled farm's load. Churn traffic itself depends on the schedule
    // (net.bytes_sent of the traced run shows it).
    if (guaranteed) {
      const std::uint64_t settled_bytes = f.fabric().total_bytes_sent();
      sim.run_until(t + kLoadWindow);
      load.push_back(
          static_cast<double>(f.fabric().total_bytes_sent() - settled_bytes) /
          static_cast<double>(s.spec.total_adapters()) /
          sim::to_seconds(kLoadWindow));
    }
    if (u > 0) continue;  // observe the first unit, which runs `seed`
    p.counts = counts_of(f);
    p.digest = ob.trace_digest(tracing);
    farm_setup_layers(build, start, setup - build - start, p);
    if (tracing != Tracing::kFull) continue;
    traced_farm_layers(f, ob, p);
    ob.tally.detection_hops(p.layers);
    if (const auto* h = f.metrics().find_histogram(
            obs::SpanTracker::histogram_name(obs::SpanKind::kDetection))) {
      const double pct = tail_percentile(h->count());
      p.layers["detect_p50_s"] = static_cast<double>(h->p50()) / 1e6;
      p.layers["detect_tail_pct"] = pct;
      p.layers["detect_tail_s"] =
          static_cast<double>(pct > 0 ? h->quantile(pct / 100.0) : h->max()) /
          1e6;
      p.layers["detect_samples"] = static_cast<double>(h->count());
    }
    // One phase per fault family: each timed step's host time goes to the
    // family of the latest action at or before the step's start; `quiesce`
    // gets the steps before the first action and after the fault window.
    for (const char* name : {"node", "adapter", "switch", "partition", "move",
                             "gsc_failover", "quiesce"})
      p.layers[std::string("phase.") + name + ".host_s"] = 0;
    sim::SimTime prev = from;
    std::size_t next = 0;
    std::string family = "quiesce";
    for (const auto& [end, host] : steps) {
      while (next < schedule.size() && schedule[next].at <= prev)
        family = family_of(schedule[next++], gsc);
      const std::string& name = prev >= horizon_end ? "quiesce" : family;
      p.layers["phase." + name + ".host_s"] += host;
      prev = end;
    }
  }
  p.stabilize_s = median(stabilize);
  p.net_bytes_per_adapter_s = median(load);
  if (all_reconverged && !reconverge.empty())
    p.reconverge_s = *std::max_element(reconverge.begin(), reconverge.end());
  return p;
}

// --- Output ------------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"slice_ms_p50", "ms/sim_s"},
    {"slice_ms_tail", "ms/sim_s"},
    {"peak_rss_mib", "MiB"},
    {"stabilize_s", "sim_s"},
    {"net_bytes_per_adapter_s", "B/adapter/s"},
};

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"farm.build_s", "s"},
        {"farm.start_s", "s"},
        {"farm.converge_s", "s"},
        {"sim.events", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.queue.high_water", "count"},
        {"sim.queue.slots", "count"},
        {"net.frames_sent", "count"},
        {"net.deliveries", "count"},
        {"net.deliveries_per_frame", "ratio"},
        {"net.bytes_sent", "B"},
        {"net.frames_lost", "count"},
    };
    for (const char* t : {"beacon", "join-request", "prepare", "prepare-ack",
                          "commit", "heartbeat", "suspect", "suspect-ack",
                          "probe", "probe-ack", "stale-notice",
                          "membership-report", "report-ack", "domain-report",
                          "domain-report-ack"})
      d.push_back({std::string("wire.decoded.") + t, "count"});
    for (const char* r : {"too-short", "bad-magic", "bad-version",
                          "length-mismatch", "bad-checksum", "decode",
                          "unknown-type"})
      d.push_back({std::string("wire.dropped.") + r, "count"});
    for (const char* t : {"beacon", "join-request", "prepare", "commit",
                          "heartbeat", "membership-report", "domain-report"})
      d.push_back({std::string("wire.replay_ns.") + t, "ns"});
    const std::vector<MetricDef> rest = {
        {"gs.elections", "count"},
        {"gs.twopc.prepares", "count"},
        {"gs.twopc.commits", "count"},
        {"gs.twopc.aborts", "count"},
        {"gs.twopc.commit_ratio", "ratio"},
        {"gs.views_installed", "count"},
        {"gs.fd.misses", "count"},
        {"gs.fd.suspicions", "count"},
        {"gs.fd.probes", "count"},
        {"gs.fd.false_suspicion_ratio", "ratio"},
        {"gs.hop.beacon_phase_s", "sim_s"},
        {"gs.hop.election_to_commit_s", "sim_s"},
        {"gs.hop.commit_to_report_s", "sim_s"},
        {"gs.hop.report_to_stable_s", "sim_s"},
        {"gs.hop.fault_to_miss_s", "sim_s"},
        {"gs.hop.miss_to_suspect_s", "sim_s"},
        {"gs.hop.suspect_to_death_s", "sim_s"},
        {"gs.hop.death_to_report_s", "sim_s"},
        {"gs.hop.report_to_commit_s", "sim_s"},
        {"gs.hop.chains", "count"},
        {"report.sent", "count"},
        {"report.retries", "count"},
        {"report.need_full", "count"},
        {"report.dups", "count"},
        {"report.applied_ratio", "ratio"},
        {"domain_report.sent", "count"},
        {"domain_report.retries", "count"},
        {"domain_report.need_full", "count"},
        {"domain_report.dups", "count"},
        {"domain_report.applied_ratio", "ratio"},
        {"central.applied", "count"},
        {"central.failures_held", "count"},
        {"central.failures_committed", "count"},
        {"central.verify_inconsistencies", "count"},
        {"central.ingest_replay_ns_per_report", "ns"},
        {"root.applied", "count"},
        {"root.need_fulls", "count"},
        {"shard.epoch_us", "us"},
        {"shard.windows", "count"},
        {"shard.frames_forwarded", "count"},
        {"shard.event_inflation", "ratio"},
        {"shard.event_imbalance", "ratio"},
        {"shard.host_us_per_window", "us"},
        {"phase.discovery.host_s", "s"},
        {"phase.election.host_s", "s"},
        {"phase.formation.host_s", "s"},
        {"phase.reporting.host_s", "s"},
        {"phase.gsc_wait.host_s", "s"},
        {"phase.node.host_s", "s"},
        {"phase.adapter.host_s", "s"},
        {"phase.switch.host_s", "s"},
        {"phase.partition.host_s", "s"},
        {"phase.move.host_s", "s"},
        {"phase.gsc_failover.host_s", "s"},
        {"phase.quiesce.host_s", "s"},
        {"trace.overhead_ratio", "ratio"},
        {"detect_p50_s", "sim_s"},
        {"detect_tail_s", "sim_s"},
        {"detect_tail_pct", "pct"},
        {"detect_samples", "count"},
        {"reconverge_s", "sim_s"},
        {"slice.tail_pct", "pct"},
        {"slice.samples", "count"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Tail {
  double pct = 0;
  double value = 0;
};

// Tail of the slice distribution at the percentile the guaranteed units'
// sample count supports (so one workload always reports one percentile).
Tail slice_tail(const Pass& p) {
  Tail t;
  t.pct = tail_percentile(p.min_unit_slices);
  t.value = t.pct > 0 ? quantile(p.slice_ms, t.pct / 100.0)
                      : *std::max_element(p.slice_ms.begin(), p.slice_ms.end());
  return t;
}

Metrics end_to_end(const Pass& p) {
  Metrics m;
  m["setup_s"] = median(p.setup_s);
  m["run_s"] = median(p.run_s);
  m["slice_ms_p50"] = median(p.slice_ms);
  m["slice_ms_tail"] = p.slice_ms.empty() ? 0.0 : slice_tail(p).value;
  m["peak_rss_mib"] = peak_rss_mib();
  m["stabilize_s"] = p.stabilize_s;
  m["net_bytes_per_adapter_s"] = p.net_bytes_per_adapter_s;
  return m;
}

// Tracing must only observe: the untraced, digest-only and fully traced
// passes of one seed must agree exactly. Every mismatch is reported.
std::vector<std::string> determinism_guard(const Pass& a, const Pass& b,
                                           const Pass& c) {
  std::vector<std::string> out;
  auto cmp = [&out](const Counts& x, const Counts& y, const char* xn,
                    const char* yn) {
    for (const auto& [k, v] : x) {
      auto it = y.find(k);
      const std::uint64_t w = it == y.end() ? 0 : it->second;
      if (v != w) {
        out.push_back("guard: " + k + " " + xn + "=" + std::to_string(v) +
                      " " + yn + "=" + std::to_string(w));
      }
    }
  };
  cmp(a.counts, c.counts, "untraced", "traced");
  cmp(b.counts, c.counts, "digest-only", "traced");
  if (b.digest != c.digest) {
    out.push_back("guard: trace digest digest-only=" +
                  std::to_string(b.digest) + " traced=" +
                  std::to_string(c.digest));
  }
  auto same = [&out](double x, double y, const char* what) {
    if (x != y) {
      out.push_back(std::string("guard: ") + what + " untraced=" + fmt(x) +
                    " traced=" + fmt(y));
    }
  };
  same(a.stabilize_s, c.stabilize_s, "stabilize_s");
  same(a.net_bytes_per_adapter_s, c.net_bytes_per_adapter_s,
       "net_bytes_per_adapter_s");
  same(a.reconverge_s.value_or(-1), c.reconverge_s.value_or(-1),
       "reconverge_s");
  return out;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "farmbench: %s\nusage: farmbench --workload "
               "boot|steady|churn --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--unrecovered-fault] [--domain-moves] "
               "[--git-sha SHA] [--source-digest HEX]\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--unrecovered-fault") {
      o.unrecovered_fault = true;
      continue;
    }
    if (arg == "--domain-moves") {
      o.domain_moves = true;
      continue;
    }
    if ((v = value()) == nullptr)
      return usage(("missing value for " + arg).c_str());
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace takes 0 or 1");
      o.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--size") {
      if (std::strcmp(v, "full") != 0 && std::strcmp(v, "tiny") != 0)
        return usage("--size takes full or tiny");
      o.tiny = std::strcmp(v, "tiny") == 0;
    } else if (arg == "--git-sha") {
      o.git_sha = v;
    } else if (arg == "--source-digest") {
      o.source_digest = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  using Runner = Pass (*)(const Shape&, const Options&, Tracing, const Plan&);
  Runner runner = nullptr;
  if (!have_workload) return usage("--workload is required");
  if (o.workload == "boot") runner = run_boot;
  if (o.workload == "steady") runner = run_steady;
  if (o.workload == "churn") runner = run_churn;
  if (runner == nullptr)
    return usage(("unknown workload " + o.workload).c_str());
  const unsigned nproc = std::thread::hardware_concurrency();
  // The ShardedFarm passes of a traced steady run start one worker thread
  // per shard.
  if (o.workload == "steady" && o.trace && nproc < kShards) {
    std::fprintf(stderr, "farmbench: %zu shards need %zu cores, have %u\n",
                 kShards, kShards, nproc);
    return 2;
  }

  const Shape shape = shape_for(o.workload, o.tiny);
  std::printf(
      "provenance {\"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"nproc\": %u, \"build_type\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"size\": \"%s\", \"nodes\": %d, \"adapters\": %d, "
      "\"trace\": %d, \"domain_moves\": %d}\n",
      json_escape(o.git_sha).c_str(), json_escape(o.source_digest).c_str(),
      nproc, FARMBENCH_BUILD_TYPE, o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.tiny ? "tiny" : "full",
      shape.spec.total_nodes(), shape.spec.total_adapters(), o.trace ? 1 : 0,
      o.domain_moves ? 1 : 0);
  std::fflush(stdout);

  Pass main_pass;
  Metrics out;
  std::vector<std::string> problems;
  const std::vector<MetricDef>* defs = nullptr;
  if (!o.trace) {
    main_pass = runner(shape, o, Tracing::kOff,
                       Plan{shape.setups, shape.min_units, o.seconds});
    out = end_to_end(main_pass);
    defs = &kEndToEnd;
  } else {
    // Boot's set-ups are build-only extras; the traced passes skip them.
    const Plan fixed{o.workload == "boot" ? 0 : 1, shape.traced_units, 0};
    main_pass = runner(shape, o, Tracing::kOff, fixed);
    const Pass digest_pass = runner(shape, o, Tracing::kDigest, fixed);
    const Pass traced = runner(shape, o, Tracing::kFull, fixed);
    problems = determinism_guard(main_pass, digest_pass, traced);
    for (const std::string& p : digest_pass.problems) problems.push_back(p);
    for (const std::string& p : traced.problems) problems.push_back(p);
    for (const MetricDef& d : per_layer_defs()) out[d.name] = 0.0;
    for (const auto& [k, v] : traced.layers) out[k] = v;
    // Host-time layer metrics come from the untraced pass.
    for (const char* k : {"farm.build_s", "farm.start_s", "farm.converge_s"}) {
      auto it = main_pass.layers.find(k);
      if (it != main_pass.layers.end()) out[k] = it->second;
    }
    out["sim.events"] = static_cast<double>(main_pass.window_events);
    out["sim.host_ns_per_event"] =
        main_pass.window_events > 0
            ? main_pass.run_total_s * 1e9 /
                  static_cast<double>(main_pass.window_events)
            : 0.0;
    out["trace.overhead_ratio"] =
        median(traced.run_s) / median(main_pass.run_s);
    if (main_pass.reconverge_s) out["reconverge_s"] = *main_pass.reconverge_s;
    // The shard layer. `steady` also runs its farm under ShardedFarm at 2
    // shards, twice: the trace digest at a fixed shard count must replay
    // exactly. Inflation compares events with the plain Farm's for the same
    // window.
    if (o.workload == "steady") {
      const Pass first = run_sharded(shape, o, shape.traced_units);
      const Pass second = run_sharded(shape, o, shape.traced_units);
      if (first.digest != second.digest) {
        problems.push_back("sharded: trace digest differs between two runs "
                           "at 2 shards");
      }
      for (const Pass* q : {&first, &second}) {
        for (const std::string& msg : q->problems) problems.push_back(msg);
        if (q->failed > 0) problems.push_back("sharded: an operation failed");
      }
      for (const auto& [k, v] : first.layers)
        if (k.rfind("shard.", 0) == 0) out[k] = v;
      if (main_pass.window_events > 0) {
        out["shard.event_inflation"] =
            static_cast<double>(first.window_events) /
            static_cast<double>(main_pass.window_events);
      }
    }
    defs = &per_layer_defs();
  }
  for (const std::string& p : main_pass.problems) problems.push_back(p);
  const Tail tail = main_pass.slice_ms.empty() ? Tail{} : slice_tail(main_pass);
  if (o.trace) {
    out["slice.tail_pct"] = tail.pct;
    out["slice.samples"] = static_cast<double>(main_pass.slice_ms.size());
  }

  // Human-readable report.
  std::printf("span sim_s_measured=%s units=%zu setups=%zu\n",
              fmt(main_pass.window_sim_s).c_str(), main_pass.run_s.size(),
              main_pass.setup_s.size());
  std::printf("slice_ms_tail is p%s of %zu slices\n", fmt(tail.pct).c_str(),
              main_pass.slice_ms.size());
  if (main_pass.reconverge_s)
    std::printf("reconverge_s %s sim_s\n",
                fmt(*main_pass.reconverge_s).c_str());
  const double fail_frac =
      main_pass.attempted > 0 ? static_cast<double>(main_pass.failed) /
                                    static_cast<double>(main_pass.attempted)
                              : 1.0;
  std::printf("fail_frac %s (%llu of %llu operations)\n",
              fmt(fail_frac).c_str(),
              static_cast<unsigned long long>(main_pass.failed),
              static_cast<unsigned long long>(main_pass.attempted));
  for (const MetricDef& d : *defs)
    std::printf("metric %s %s %s\n", d.name.c_str(), fmt(out[d.name]).c_str(),
                d.unit.c_str());
  for (const std::string& p : problems)
    std::printf("check FAIL %s\n", p.c_str());
  const bool correct =
      problems.empty() && main_pass.failed == 0 && main_pass.attempted > 0;
  std::printf("check %s: %s\n", o.workload.c_str(), correct ? "ok" : "FAILED");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                     main_pass.attempted, 1));
  json += ", \"failed\": " + std::to_string(main_pass.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : *defs) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + d.name + "\": {\"value\": " + fmt(out[d.name]) +
            ", \"unit\": \"" + d.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace farmbench

int main(int argc, char** argv) { return farmbench::run(argc, argv); }
