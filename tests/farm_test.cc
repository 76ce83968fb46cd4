// Farm builder and scenario-helper unit tests.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string>

#include "farm/farm.h"
#include "farm/scenario.h"
#include "obs/jsonl_sink.h"
#include "soak/schedule.h"

namespace gs::farm {
namespace {

TEST(FarmSpec, UniformCounts) {
  const FarmSpec spec = FarmSpec::uniform(55, 3);
  EXPECT_EQ(spec.total_nodes(), 55);
  EXPECT_EQ(spec.total_adapters(), 165);
}

TEST(FarmSpec, OceanoCounts) {
  const FarmSpec spec = FarmSpec::oceano(2, 2, 2, 2, 2);
  // 2 mgmt + 2 dispatchers + 2*(2+2) nodes.
  EXPECT_EQ(spec.total_nodes(), 12);
  // mgmt: 2*1; dispatchers: 2*(1+2); fronts: 4*3; backs: 4*2.
  EXPECT_EQ(spec.total_adapters(), 2 + 6 + 12 + 8);
}

TEST(FarmSpec, VlanNumbering) {
  EXPECT_EQ(admin_vlan(), util::VlanId(1));
  EXPECT_EQ(internal_vlan(0), util::VlanId(100));
  EXPECT_EQ(dispatch_vlan(3), util::VlanId(203));
  EXPECT_EQ(uniform_vlan(0), admin_vlan());
  EXPECT_EQ(uniform_vlan(2), util::VlanId(302));
}

class FarmBuildTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  proto::Params params_;
};

TEST_F(FarmBuildTest, UniformFarmShape) {
  Farm farm(sim_, FarmSpec::uniform(6, 3), params_, 1);
  EXPECT_EQ(farm.node_count(), 6u);
  EXPECT_EQ(farm.fabric().adapter_count(), 18u);
  EXPECT_EQ(farm.db().node_count(), 6u);
  EXPECT_EQ(farm.db().adapter_count(), 18u);
  // Three VLANs, six adapters each.
  const auto vlans = farm.vlans();
  EXPECT_EQ(vlans.size(), 3u);
  for (util::VlanId vlan : vlans)
    EXPECT_EQ(farm.fabric().adapters_in_vlan(vlan).size(), 6u);
}

TEST_F(FarmBuildTest, OceanoRolesAndDomains) {
  Farm farm(sim_, FarmSpec::oceano(2, 2, 1, 1, 2), params_, 1);
  EXPECT_EQ(farm.nodes_with_role(NodeRole::kManagement).size(), 2u);
  EXPECT_EQ(farm.nodes_with_role(NodeRole::kDispatcher).size(), 1u);
  EXPECT_EQ(farm.nodes_with_role(NodeRole::kFrontEnd).size(), 4u);
  EXPECT_EQ(farm.nodes_with_role(NodeRole::kBackEnd).size(), 2u);

  // Front ends carry exactly [admin, internal, dispatch].
  for (std::size_t idx : farm.nodes_with_role(NodeRole::kFrontEnd)) {
    const auto& adapters = farm.node_adapters(idx);
    ASSERT_EQ(adapters.size(), 3u);
    const auto domain = farm.domain_of(idx).value();
    EXPECT_EQ(farm.fabric().vlan_of(adapters[0]), admin_vlan());
    EXPECT_EQ(farm.fabric().vlan_of(adapters[1]), internal_vlan(domain));
    EXPECT_EQ(farm.fabric().vlan_of(adapters[2]), dispatch_vlan(domain));
  }
  // Back ends: [admin, internal].
  for (std::size_t idx : farm.nodes_with_role(NodeRole::kBackEnd)) {
    ASSERT_EQ(farm.node_adapters(idx).size(), 2u);
  }
  // Dispatchers: [admin, dispatch(0), dispatch(1)].
  for (std::size_t idx : farm.nodes_with_role(NodeRole::kDispatcher)) {
    const auto& adapters = farm.node_adapters(idx);
    ASSERT_EQ(adapters.size(), 3u);
    EXPECT_EQ(farm.fabric().vlan_of(adapters[1]), dispatch_vlan(0));
    EXPECT_EQ(farm.fabric().vlan_of(adapters[2]), dispatch_vlan(1));
  }
}

TEST_F(FarmBuildTest, ManagementNodesHoldHighestAdminIps) {
  Farm farm(sim_, FarmSpec::oceano(2, 3, 3, 2, 2), params_, 1);
  util::IpAddress max_regular, min_mgmt(255, 255, 255, 255);
  for (std::size_t i = 0; i < farm.node_count(); ++i) {
    const util::IpAddress ip =
        farm.fabric().adapter(farm.node_adapters(i)[0]).ip();
    if (farm.role(i) == NodeRole::kManagement)
      min_mgmt = std::min(min_mgmt, ip);
    else
      max_regular = std::max(max_regular, ip);
  }
  EXPECT_LT(max_regular, min_mgmt)
      << "admin-AMG leadership (= GSC) must land on a management node";
}

TEST_F(FarmBuildTest, OnlyManagementIsCentralEligible) {
  Farm farm(sim_, FarmSpec::oceano(1, 1, 1, 1, 1), params_, 1);
  for (std::size_t i = 0; i < farm.node_count(); ++i) {
    const bool eligible = farm.db().node(util::NodeId(
        static_cast<std::uint32_t>(i)))->central_eligible;
    EXPECT_EQ(eligible, farm.role(i) == NodeRole::kManagement);
    EXPECT_EQ(farm.daemon(i).central() != nullptr, eligible);
  }
}

TEST_F(FarmBuildTest, GloballyUniqueIps) {
  Farm farm(sim_, FarmSpec::oceano(3, 4, 4, 2, 2), params_, 1);
  std::set<util::IpAddress> ips;
  for (util::AdapterId id : farm.fabric().all_adapters()) {
    const util::IpAddress ip = farm.fabric().adapter(id).ip();
    EXPECT_TRUE(ips.insert(ip).second) << "duplicate " << ip;
  }
}

TEST_F(FarmBuildTest, NodesAreRackedOnOneSwitch) {
  FarmSpec spec = FarmSpec::uniform(10, 3);
  spec.switch_ports = 7;  // forces multiple switches, 2 nodes + 1 spare port
  Farm farm(sim_, spec, params_, 1);
  EXPECT_GT(farm.fabric().switch_count(), 1u);
  for (std::size_t i = 0; i < farm.node_count(); ++i) {
    std::set<util::SwitchId> switches;
    for (util::AdapterId id : farm.node_adapters(i))
      switches.insert(farm.fabric().adapter(id).attached_switch());
    EXPECT_EQ(switches.size(), 1u) << "node " << i << " spans switches";
  }
}

TEST_F(FarmBuildTest, DbWiringMatchesFabric) {
  Farm farm(sim_, FarmSpec::oceano(2, 2, 2, 1, 1), params_, 1);
  for (const auto& rec : farm.db().all_adapters()) {
    const net::Adapter& adapter = farm.fabric().adapter(rec.adapter);
    EXPECT_EQ(rec.ip, adapter.ip());
    EXPECT_EQ(rec.wired_switch, adapter.attached_switch());
    EXPECT_EQ(rec.wired_port, adapter.attached_port());
    EXPECT_EQ(rec.expected_vlan, farm.fabric().vlan_of(rec.adapter));
  }
}

TEST_F(FarmBuildTest, ConvergedIsFalseBeforeStart) {
  Farm farm(sim_, FarmSpec::uniform(3, 1), params_, 1);
  EXPECT_FALSE(farm.converged());
}

TEST_F(FarmBuildTest, ConsoleGateFollowsActiveCentral) {
  proto::Params params;
  params.beacon_phase = sim::seconds(2);
  params.amg_stable_wait = sim::milliseconds(400);
  params.gsc_stable_wait = sim::seconds(2);
  Farm farm(sim_, FarmSpec::uniform(4, 2), params, 1);
  // Before any Central activates, the console is unreachable.
  EXPECT_FALSE(farm.console().reachable());
  farm.start();
  ASSERT_TRUE(run_until_gsc_stable(farm, sim::seconds(60)));
  EXPECT_TRUE(farm.console().reachable());
  // Killing the GSC node's admin adapter cuts console access until failover.
  const util::AdapterId gsc_admin = farm.node_adapters(3)[0];
  farm.fabric().set_adapter_health(gsc_admin, net::HealthState::kDown);
  EXPECT_FALSE(farm.console().reachable());
}

// --- scenario helpers ---------------------------------------------------------

TEST(Scenario, RunUntilReturnsTimeOfPredicate) {
  sim::Simulator sim;
  bool flag = false;
  sim.after(sim::seconds(3), [&] { flag = true; });
  auto t = run_until(sim, sim::seconds(10), [&] { return flag; },
                     sim::milliseconds(500));
  ASSERT_TRUE(t.has_value());
  EXPECT_GE(*t, sim::seconds(3));
  EXPECT_LE(*t, sim::seconds(4));
}

TEST(Scenario, RunUntilTimesOut) {
  sim::Simulator sim;
  auto t = run_until(sim, sim::seconds(2), [] { return false; });
  EXPECT_FALSE(t.has_value());
  EXPECT_EQ(sim.now(), sim::seconds(2));
}

// --- golden trace pin ---------------------------------------------------------

// FNV-1a over a trace file's bytes, plus its line count; removes the file.
struct TraceDigest {
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  std::uint64_t lines = 0;
};

TraceDigest digest_and_remove(const std::string& path) {
  TraceDigest out;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  for (char c; in.get(c);) {
    out.digest = (out.digest ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
    if (c == '\n') ++out.lines;
  }
  in.close();
  std::remove(path.c_str());
  return out;
}

// A seeded oceano farm boots, loses its last node, gets it back and
// re-converges; the full JSONL trace (every record kind, beacon receptions
// included) is digested with FNV-1a and compared against a recorded
// constant. Performance work on the protocol and delivery paths must keep
// the simulated run byte-identical, so this digest never changes unless
// observable behaviour does — update it only together with a CHANGES.md
// line saying which behaviour changed and why.
TEST(GoldenTrace, SeededBootFailureRecoveryDigestIsPinned) {
  constexpr std::uint64_t kGoldenDigest = 0x02422aba42c70482ull;
  constexpr std::uint64_t kGoldenLines = 1791;

  const std::string path = ::testing::TempDir() + "/golden_trace.jsonl";
  {
    sim::Simulator sim;
    const proto::Params params;  // paper defaults: a full 5 s beacon phase
    Farm farm(sim, FarmSpec::oceano(2, 2, 2, 2, 2), params, /*seed=*/1313);
    obs::JsonlSink sink;
    ASSERT_TRUE(sink.open(path));
    auto tap = sink.tap(farm.trace_bus());
    farm.start();
    ASSERT_TRUE(run_until_converged(farm, sim::seconds(120)));
    const std::size_t victim = farm.node_count() - 1;
    farm.fail_node(victim);
    sim.run_until(sim.now() + sim::seconds(30));
    farm.recover_node(victim);
    ASSERT_TRUE(run_until_converged(farm, sim.now() + sim::seconds(120)));
    sink.close();
    ASSERT_TRUE(sink.ok());
  }

  const TraceDigest got = digest_and_remove(path);
  EXPECT_EQ(got.lines, kGoldenLines);
  EXPECT_EQ(got.digest, kGoldenDigest)
      << std::hex << "trace digest 0x" << got.digest
      << " — the seeded run's observable behaviour changed";
}

// The two-level hierarchy's report paths: AMG leader -> domain Central and
// domain uplink -> root GSC. The root GSC's node fails, then, while the
// uplinks are still retrying toward it, so does domain 0's Central node: its
// uplink drops its in-flight digest, its leaders retry toward the dead
// Central, and the successor root solicits fulls.
TEST(GoldenTrace, HierarchicalRootFailoverDigestIsPinned) {
  constexpr std::uint64_t kGoldenDigest = 0x1534c5e3de40c807ull;
  constexpr std::uint64_t kGoldenLines = 1061;

  const std::string path = ::testing::TempDir() + "/golden_hier_trace.jsonl";
  std::array<std::uint64_t, static_cast<std::size_t>(obs::TraceKind::kCount_)>
      kinds{};
  {
    sim::Simulator sim;
    const proto::Params params = soak::default_soak_params();
    Farm farm(sim, FarmSpec::hierarchical(2, 2), params, /*seed=*/2);
    obs::JsonlSink sink;
    ASSERT_TRUE(sink.open(path));
    auto tap = sink.tap(farm.trace_bus());
    auto count =
        farm.trace_bus().subscribe([&kinds](const obs::TraceRecord& r) {
          ++kinds[static_cast<std::size_t>(r.kind)];
        });
    farm.start();
    ASSERT_TRUE(run_until_converged(farm, sim::seconds(120)));
    const std::optional<std::size_t> root = farm.expected_root_node();
    ASSERT_TRUE(root.has_value());
    farm.fail_node(*root);
    sim.run_until(sim.now() + sim::milliseconds(1500));
    const std::optional<std::size_t> domain_gsc =
        farm.expected_domain_gsc_node(0);
    ASSERT_TRUE(domain_gsc.has_value());
    farm.fail_node(*domain_gsc);
    sim.run_until(sim.now() + sim::seconds(30));
    farm.recover_node(*root);
    farm.recover_node(*domain_gsc);
    ASSERT_TRUE(run_until_converged(farm, sim.now() + sim::seconds(120)));
    sink.close();
    ASSERT_TRUE(sink.ok());
  }

  // The pin must cover the report-channel paths on both tiers.
  auto seen = [&kinds](obs::TraceKind kind) {
    return kinds[static_cast<std::size_t>(kind)];
  };
  EXPECT_GT(seen(obs::TraceKind::kReportRetry), 0u);
  EXPECT_GT(seen(obs::TraceKind::kDomainReportRetry) +
                seen(obs::TraceKind::kDomainReportNeedFull),
            0u);
  EXPECT_GT(seen(obs::TraceKind::kDomainReportDropped), 0u);

  const TraceDigest got = digest_and_remove(path);
  EXPECT_EQ(got.lines, kGoldenLines);
  EXPECT_EQ(got.digest, kGoldenDigest)
      << std::hex << "trace digest 0x" << got.digest
      << " — the seeded run's observable behaviour changed";
}

}  // namespace
}  // namespace gs::farm
