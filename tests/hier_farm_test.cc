// Farm-level integration of the two-level Central hierarchy: per-domain
// Centrals digest their VLANs into a RootCentral over batched DomainReports,
// with failover exercised at BOTH levels — a domain Central standby taking
// over (new epoch, slice replaced) and a root GSC loss rebuilding the
// aggregate from the domain fulls its successor solicits.
#include <gtest/gtest.h>

#include <optional>

#include "farm/farm.h"
#include "farm/scenario.h"

namespace gs {
namespace {

proto::Params hier_params() {
  proto::Params p;
  p.beacon_phase = sim::seconds(2);
  p.amg_stable_wait = sim::milliseconds(500);
  p.gsc_stable_wait = sim::seconds(2);
  p.move_window = sim::seconds(3);
  p.report_refresh = sim::seconds(2);
  p.group_lease = sim::seconds(6);
  return p;
}

class HierFarmTest : public ::testing::Test {
 protected:
  void build(int domains, int workers, std::uint64_t seed = 1) {
    params_ = hier_params();
    farm_.emplace(sim_, farm::FarmSpec::hierarchical(domains, workers),
                  params_, seed);
    farm_->start();
    ASSERT_TRUE(farm::run_until_converged(*farm_, sim::seconds(120)));
    ASSERT_TRUE(farm::run_until_gsc_stable(*farm_, sim::seconds(240)));
  }

  // Adapters the domain tier covers: everything off the root VLAN. (The
  // root VLAN's own membership — root mgmt plus the uplink adapters — is the
  // root-tier plain Central's job; the RootCentral only aggregates digests.)
  std::size_t domain_covered_healthy() {
    std::size_t n = 0;
    for (util::VlanId vlan : farm_->vlans())
      if (vlan != farm::admin_vlan())
        n += farm_->healthy_adapters_in_vlan(vlan).size();
    return n;
  }

  bool root_caught_up() {
    proto::RootCentral* root = farm_->active_root_central();
    return root != nullptr &&
           root->alive_adapter_count() == domain_covered_healthy();
  }

  sim::Simulator sim_;
  proto::Params params_;
  std::optional<farm::Farm> farm_;
};

TEST_F(HierFarmTest, DigestsReachRootAndDeriveGroups) {
  build(2, 3);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(60),
                              [&] { return root_caught_up(); }));
  proto::RootCentral* root = farm_->active_root_central();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->domain_count(), 2u);
  // One derived group per non-root VLAN: each domain's admin VLAN plus its
  // workers' data VLAN.
  EXPECT_EQ(root->groups().size(), 4u);
  EXPECT_GT(root->reports_received(), 0u);
  // Rows carry the owning domain, and the root tier also runs a plain
  // Central for the root VLAN itself.
  for (util::VlanId vlan : farm_->vlans()) {
    if (vlan == farm::admin_vlan()) continue;
    for (util::AdapterId id : farm_->healthy_adapters_in_vlan(vlan)) {
      auto status = root->adapter_status(farm_->fabric().adapter(id).ip());
      ASSERT_TRUE(status.has_value());
      EXPECT_TRUE(status->alive);
    }
  }
  EXPECT_NE(farm_->active_root_tier_central(), nullptr);
}

TEST_F(HierFarmTest, DomainCentralFailoverStandbyTakesOver) {
  build(2, 3);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(60),
                              [&] { return root_caught_up(); }));
  const auto victim = farm_->expected_domain_gsc_node(0);
  ASSERT_TRUE(victim.has_value());
  farm_->fail_node(*victim);
  // The standby management node must win the domain-admin election, bring
  // up its own Central + uplink incarnation (new epoch), and re-establish
  // the domain's slice at the root — minus the dead node's adapters.
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(120), [&] {
    const auto now_expected = farm_->expected_domain_gsc_node(0);
    return now_expected.has_value() && *now_expected != *victim &&
           farm_->active_domain_central(0) != nullptr && root_caught_up();
  }));
  proto::RootCentral* root = farm_->active_root_central();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->domain_count(), 2u);
  // The re-established slice still attributes its rows to domain 0.
  const util::VlanId vlan = farm::domain_admin_vlan(0);
  for (util::AdapterId id : farm_->healthy_adapters_in_vlan(vlan)) {
    auto status = root->adapter_status(farm_->fabric().adapter(id).ip());
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(status->alive);
    EXPECT_EQ(status->domain, 0u);
  }
}

TEST_F(HierFarmTest, RootFailoverRebuildsFromDomainFulls) {
  build(2, 3);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(60),
                              [&] { return root_caught_up(); }));
  const auto victim = farm_->expected_root_node();
  ASSERT_TRUE(victim.has_value());
  proto::RootCentral* old_root = farm_->active_root_central();
  ASSERT_NE(old_root, nullptr);
  farm_->fail_node(*victim);
  // A fresh RootCentral starts empty on the surviving root-tier node and
  // rebuilds the whole farm view from the fulls the uplinks send when the
  // root-VLAN AMG re-elects (or its need_full acks solicit).
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(120), [&] {
    const auto now_expected = farm_->expected_root_node();
    proto::RootCentral* root = farm_->active_root_central();
    return now_expected.has_value() && *now_expected != *victim &&
           root != nullptr && root != old_root && root_caught_up();
  }));
  EXPECT_EQ(farm_->active_root_central()->domain_count(), 2u);
}

TEST_F(HierFarmTest, DarkDomainExpiresWholesaleAndRecovers) {
  build(2, 3);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(60),
                              [&] { return root_caught_up(); }));
  // Kill BOTH of domain 1's management nodes: no eligible host remains, so
  // the domain goes dark at the root — no successor, no death notices.
  const auto first = farm_->expected_domain_gsc_node(1);
  ASSERT_TRUE(first.has_value());
  farm_->fail_node(*first);
  const auto second = farm_->expected_domain_gsc_node(1);
  ASSERT_TRUE(second.has_value());
  ASSERT_NE(*second, *first);
  farm_->fail_node(*second);
  // After group_lease of silence the root retires the slice wholesale:
  // every row it owned goes dead and the incarnation is forgotten.
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(120), [&] {
    proto::RootCentral* root = farm_->active_root_central();
    return root != nullptr && root->domain_count() == 1;
  }));
  proto::RootCentral* root = farm_->active_root_central();
  for (util::AdapterId id :
       farm_->healthy_adapters_in_vlan(farm::domain_admin_vlan(1))) {
    auto status = root->adapter_status(farm_->fabric().adapter(id).ip());
    ASSERT_TRUE(status.has_value());
    EXPECT_FALSE(status->alive);  // stale-info-wins: dark, presumed dead
  }
  // A management node returning re-elects the domain Central, whose fresh
  // epoch re-establishes the slice and revives the rows.
  farm_->recover_node(*first);
  ASSERT_TRUE(farm::run_until(sim_, sim_.now() + sim::seconds(180), [&] {
    proto::RootCentral* r = farm_->active_root_central();
    return r != nullptr && r->domain_count() == 2 && root_caught_up();
  }));
}

}  // namespace
}  // namespace gs
