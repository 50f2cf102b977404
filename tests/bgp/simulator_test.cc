#include "bgp/simulator.h"

#include <gtest/gtest.h>

#include "anycast/world.h"
#include "support/mini_world.h"

namespace anyopt::bgp {
namespace {

using anyopt::testing::MiniWorld;

constexpr SiteId kSiteA{0};
constexpr SiteId kSiteB{1};

/// Diamond: stub S buys transit from both tier-1s; one site behind each.
struct Diamond {
  topo::Internet net;
  AsId t1, t2, s;
  std::vector<OriginAttachment> attachments;

  explicit Diamond(bool stub_prefers_oldest = true) {
    MiniWorld w;
    t1 = w.tier1("T1", 10);
    t2 = w.tier1("T2", 20);
    s = w.stub(30);
    w.provide(t1, s);
    w.provide(t2, s);
    w.node(s).prefers_oldest = stub_prefers_oldest;
    net = w.finish();
    attachments = {MiniWorld::transit_attach(kSiteA, t1),
                   MiniWorld::transit_attach(kSiteB, t2)};
  }
};

TEST(Simulator, SingleSiteReachesEveryAs) {
  Diamond d;
  const Simulator sim(d.net, d.attachments);
  const std::vector<Injection> schedule{{0.0, 0, false}};
  const RoutingState state = sim.run(schedule, 1);
  for (const AsId as : {d.t1, d.t2, d.s}) {
    ASSERT_NE(state.best(as), nullptr) << "AS " << as.value();
  }
  const ResolvedPath path = state.resolve(d.s, {0, 0}, 0);
  ASSERT_TRUE(path.reachable);
  EXPECT_EQ(path.site, kSiteA);
}

TEST(Simulator, HostAsPrefersCustomerRouteOverPeerPath) {
  Diamond d;
  const Simulator sim(d.net, d.attachments);
  const std::vector<Injection> schedule{{0.0, 0, false}, {360.0, 1, false}};
  const RoutingState state = sim.run(schedule, 1);
  // Each tier-1 must keep its own customer route (LP 300) rather than the
  // peer-learned path through the other tier-1 (LP 200).
  ASSERT_NE(state.best(d.t1), nullptr);
  EXPECT_FALSE(state.best(d.t1)->neighbor.valid());  // direct origin route
  ASSERT_NE(state.best(d.t2), nullptr);
  EXPECT_FALSE(state.best(d.t2)->neighbor.valid());
}

TEST(Simulator, ArrivalOrderBreaksTieAtStub) {
  Diamond d(/*stub_prefers_oldest=*/true);
  const Simulator sim(d.net, d.attachments);
  // Both paths have LP 100 and length 2 at the stub; the tie goes to the
  // earlier announcement.
  const std::vector<Injection> a_first{{0.0, 0, false}, {360.0, 1, false}};
  const std::vector<Injection> b_first{{0.0, 1, false}, {360.0, 0, false}};
  const RoutingState sa = sim.run(a_first, 1);
  const RoutingState sb = sim.run(b_first, 1);
  EXPECT_EQ(sa.resolve(d.s, {0, 0}, 0).site, kSiteA);
  EXPECT_EQ(sb.resolve(d.s, {0, 0}, 0).site, kSiteB);
}

TEST(Simulator, RouterIdTieBreakIsOrderInsensitive) {
  Diamond d(/*stub_prefers_oldest=*/false);
  const Simulator sim(d.net, d.attachments);
  const std::vector<Injection> a_first{{0.0, 0, false}, {360.0, 1, false}};
  const std::vector<Injection> b_first{{0.0, 1, false}, {360.0, 0, false}};
  const SiteId site_a = sim.run(a_first, 1).resolve(d.s, {0, 0}, 0).site;
  const SiteId site_b = sim.run(b_first, 1).resolve(d.s, {0, 0}, 0).site;
  EXPECT_EQ(site_a, site_b);
  // T1 has the lower router id (10 < 20).
  EXPECT_EQ(site_a, kSiteA);
}

TEST(Simulator, GlobalAblationDisablesOldestStep) {
  Diamond d(/*stub_prefers_oldest=*/true);
  SimulatorOptions opts;
  opts.arrival_order_tiebreak = false;
  const Simulator sim(d.net, d.attachments, opts);
  const std::vector<Injection> b_first{{0.0, 1, false}, {360.0, 0, false}};
  // Even though B was announced first, router-id now decides (T1 wins).
  EXPECT_EQ(sim.run(b_first, 1).resolve(d.s, {0, 0}, 0).site, kSiteA);
}

TEST(Simulator, WithdrawFailsOverToOtherSite) {
  Diamond d;
  const Simulator sim(d.net, d.attachments);
  const std::vector<Injection> schedule{
      {0.0, 0, false}, {360.0, 1, false}, {720.0, 0, true}};
  const RoutingState state = sim.run(schedule, 1);
  const ResolvedPath path = state.resolve(d.s, {0, 0}, 0);
  ASSERT_TRUE(path.reachable);
  EXPECT_EQ(path.site, kSiteB);
}

TEST(Simulator, WithdrawingEverythingMakesPrefixUnreachable) {
  Diamond d;
  const Simulator sim(d.net, d.attachments);
  const std::vector<Injection> schedule{
      {0.0, 0, false}, {360.0, 0, true}};
  const RoutingState state = sim.run(schedule, 1);
  EXPECT_EQ(state.best(d.s), nullptr);
  EXPECT_FALSE(state.resolve(d.s, {0, 0}, 0).reachable);
}

TEST(Simulator, ShorterAsPathWinsRegardlessOfOrder) {
  // S buys from T1 directly and from T2 via a middle transit: the T1 path
  // is shorter, so announcing T2's site first must not matter.
  MiniWorld w;
  const AsId t1 = w.tier1("T1");
  const AsId t2 = w.tier1("T2");
  const AsId mid = w.transit();
  const AsId s = w.stub();
  w.provide(t2, mid);
  w.provide(t1, s);
  w.provide(mid, s);
  const topo::Internet net = w.finish();
  const std::vector<OriginAttachment> at{
      MiniWorld::transit_attach(kSiteA, t1),
      MiniWorld::transit_attach(kSiteB, t2)};
  const Simulator sim(net, at);
  const std::vector<Injection> b_first{{0.0, 1, false}, {360.0, 0, false}};
  const RoutingState state = sim.run(b_first, 1);
  EXPECT_EQ(state.resolve(s, {0, 0}, 0).site, kSiteA);
}

TEST(Simulator, PeerRouteNotExportedUpward) {
  // Origin peers with transit P; P's *provider* T1 must not learn the
  // route from P (valley-free), so an unrelated stub under T1 still goes
  // to the transit site.
  MiniWorld w;
  const AsId t1 = w.tier1("T1");
  const AsId t2 = w.tier1("T2");
  const AsId p = w.transit();
  const AsId other = w.stub();
  w.provide(t1, p);
  w.provide(t1, other);
  const topo::Internet net = w.finish();
  const std::vector<OriginAttachment> at{
      MiniWorld::transit_attach(kSiteA, t2),
      MiniWorld::peer_attach(kSiteB, p)};
  const Simulator sim(net, at);
  const std::vector<Injection> schedule{{0.0, 0, false}, {360.0, 1, false}};
  const RoutingState state = sim.run(schedule, 1);
  // P itself prefers the peer route (LP 200 vs provider 100).
  EXPECT_EQ(state.resolve(p, {0, 0}, 0).site, kSiteB);
  // T1 must not have a rib entry from P.
  for (const RibEntry& e : state.rib(t1)) {
    if (e.present) EXPECT_NE(e.neighbor, p);
  }
  // The unrelated stub reaches the transit site via T1 -> T2.
  EXPECT_EQ(state.resolve(other, {0, 0}, 0).site, kSiteA);
}

TEST(Simulator, PeerCatchmentCoversCustomerCone) {
  // Origin peers with transit P which has customer C: C reaches the peer
  // site through P (shorter+cheaper for P).
  MiniWorld w;
  const AsId t1 = w.tier1("T1");
  const AsId p = w.transit();
  const AsId c = w.stub();
  w.provide(t1, p);
  w.provide(p, c);
  const topo::Internet net = w.finish();
  const std::vector<OriginAttachment> at{
      MiniWorld::transit_attach(kSiteA, t1),
      MiniWorld::peer_attach(kSiteB, p)};
  const Simulator sim(net, at);
  const std::vector<Injection> schedule{{0.0, 0, false}, {360.0, 1, false}};
  const RoutingState state = sim.run(schedule, 1);
  EXPECT_EQ(state.resolve(c, {0, 0}, 0).site, kSiteB);
}

TEST(Simulator, SameAsSecondSiteDoesNotChangeAdvertisements) {
  // Two sites behind the same tier-1: the second announcement must not
  // trigger any new AS-level export (the paper's two-level separation).
  MiniWorld w;
  const AsId t1 = w.tier1("T1");
  const AsId t2 = w.tier1("T2");
  (void)t2;
  const AsId s = w.stub();
  w.provide(t1, s);
  const topo::Internet net = w.finish();
  const std::vector<OriginAttachment> at{
      MiniWorld::transit_attach(kSiteA, t1),
      MiniWorld::transit_attach(kSiteB, t1)};
  const Simulator sim(net, at);

  const std::vector<Injection> one{{0.0, 0, false}};
  const std::vector<Injection> both{{0.0, 0, false}, {360.0, 1, false}};
  const RoutingState s1 = sim.run(one, 1);
  const RoutingState s2 = sim.run(both, 1);
  // The second injection adds exactly one event (the host AS install);
  // nothing propagates further.
  EXPECT_EQ(s2.events_processed(), s1.events_processed() + 1);
}

TEST(Simulator, MultipathSplitsAcrossEqualRoutes) {
  Diamond d;
  d.net.graph.node_mut(d.s).multipath = true;
  const Simulator sim(d.net, d.attachments);
  const std::vector<Injection> schedule{{0.0, 0, false}, {360.0, 1, false}};
  const RoutingState state = sim.run(schedule, 1);
  ASSERT_EQ(state.best_set(d.s).equal_best.size(), 2u);
  bool saw_a = false;
  bool saw_b = false;
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    const SiteId site = state.resolve(d.s, {0, 0}, flow).site;
    saw_a |= site == kSiteA;
    saw_b |= site == kSiteB;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(Simulator, ResolveIsDeterministicPerFlow) {
  Diamond d;
  d.net.graph.node_mut(d.s).multipath = true;
  const Simulator sim(d.net, d.attachments);
  const std::vector<Injection> schedule{{0.0, 0, false}, {360.0, 1, false}};
  const RoutingState state = sim.run(schedule, 1);
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    EXPECT_EQ(state.resolve(d.s, {0, 0}, flow).site,
              state.resolve(d.s, {0, 0}, flow).site);
  }
}

TEST(Simulator, SameNonceSameOutcome) {
  Diamond d;
  const Simulator sim(d.net, d.attachments);
  // Simultaneous announcement: outcome depends on jitter, but the same
  // nonce must reproduce it exactly.
  const std::vector<Injection> simultaneous{{0.0, 0, false}, {0.0, 1, false}};
  const SiteId first = sim.run(simultaneous, 42).resolve(d.s, {0, 0}, 0).site;
  const SiteId again = sim.run(simultaneous, 42).resolve(d.s, {0, 0}, 0).site;
  EXPECT_EQ(first, again);
}

TEST(Simulator, InjectionsMustBeSorted) {
  Diamond d;
  const Simulator sim(d.net, d.attachments);
  const std::vector<Injection> bad{{360.0, 0, false}, {0.0, 1, false}};
  EXPECT_THROW((void)sim.run(bad, 1), std::invalid_argument);
}

TEST(Simulator, AnnounceSequenceHelperMatchesManualSchedule) {
  Diamond d;
  const Simulator sim(d.net, d.attachments);
  const std::vector<AttachmentIndex> order{1, 0};
  const RoutingState via_helper = sim.announce_sequence(order, 360.0, 7);
  const std::vector<Injection> manual{{0.0, 1, false}, {360.0, 0, false}};
  const RoutingState via_manual = sim.run(manual, 7);
  EXPECT_EQ(via_helper.resolve(d.s, {0, 0}, 0).site,
            via_manual.resolve(d.s, {0, 0}, 0).site);
  EXPECT_EQ(via_helper.events_processed(), via_manual.events_processed());
}

TEST(Simulator, StabilizesOnLargerRandomTopology) {
  topo::InternetParams params;
  params.regional_transit_count = 15;
  params.access_transit_count = 20;
  params.stub_count = 150;
  params.extra_pops_per_tier1_min = 2;
  params.extra_pops_per_tier1_max = 4;
  params.seed = 99;
  const topo::Internet net = topo::build_internet(params);
  std::vector<OriginAttachment> at;
  for (std::size_t i = 0; i < net.tier1s.size(); ++i) {
    bgp::OriginAttachment a;
    a.site = SiteId{static_cast<SiteId::underlying_type>(i)};
    a.neighbor = net.tier1s[i];
    a.neighbor_is = topo::Relation::kProvider;
    a.where = net.pops.network(net.tier1s[i]).pop(0).where;
    at.push_back(a);
  }
  const Simulator sim(net, at);
  std::vector<Injection> schedule;
  for (std::size_t i = 0; i < at.size(); ++i) {
    schedule.push_back({static_cast<double>(i) * 360.0,
                        static_cast<AttachmentIndex>(i), false});
  }
  const RoutingState state = sim.run(schedule, 5);
  // Every AS must have a route (tier-1 customer routes reach everyone).
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < net.graph.as_count(); ++i) {
    if (state.best(AsId{static_cast<AsId::underlying_type>(i)}) != nullptr) {
      ++reachable;
    }
  }
  EXPECT_EQ(reachable, net.graph.as_count());
}

TEST(Simulator, AttachmentPopTableMatchesNearestPopScan) {
  // The walk reads each attachment's egress PoP from the table the
  // constructor builds; it must be exactly the scan it replaces.
  for (const anycast::WorldParams& params :
       {anycast::WorldParams::test_scale(23),
        anycast::WorldParams::paper_scale(1897)}) {
    const auto world = anycast::World::create(params);
    const Simulator& sim = world->simulator();
    const topo::PopRegistry& pops = world->internet().pops;
    std::size_t with_pops = 0;
    for (AttachmentIndex i = 0; i < sim.attachments().size(); ++i) {
      const OriginAttachment& at = sim.attachments()[i];
      if (!pops.has(at.neighbor)) continue;
      ++with_pops;
      EXPECT_EQ(sim.attachment_pop(i),
                pops.network(at.neighbor).nearest_pop(at.where))
          << "attachment " << i;
    }
    EXPECT_GT(with_pops, 0u);
  }
}

}  // namespace
}  // namespace anyopt::bgp
