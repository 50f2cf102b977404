#include "topo/builder.h"

#include <gtest/gtest.h>

#include "anycast/world.h"
#include "netbase/rng.h"
#include "topo/serialize.h"

namespace anyopt::topo {
namespace {

InternetParams small_params(std::uint64_t seed) {
  InternetParams p;
  p.regional_transit_count = 12;
  p.access_transit_count = 16;
  p.stub_count = 120;
  p.extra_pops_per_tier1_min = 2;
  p.extra_pops_per_tier1_max = 4;
  p.seed = seed;
  return p;
}

TEST(Builder, GeneratedTopologyValidates) {
  const Internet net = build_internet(small_params(1));
  EXPECT_TRUE(net.graph.validate().ok());
}

TEST(Builder, HasRequestedTierSizes) {
  const auto params = small_params(2);
  const Internet net = build_internet(params);
  EXPECT_EQ(net.tier1s.size(), params.tier1_names.size());
  EXPECT_EQ(net.graph.ases_of_tier(Tier::kTier1).size(), 6u);
  EXPECT_EQ(net.graph.ases_of_tier(Tier::kTransit).size(),
            static_cast<std::size_t>(params.regional_transit_count +
                                     params.access_transit_count));
  EXPECT_EQ(net.graph.ases_of_tier(Tier::kStub).size(),
            static_cast<std::size_t>(params.stub_count));
}

TEST(Builder, Tier1sHavePopNetworks) {
  const Internet net = build_internet(small_params(3));
  for (const AsId t : net.tier1s) {
    EXPECT_TRUE(net.pops.has(t));
    EXPECT_GE(net.pops.network(t).pop_count(), 2u);
  }
}

TEST(Builder, RequiredPopsAreHonored) {
  auto params = small_params(4);
  params.required_tier1_pops = {{"Atlanta", "Stockholm"},
                                {"Los Angeles"},
                                {"Singapore"},
                                {"London"},
                                {"Tokyo", "Miami"},
                                {"Sao Paulo"}};
  const Internet net = build_internet(params);
  EXPECT_TRUE(
      net.pops.network(net.tier1_by_name("Telia")).pop_by_metro("Atlanta").ok());
  EXPECT_TRUE(net.pops.network(net.tier1_by_name("NTT")).pop_by_metro("Miami").ok());
  EXPECT_TRUE(
      net.pops.network(net.tier1_by_name("Sparkle")).pop_by_metro("Sao Paulo").ok());
}

TEST(Builder, Tier1ByNameThrowsOnUnknown) {
  const Internet net = build_internet(small_params(5));
  EXPECT_NO_THROW((void)net.tier1_by_name("Telia"));
  EXPECT_THROW((void)net.tier1_by_name("NoSuchCarrier"),
               std::invalid_argument);
}

TEST(Builder, DeterministicForSameSeed) {
  const Internet a = build_internet(small_params(6));
  const Internet b = build_internet(small_params(6));
  EXPECT_EQ(save_internet(a), save_internet(b));
}

TEST(Builder, DifferentSeedsDiffer) {
  const Internet a = build_internet(small_params(7));
  const Internet b = build_internet(small_params(8));
  EXPECT_NE(save_internet(a), save_internet(b));
}

TEST(Builder, PolicyFlagFractionsRoughlyRespected) {
  auto params = small_params(9);
  params.stub_count = 600;
  const Internet net = build_internet(params);
  std::size_t multipath = 0;
  std::size_t deviant = 0;
  std::size_t oldest = 0;
  for (const AsNode& n : net.graph.nodes()) {
    multipath += n.multipath;
    deviant += n.deviant_policy;
    oldest += n.prefers_oldest;
  }
  const double total = static_cast<double>(net.graph.as_count());
  EXPECT_NEAR(static_cast<double>(multipath) / total,
              params.multipath_fraction, 0.03);
  EXPECT_NEAR(static_cast<double>(deviant) / total, params.deviant_fraction,
              0.03);
  EXPECT_NEAR(static_cast<double>(oldest) / total,
              params.oldest_pref_fraction, 0.05);
}

TEST(Builder, DeviantTablesOnlyForDeviantAses) {
  const Internet net = build_internet(small_params(10));
  ASSERT_EQ(net.deviant_rank.size(), net.graph.as_count());
  for (std::size_t i = 0; i < net.graph.as_count(); ++i) {
    if (net.graph.nodes()[i].deviant_policy) {
      EXPECT_EQ(net.deviant_rank[i].size(), net.tier1s.size());
    } else {
      EXPECT_TRUE(net.deviant_rank[i].empty());
    }
  }
}

TEST(Builder, Tier1sNeverDeviant) {
  const Internet net = build_internet(small_params(11));
  for (const AsId t : net.tier1s) {
    EXPECT_FALSE(net.graph.node(t).deviant_policy);
  }
}

TEST(Builder, StubsHaveProviders) {
  const Internet net = build_internet(small_params(12));
  for (const AsId s : net.graph.ases_of_tier(Tier::kStub)) {
    bool has_provider = false;
    for (const Neighbor& n : net.graph.node(s).neighbors) {
      has_provider |= n.relation == Relation::kProvider;
    }
    EXPECT_TRUE(has_provider) << "stub " << net.graph.node(s).asn;
  }
}

/// The Internet parameters `anycast::World` builds from `params` (the same
/// seed derivation as its constructor), so the goldens below pin the exact
/// topologies the test, paper and Internet-scale worlds run on.
InternetParams world_internet(anycast::WorldParams params) {
  Rng master{params.seed};
  params.internet.seed = master.fork("internet")();
  return params.internet;
}

// Golden topologies: `build_internet` must keep producing these exact
// graphs (every link, latency and policy flag feeds the fingerprint), so a
// faster builder cannot silently become a different one.
constexpr std::uint64_t kTestScaleFingerprint = 638415025336249361ULL;
constexpr std::uint64_t kPaperScaleFingerprint = 17322884104976328825ULL;
constexpr std::uint64_t kAt35kFingerprint = 6363595272379702905ULL;

TEST(Builder, GoldenFingerprintTestScale) {
  const anycast::WorldParams params = anycast::WorldParams::test_scale(23);
  EXPECT_EQ(topology_fingerprint(build_internet(world_internet(params))),
            kTestScaleFingerprint);
  // The helper's seed derivation is the world's own.
  EXPECT_EQ(topology_fingerprint(anycast::World::create(params)->internet()),
            kTestScaleFingerprint);
}

TEST(Builder, GoldenFingerprintPaperScale) {
  EXPECT_EQ(topology_fingerprint(build_internet(
                world_internet(anycast::WorldParams::paper_scale(1897)))),
            kPaperScaleFingerprint);
}

TEST(Builder, GoldenFingerprintAt35kAses) {
  const Internet net =
      build_internet(world_internet(anycast::WorldParams::at_scale(35000, 1897)));
  EXPECT_EQ(net.graph.as_count(), 35000u);
  EXPECT_EQ(topology_fingerprint(net), kAt35kFingerprint);
}

TEST(Builder, BoundedConeCheckMatchesFullCone) {
  // `customer_cone_exceeds` is the bounded form of the full BFS: it must
  // agree with it for every AS at limits below, at and above the
  // peer-selection cap (1.2% of the ASes) and around the small cones.
  const Internet net = build_internet(
      world_internet(anycast::WorldParams::paper_scale(1897)));
  const std::size_t n = net.graph.as_count();
  const std::size_t cap = static_cast<std::size_t>(0.012 * static_cast<double>(n));
  std::size_t exceeded = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const AsId as{static_cast<AsId::underlying_type>(i)};
    const std::size_t cone = net.graph.customer_cone(as).size();
    for (const std::size_t limit : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, cap, cap + 1, n}) {
      ASSERT_EQ(net.graph.customer_cone_exceeds(as, limit), cone > limit)
          << "AS " << i << " cone " << cone << " limit " << limit;
    }
    exceeded += cone > cap ? 1 : 0;
  }
  // Both answers occur at the cap, so the check is not vacuous.
  EXPECT_GT(exceeded, 0u);
  EXPECT_LT(exceeded, n);
}

}  // namespace
}  // namespace anyopt::topo
