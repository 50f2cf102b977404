#include "anycast/deployment.h"

#include <gtest/gtest.h>

#include <bit>
#include <unordered_set>

#include "anycast/world.h"
#include "netbase/rng.h"

namespace anyopt::anycast {
namespace {

class DeploymentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = World::create(WorldParams::test_scale(11)).release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* DeploymentTest::world_ = nullptr;

TEST(Table1, SpecsMatchThePaper) {
  const auto specs = table1_specs();
  ASSERT_EQ(specs.size(), 15u);
  int total_peers = 0;
  for (const SiteSpec& s : specs) total_peers += s.peer_count;
  EXPECT_EQ(total_peers, 104);  // "The AnyOpt testbed includes 104 ... links"
  EXPECT_EQ(specs[0].metro, "Atlanta");
  EXPECT_EQ(specs[0].provider_name, "Telia");
  EXPECT_EQ(specs[3].peer_count, 15);  // Singapore / TATA
  EXPECT_EQ(specs[14].metro, "Chicago");
}

TEST(Table1, SixDistinctProviders) {
  std::unordered_set<std::string> providers;
  for (const SiteSpec& s : table1_specs()) providers.insert(s.provider_name);
  EXPECT_EQ(providers.size(), 6u);
}

TEST_F(DeploymentTest, FifteenSitesRealized) {
  EXPECT_EQ(world_->deployment().site_count(), 15u);
  EXPECT_EQ(world_->deployment().provider_count(), 6u);
}

TEST_F(DeploymentTest, TransitAttachmentIndexEqualsSiteId) {
  const Deployment& d = world_->deployment();
  for (std::size_t i = 0; i < d.site_count(); ++i) {
    const SiteId site{static_cast<SiteId::underlying_type>(i)};
    const auto at = d.transit_attachment(site);
    EXPECT_EQ(d.attachments()[at].site, site);
    EXPECT_EQ(d.attachments()[at].neighbor_is, topo::Relation::kProvider);
    EXPECT_EQ(d.attachments()[at].neighbor, d.provider_as(d.site(site).provider));
  }
}

TEST_F(DeploymentTest, PeerAttachmentsArePeersOfDistinctAses) {
  const Deployment& d = world_->deployment();
  std::unordered_set<std::uint32_t> peer_ases;
  for (const auto at : d.all_peer_attachments()) {
    const bgp::OriginAttachment& a = d.attachments()[at];
    EXPECT_EQ(a.neighbor_is, topo::Relation::kPeer);
    EXPECT_TRUE(peer_ases.insert(a.neighbor.value()).second)
        << "peer AS used twice";
    // Peers must never be tier-1s.
    EXPECT_NE(world_->internet().graph.node(a.neighbor).tier,
              topo::Tier::kTier1);
  }
}

TEST_F(DeploymentTest, PerSitePeerAttachmentsBelongToSite) {
  const Deployment& d = world_->deployment();
  std::size_t total = 0;
  for (std::size_t i = 0; i < d.site_count(); ++i) {
    const SiteId site{static_cast<SiteId::underlying_type>(i)};
    for (const auto at : d.peer_attachments(site)) {
      EXPECT_EQ(d.attachments()[at].site, site);
      ++total;
    }
  }
  EXPECT_EQ(total, d.all_peer_attachments().size());
}

TEST_F(DeploymentTest, SitesOfProviderPartitionSites) {
  const Deployment& d = world_->deployment();
  std::size_t total = 0;
  for (std::size_t p = 0; p < d.provider_count(); ++p) {
    total += d.sites_of_provider(
                  ProviderId{static_cast<ProviderId::underlying_type>(p)})
                 .size();
  }
  EXPECT_EQ(total, d.site_count());
  // NTT hosts four sites in Table 1 (Tokyo, Osaka, Miami, Newark).
  for (std::size_t p = 0; p < d.provider_count(); ++p) {
    if (d.provider_names()[p] == "NTT") {
      EXPECT_EQ(d.sites_of_provider(
                    ProviderId{static_cast<ProviderId::underlying_type>(p)})
                    .size(),
                4u);
    }
  }
}

TEST_F(DeploymentTest, ScaledPeerLinksProvisioned) {
  // The test world scales Table 1's 104 peer links by peer_scale (0.3) so
  // the peer-to-AS ratio stays realistic; expect roughly 31, allowing a
  // shortfall where a metro has few candidate ASes nearby.
  const std::size_t provisioned =
      world_->deployment().all_peer_attachments().size();
  EXPECT_GE(provisioned, 18u);
  EXPECT_LE(provisioned, 40u);
}

TEST_F(DeploymentTest, CoLocatedSitesAreDistinguishable) {
  // Table 1 has two Los Angeles / Zayo sites (3 and 8, zero-based 2 and 7).
  const Deployment& d = world_->deployment();
  EXPECT_EQ(d.site(SiteId{2}).metro, "Los Angeles");
  EXPECT_EQ(d.site(SiteId{7}).metro, "Los Angeles");
  const auto& a = d.attachments()[d.transit_attachment(SiteId{2})];
  const auto& b = d.attachments()[d.transit_attachment(SiteId{7})];
  EXPECT_EQ(a.neighbor, b.neighbor);  // same Zayo AS
  EXPECT_NE(d.site(SiteId{2}).where.latitude_deg,
            d.site(SiteId{7}).where.latitude_deg);
}

/// Digest of every realized attachment (neighbor, site, latency bits and
/// the filter flag): the whole observable output of peer selection.
std::uint64_t attachment_digest(const Deployment& d) {
  std::uint64_t h = 0xA77AC4ULL;
  for (const bgp::OriginAttachment& a : d.attachments()) {
    h = mix64(h, a.neighbor.value());
    h = mix64(h, a.site.value());
    h = mix64(h, std::bit_cast<std::uint64_t>(a.latency_ms));
    h = mix64(h, a.filtered ? 1 : 0);
  }
  return h;
}

// Golden deployments: `Deployment::realize` must keep choosing exactly
// these peers, so a faster candidate filter cannot pick different ones.
constexpr std::uint64_t kPaperScaleAttachments = 14345664767754724855ULL;
constexpr std::uint64_t kAt35kAttachments = 3494207934719282809ULL;

TEST(DeploymentGolden, AttachmentsPaperScale) {
  const auto world = World::create(WorldParams::paper_scale(1897));
  EXPECT_EQ(attachment_digest(world->deployment()), kPaperScaleAttachments);
}

TEST(DeploymentGolden, AttachmentsAt35kAses) {
  const auto world = World::create(WorldParams::at_scale(35000, 1897));
  EXPECT_EQ(attachment_digest(world->deployment()), kAt35kAttachments);
}

}  // namespace
}  // namespace anyopt::anycast
