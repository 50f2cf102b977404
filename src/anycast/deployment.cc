#include "anycast/deployment.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

namespace anyopt::anycast {

std::vector<SiteSpec> table1_specs() {
  // Site, Location, Transit, #peers — verbatim from the paper's Table 1.
  return {
      {"Atlanta", "Telia", 4},    {"Amsterdam", "Telia", 1},
      {"Los Angeles", "Zayo", 6}, {"Singapore", "TATA", 15},
      {"London", "GTT", 14},      {"Tokyo", "NTT", 3},
      {"Osaka", "NTT", 4},        {"Los Angeles", "Zayo", 4},
      {"Miami", "NTT", 7},        {"London", "Sparkle", 2},
      {"Newark", "NTT", 7},       {"Stockholm", "Telia", 14},
      {"Toronto", "TATA", 9},     {"Sao Paulo", "Sparkle", 9},
      {"Chicago", "GTT", 5},
  };
}

std::vector<std::vector<std::string>> table1_required_pops() {
  return {
      /*Telia*/ {"Atlanta", "Amsterdam", "Stockholm"},
      /*Zayo*/ {"Los Angeles"},
      /*TATA*/ {"Singapore", "Toronto"},
      /*GTT*/ {"London", "Chicago"},
      /*NTT*/ {"Tokyo", "Osaka", "Miami", "Newark"},
      /*Sparkle*/ {"London", "Sao Paulo"},
  };
}

Deployment Deployment::realize(const topo::Internet& net,
                               std::span<const SiteSpec> specs, Rng rng,
                               double peer_filter_prob) {
  Deployment d;

  // Provider slot table from the spec order of first appearance.
  auto provider_slot = [&](const std::string& name) -> ProviderId {
    for (std::size_t i = 0; i < d.provider_names_.size(); ++i) {
      if (d.provider_names_[i] == name) {
        return ProviderId{static_cast<ProviderId::underlying_type>(i)};
      }
    }
    d.provider_names_.push_back(name);
    d.provider_as_.push_back(net.tier1_by_name(name));
    return ProviderId{
        static_cast<ProviderId::underlying_type>(d.provider_names_.size() - 1)};
  };

  // Pass 1: sites and their transit attachments (attachment idx == site id).
  for (const SiteSpec& spec : specs) {
    const ProviderId provider = provider_slot(spec.provider_name);
    Site site;
    site.metro = spec.metro;
    site.where = geo::metro(spec.metro).where;
    // Distinguish co-located sites (e.g. the two Los Angeles / Zayo sites
    // of Table 1) by a small deterministic offset.
    site.where.latitude_deg += 0.02 * static_cast<double>(d.sites_.size());
    site.provider = provider;
    site.provider_name = spec.provider_name;
    site.table1_peer_count = spec.peer_count;

    const AsId host = d.provider_as_[provider.value()];
    if (!net.pops.has(host)) {
      throw std::invalid_argument("provider " + spec.provider_name +
                                  " has no PoP network");
    }
    const topo::PopNetwork& pn = net.pops.network(host);
    const auto pop = pn.pop_by_metro(spec.metro);
    if (!pop.ok()) {
      throw std::invalid_argument("provider " + spec.provider_name +
                                  " has no PoP in " + spec.metro +
                                  "; pass table1_required_pops() to the "
                                  "topology builder");
    }

    bgp::OriginAttachment at;
    at.site = SiteId{static_cast<SiteId::underlying_type>(d.sites_.size())};
    at.neighbor = host;
    at.neighbor_is = topo::Relation::kProvider;
    at.where = pn.pop(pop.value()).where;
    at.latency_ms = 0.25;
    d.attachments_.push_back(at);
    d.sites_.push_back(std::move(site));
  }

  // Pass 2: peering links.  Candidates are non-tier-1 ASes near the site,
  // sampled without replacement across the whole deployment so each of the
  // (e.g.) 104 peer links lands on a distinct network, as in the testbed.
  std::unordered_set<std::uint32_t> used_peer_as;
  for (std::size_t s = 0; s < d.sites_.size(); ++s) {
    const Site& site = d.sites_[s];
    const std::size_t begin = d.attachments_.size();

    // Realistic IXP peers are small local networks: cap the customer-cone
    // size so no large transit becomes a peer (in the testbed >80% of
    // peers attract <2.5% of targets, Fig. 7a).
    const std::size_t max_cone = std::max<std::size_t>(
        3, static_cast<std::size_t>(0.012 * static_cast<double>(
                                        net.graph.as_count())));
    std::vector<std::pair<double, AsId>> candidates;
    for (std::size_t i = 0; i < net.graph.as_count(); ++i) {
      const topo::AsNode& node = net.graph.nodes()[i];
      if (node.tier == topo::Tier::kTier1) continue;
      const AsId id{static_cast<AsId::underlying_type>(i)};
      if (used_peer_as.contains(id.value())) continue;
      const double km = geo::great_circle_km(site.where, node.location);
      if (km > 3000) continue;  // IXP-reachable radius
      if (net.graph.customer_cone_exceeds(id, max_cone)) continue;
      candidates.push_back({km, id});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    int provisioned = 0;
    // Sample among the nearest 4x pool to diversify peer sizes.
    const std::size_t pool = std::min<std::size_t>(
        candidates.size(), static_cast<std::size_t>(site.table1_peer_count) * 4);
    std::vector<std::size_t> order(pool);
    for (std::size_t i = 0; i < pool; ++i) order[i] = i;
    rng.shuffle(order);
    for (const std::size_t pick : order) {
      if (provisioned >= site.table1_peer_count) break;
      const AsId peer = candidates[pick].second;
      if (!used_peer_as.insert(peer.value()).second) continue;
      bgp::OriginAttachment at;
      at.site = SiteId{static_cast<SiteId::underlying_type>(s)};
      at.neighbor = peer;
      at.neighbor_is = topo::Relation::kPeer;
      at.where = site.where;
      at.latency_ms = 0.35;
      // Remote peering: a share of IXP ports are resold/backhauled, so the
      // BGP session looks local while the data path trombones.  These are
      // the peers that *worsen* latency despite shorter AS paths — the
      // reason the paper's one-pass method includes peers conservatively
      // (§4.4: "peer connections can worsen the performance").
      if (rng.chance(0.3)) {
        at.latency_ms += rng.exponential(25.0);
      }
      at.filtered = rng.chance(peer_filter_prob);
      d.peer_attachments_all_.push_back(
          static_cast<bgp::AttachmentIndex>(d.attachments_.size()));
      d.attachments_.push_back(at);
      ++provisioned;
    }
    d.peer_range_.emplace_back(begin, d.attachments_.size());
  }
  return d;
}

std::span<const bgp::AttachmentIndex> Deployment::peer_attachments(
    SiteId site) const {
  const auto [begin, end] = peer_range_[site.value()];
  // peer_attachments_all_ is ordered by site, so translate the attachment
  // range into a range over that vector.
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t i = 0; i < peer_attachments_all_.size(); ++i) {
    if (peer_attachments_all_[i] < begin) lo = i + 1;
    if (peer_attachments_all_[i] < end) hi = i + 1;
  }
  return {peer_attachments_all_.data() + lo, hi - lo};
}

std::vector<SiteId> Deployment::sites_of_provider(ProviderId p) const {
  std::vector<SiteId> out;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i].provider == p) {
      out.emplace_back(static_cast<SiteId::underlying_type>(i));
    }
  }
  return out;
}

}  // namespace anyopt::anycast
