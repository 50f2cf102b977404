#include "topo/builder.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_set>

#include "netbase/geo.h"

namespace anyopt::topo {
namespace {

/// Nearest PoP location of a tier-1 AS to a point (used to place links).
geo::Coordinates tier1_attach_point(const PopRegistry& pops, AsId tier1,
                                    const geo::Coordinates& where) {
  const PopNetwork& net = pops.network(tier1);
  return net.pop(net.nearest_pop(where)).where;
}

double link_latency(const geo::Coordinates& a, const geo::Coordinates& b) {
  return geo::one_way_latency_ms(a, b);
}

}  // namespace

AsId Internet::tier1_by_name(const std::string& name) const {
  for (std::size_t i = 0; i < tier1s.size(); ++i) {
    if (graph.node(tier1s[i]).name == name) return tier1s[i];
  }
  throw std::invalid_argument("unknown tier-1 provider: " + name);
}

InternetParams scale_internet_params(std::size_t ases, InternetParams base) {
  const double f = static_cast<double>(ases) / kPaperScaleAses;
  const std::size_t t1 = base.tier1_names.size();
  std::size_t regional = std::max<std::size_t>(
      1, static_cast<std::size_t>(base.regional_transit_count * f + 0.5));
  std::size_t access = std::max<std::size_t>(
      1, static_cast<std::size_t>(base.access_transit_count * f + 0.5));
  // Stubs take the exact remainder so the build lands on `ases` ASes.
  std::size_t stubs = ases > t1 + regional + access
                          ? ases - t1 - regional - access
                          : 1;
  base.regional_transit_count = static_cast<int>(regional);
  base.access_transit_count = static_cast<int>(access);
  base.stub_count = static_cast<int>(stubs);
  return base;
}

Internet build_internet(const InternetParams& params) {
  Internet net;
  Rng root{params.seed};
  Rng rng = root.fork("internet-builder");
  const auto& metros = geo::metro_database();
  std::uint32_t next_asn = 100;

  auto sample_policy_flags = [&](AsNode& node) {
    node.multipath = rng.chance(params.multipath_fraction);
    node.deviant_policy = rng.chance(params.deviant_fraction);
    node.prefers_oldest = rng.chance(params.oldest_pref_fraction);
    node.igp_spread =
        rng.chance(params.flat_igp_fraction) ? 0 : params.igp_spread_levels;
    node.router_id = static_cast<std::uint32_t>(rng() >> 33);
  };

  // --- Tier-1 backbones -------------------------------------------------
  const std::size_t t1_count = params.tier1_names.size();
  for (std::size_t t = 0; t < t1_count; ++t) {
    AsNode node;
    node.asn = next_asn++;
    node.tier = Tier::kTier1;
    node.name = params.tier1_names[t];
    sample_policy_flags(node);
    node.deviant_policy = false;  // backbones keep uniform policy
    // Tier-1 PoP footprint: required metros plus a random global spread.
    std::vector<Pop> pops;
    std::unordered_set<std::string> chosen;
    if (t < params.required_tier1_pops.size()) {
      for (const std::string& m : params.required_tier1_pops[t]) {
        if (chosen.insert(m).second) {
          pops.push_back(Pop{m, geo::metro(m).where});
        }
      }
    }
    const int extra = static_cast<int>(rng.uniform_int(
        params.extra_pops_per_tier1_min, params.extra_pops_per_tier1_max));
    int added = 0;
    int guard = 0;
    while (added < extra && guard++ < 1000) {
      const auto& m = metros[rng.below(metros.size())];
      if (chosen.insert(m.name).second) {
        pops.push_back(Pop{m.name, m.where});
        ++added;
      }
    }
    assert(!pops.empty());
    node.location = pops.front().where;
    const AsId id = net.graph.add_as(std::move(node));
    net.tier1s.push_back(id);
    net.pops.attach(id, PopNetwork::build(std::move(pops), params.pop_degree,
                                          params.igp_noise,
                                          rng.fork("igp-" + std::to_string(t))));
  }

  // Full tier-1 peer mesh (assumption (a) of §4.1).
  for (std::size_t i = 0; i < t1_count; ++i) {
    for (std::size_t j = i + 1; j < t1_count; ++j) {
      const AsId a = net.tier1s[i];
      const AsId b = net.tier1s[j];
      // Interconnect where their footprints are closest.
      const PopNetwork& na = net.pops.network(a);
      const PopNetwork& nb = net.pops.network(b);
      double best = 1e18;
      geo::Coordinates where = na.pop(0).where;
      for (std::size_t pa = 0; pa < na.pop_count(); ++pa) {
        for (std::size_t pb = 0; pb < nb.pop_count(); ++pb) {
          const double km =
              geo::great_circle_km(na.pop(pa).where, nb.pop(pb).where);
          if (km < best) {
            best = km;
            where = na.pop(pa).where;
          }
        }
      }
      auto link = net.graph.connect(a, b, Relation::kPeer, where,
                                    std::max(0.2, best / 200.0 * 1.4));
      assert(link.ok());
      (void)link;
    }
  }

  // --- Fixed geodesics ----------------------------------------------------
  // Regional and access transits sit exactly on metro centres, so every
  // geodesic between two transits, and between a stub and a transit, is a
  // geodesic to a metro.  Each is computed once — a metro x metro table,
  // plus one metro row per stub — with the argument order of the call it
  // replaces, so every distance is bit-identical to a per-pair call.
  const std::size_t metro_count = metros.size();
  std::vector<double> metro_km(metro_count * metro_count);
  for (std::size_t a = 0; a < metro_count; ++a) {
    for (std::size_t b = 0; b < metro_count; ++b) {
      metro_km[a * metro_count + b] =
          geo::great_circle_km(metros[a].where, metros[b].where);
    }
  }
  const auto km_between = [&](std::size_t a, std::size_t b) {
    return metro_km[a * metro_count + b];
  };

  // --- Regional transits (customers of tier-1s) -------------------------
  std::vector<AsId> regionals;
  // Metro of each transit, regionals then accesses (all_transits' order).
  std::vector<std::size_t> transit_metro;
  for (int i = 0; i < params.regional_transit_count; ++i) {
    AsNode node;
    node.asn = next_asn++;
    node.tier = Tier::kTransit;
    const std::size_t metro_index = rng.below(metros.size());
    node.location = metros[metro_index].where;
    sample_policy_flags(node);
    const AsId id = net.graph.add_as(std::move(node));
    regionals.push_back(id);
    transit_metro.push_back(metro_index);
    const int providers = static_cast<int>(rng.uniform_int(1, 3));
    std::vector<std::size_t> choice(t1_count);
    for (std::size_t k = 0; k < t1_count; ++k) choice[k] = k;
    rng.shuffle(choice);
    for (int p = 0; p < providers; ++p) {
      const AsId provider = net.tier1s[choice[p]];
      const geo::Coordinates at = tier1_attach_point(
          net.pops, provider, net.graph.node(id).location);
      auto link = net.graph.connect(
          id, provider, Relation::kProvider, at,
          link_latency(net.graph.node(id).location, at));
      assert(link.ok());
      (void)link;
    }
  }

  // --- Access transits (customers of regional transits) -----------------
  // Provider selection only ever reads the nearest handful of candidates,
  // so rank with partial_sort — the (distance, id) pairs are distinct, so
  // the selected prefix is byte-identical to a full sort's, and the
  // quadratic sort term drops out of Internet-scale builds (--ases=75000).
  // One scratch vector serves both this loop and the stub loop below.
  std::vector<AsId> accesses;
  std::vector<std::pair<double, AsId>> by_dist;
  for (int i = 0; i < params.access_transit_count; ++i) {
    AsNode node;
    node.asn = next_asn++;
    node.tier = Tier::kTransit;
    const std::size_t metro_index = rng.below(metros.size());
    node.location = metros[metro_index].where;
    sample_policy_flags(node);
    const AsId id = net.graph.add_as(std::move(node));
    accesses.push_back(id);
    transit_metro.push_back(metro_index);
    // Prefer geographically close regionals as providers.
    by_dist.clear();
    for (std::size_t r = 0; r < regionals.size(); ++r) {
      by_dist.push_back(
          {km_between(metro_index, transit_metro[r]), regionals[r]});
    }
    std::partial_sort(
        by_dist.begin(),
        by_dist.begin() + static_cast<std::ptrdiff_t>(
                              std::min<std::size_t>(8, by_dist.size())),
        by_dist.end());
    const int providers = static_cast<int>(rng.uniform_int(1, 2));
    for (int p = 0; p < providers && p < static_cast<int>(by_dist.size());
         ++p) {
      // Pick among the 8 nearest to add diversity.
      const std::size_t pick = rng.below(std::min<std::size_t>(8, by_dist.size()));
      const AsId provider = by_dist[pick].second;
      const auto rel = net.graph.relation(id, provider);
      if (rel.ok()) continue;  // already linked; skip
      auto link = net.graph.connect(
          id, provider, Relation::kProvider,
          net.graph.node(id).location,
          link_latency(net.graph.node(id).location,
                       net.graph.node(provider).location));
      assert(link.ok());
      (void)link;
    }
    // Occasionally also buy tier-1 transit directly.
    if (rng.chance(0.25)) {
      const AsId provider = net.tier1s[rng.below(t1_count)];
      const geo::Coordinates at = tier1_attach_point(
          net.pops, provider, net.graph.node(id).location);
      auto link = net.graph.connect(
          id, provider, Relation::kProvider, at,
          link_latency(net.graph.node(id).location, at));
      assert(link.ok());
      (void)link;
    }
  }

  // --- Transit-transit peering (IXP style, distance-bounded) ------------
  std::vector<AsId> all_transits = regionals;
  all_transits.insert(all_transits.end(), accesses.begin(), accesses.end());
  for (std::size_t i = 0; i < all_transits.size(); ++i) {
    for (std::size_t j = i + 1; j < all_transits.size(); ++j) {
      const AsId a = all_transits[i];
      const AsId b = all_transits[j];
      const double km = km_between(transit_metro[i], transit_metro[j]);
      if (km > params.transit_peer_within_km) continue;
      if (!rng.chance(params.transit_peer_prob)) continue;
      if (net.graph.relation(a, b).ok()) continue;
      auto link = net.graph.connect(a, b, Relation::kPeer,
                                    net.graph.node(a).location,
                                    std::max(0.2, km / 200.0 * 1.4));
      assert(link.ok());
      (void)link;
    }
  }

  // --- Stub (client) ASes ------------------------------------------------
  // Transits grouped by metro, ascending id within a group (all_transits
  // is in creation order), for the stubs' nearest-transit ranking.
  std::vector<std::vector<AsId>> transits_at(metro_count);
  for (std::size_t t = 0; t < all_transits.size(); ++t) {
    transits_at[transit_metro[t]].push_back(all_transits[t]);
  }
  const std::size_t stub_candidates =
      std::min<std::size_t>(12, all_transits.size());
  std::vector<std::pair<double, std::size_t>> metro_row(metro_count);
  for (int i = 0; i < params.stub_count; ++i) {
    AsNode node;
    node.asn = next_asn++;
    node.tier = Tier::kStub;
    node.location = metros[rng.below(metros.size())].where;
    // Scatter stubs around the metro so RTTs are not quantized.
    node.location.latitude_deg += rng.normal(0.0, 1.0);
    node.location.longitude_deg += rng.normal(0.0, 1.0);
    sample_policy_flags(node);
    const AsId id = net.graph.add_as(std::move(node));

    if (rng.chance(params.stub_tier1_home_prob)) {
      const AsId provider = net.tier1s[rng.below(t1_count)];
      const geo::Coordinates at = tier1_attach_point(
          net.pops, provider, net.graph.node(id).location);
      auto link = net.graph.connect(
          id, provider, Relation::kProvider, at,
          link_latency(net.graph.node(id).location, at));
      assert(link.ok());
      (void)link;
    }
    // 1-3 transit providers, geographically biased.  Only the 12 nearest
    // (km, id) pairs are ever candidates.  A transit is exactly as far as
    // its metro, so rank the metros and take whole metro groups until no
    // further group can tie or beat the 12th pair; partial_sort over those
    // picks the identical prefix a scan of all transits would (see the
    // access-transit loop).
    const geo::Coordinates& where = net.graph.node(id).location;
    for (std::size_t m = 0; m < metro_count; ++m) {
      metro_row[m] = {geo::great_circle_km(where, metros[m].where), m};
    }
    std::sort(metro_row.begin(), metro_row.end());
    by_dist.clear();
    for (const auto& [km, m] : metro_row) {
      if (!by_dist.empty() && by_dist.size() >= stub_candidates &&
          km > by_dist.back().first) {
        break;
      }
      for (const AsId t : transits_at[m]) by_dist.push_back({km, t});
    }
    std::partial_sort(
        by_dist.begin(),
        by_dist.begin() + static_cast<std::ptrdiff_t>(stub_candidates),
        by_dist.end());
    const int providers = static_cast<int>(rng.uniform_int(1, 3));
    int connected = 0;
    for (std::size_t attempt = 0;
         attempt < all_transits.size() && connected < providers; ++attempt) {
      const std::size_t pick = rng.below(stub_candidates);
      const AsId provider = by_dist[pick].second;
      if (net.graph.relation(id, provider).ok()) continue;
      auto link = net.graph.connect(
          id, provider, Relation::kProvider,
          net.graph.node(id).location,
          link_latency(net.graph.node(id).location,
                       net.graph.node(provider).location));
      assert(link.ok());
      (void)link;
      ++connected;
    }
    assert(connected > 0 || net.graph.node(id).neighbors.size() > 0);
  }

  // --- Deviant import-policy rank tables ---------------------------------
  net.deviant_rank.assign(net.graph.as_count(), {});
  for (std::size_t i = 0; i < net.graph.as_count(); ++i) {
    if (!net.graph.nodes()[i].deviant_policy) continue;
    std::vector<int> rank(t1_count);
    for (std::size_t k = 0; k < t1_count; ++k) rank[k] = static_cast<int>(k);
    rng.shuffle(rank);
    net.deviant_rank[i] = std::move(rank);
  }

  const Status valid = net.graph.validate();
  if (!valid.ok()) {
    throw std::logic_error("generated topology failed validation: " +
                           valid.error().message);
  }
  return net;
}

}  // namespace anyopt::topo
