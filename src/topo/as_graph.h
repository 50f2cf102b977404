#pragma once
// AS-level Internet graph with business relationships.
//
// This is the substrate the BGP simulator routes over.  Every node carries
// the policy knobs the paper's analysis cares about: whether the router
// implements the (non-standard) arrival-order tie-break, whether it splits
// traffic across equal-cost BGP paths, and whether it deviates from the
// uniform Gao-Rexford local-preference assignment (the mechanism that can
// destroy total preference orders, §4.1 / Fig. 3).

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/geo.h"
#include "netbase/ids.h"
#include "netbase/result.h"
#include "topo/relationship.h"

namespace anyopt::topo {

/// Position of an AS in the routing hierarchy.
enum class Tier : std::uint8_t { kTier1, kTransit, kStub };

[[nodiscard]] constexpr std::string_view to_string(Tier t) {
  switch (t) {
    case Tier::kTier1: return "tier1";
    case Tier::kTransit: return "transit";
    case Tier::kStub: return "stub";
  }
  return "?";
}

/// One adjacency of an AS.
struct Neighbor {
  AsId as;            ///< the neighboring AS
  Relation relation;  ///< what the neighbor is to this AS
  LinkId link;        ///< the shared link
};

/// Node attributes. `deviant_policy` marks ASes whose import policy ranks
/// routes by the tier-1 network they transit (cold-potato traffic
/// engineering) instead of uniform relationship bands — a realistic,
/// content-dependent policy that violates the paper's sufficient conditions
/// and can induce preference cycles downstream.
struct AsNode {
  std::uint32_t asn = 0;          ///< public AS number (display only)
  Tier tier = Tier::kStub;
  geo::Coordinates location;      ///< primary location (stubs/transits)
  std::string name;               ///< tier-1 provider name, else empty
  bool multipath = false;         ///< splits flows across equal best paths
  bool deviant_policy = false;    ///< tier-1-sensitive LOCAL_PREF (see above)
  bool prefers_oldest = true;     ///< vendor arrival-order tie-break (§4.2)
  /// Spread of interior (hot-potato) costs to eBGP next hops: the decision
  /// process compares IGP cost before arrival order, so ASes whose next-hop
  /// costs differ (spread > 0) resolve most ties there and only ASes/paths
  /// with equal costs fall through to the arrival-order step.  0 = all next
  /// hops equally close (every LOCAL_PREF/AS-path tie reaches step 7).
  int igp_spread = 0;
  std::uint32_t router_id = 0;    ///< BGP router-id used as final tie-break
  std::vector<Neighbor> neighbors;  ///< filled in by AsGraph::connect
};

/// One inter-AS adjacency.  `a_to_b` states what `b` is to `a`.
struct AsLink {
  AsId a;
  AsId b;
  Relation a_to_b = Relation::kPeer;
  geo::Coordinates where;  ///< interconnection point (IXP/PNI metro)
  double latency_ms = 0;   ///< one-way latency across the link
};

/// Mutable AS-level graph.  IDs are dense and stable once assigned.
class AsGraph {
 public:
  /// Adds a node; `spec.neighbors` must be empty (adjacency is owned here).
  AsId add_as(AsNode spec);

  /// Connects two distinct ASes. `b_is` states what `b` is to `a`
  /// (e.g. `Relation::kProvider` means b provides transit to a).
  /// Duplicate links between the same pair are rejected.
  Result<LinkId> connect(AsId a, AsId b, Relation b_is,
                         geo::Coordinates where, double latency_ms);

  [[nodiscard]] std::size_t as_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] const AsNode& node(AsId id) const {
    return nodes_[id.value()];
  }
  [[nodiscard]] AsNode& node_mut(AsId id) { return nodes_[id.value()]; }
  [[nodiscard]] const AsLink& link(LinkId id) const {
    return links_[id.value()];
  }

  [[nodiscard]] const std::vector<AsNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<AsLink>& links() const { return links_; }

  /// The relation of `to` as seen from `from`, if adjacent.
  [[nodiscard]] Result<Relation> relation(AsId from, AsId to) const;

  /// All ASes of a tier, in id order.
  [[nodiscard]] std::vector<AsId> ases_of_tier(Tier tier) const;

  /// Structural validation: symmetric adjacency, no self-links, tier-1s
  /// form a connected peer mesh, every non-tier-1 AS has a provider path
  /// toward the tier-1 clique (so valley-free routing can reach everyone).
  [[nodiscard]] Status validate() const;

  /// Size of the customer cone of `as` (itself included): the set of ASes
  /// reachable by repeatedly descending provider→customer edges.
  [[nodiscard]] std::vector<AsId> customer_cone(AsId as) const;

  /// Equals `customer_cone(as).size() > limit`, but the search stops once
  /// the cone holds `limit + 1` ASes and its visit marks are reused across
  /// calls on a thread, so a call costs O(min(cone, limit + 1)) ASes, not
  /// an AS-count buffer.
  [[nodiscard]] bool customer_cone_exceeds(AsId as, std::size_t limit) const;

 private:
  std::vector<AsNode> nodes_;
  std::vector<AsLink> links_;
};

}  // namespace anyopt::topo
