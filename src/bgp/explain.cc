#include <algorithm>
#include <sstream>

#include "bgp/simulator.h"

namespace anyopt::bgp {
namespace {

const char* step_name(DecisionStep step) {
  switch (step) {
    case DecisionStep::kLocalPref: return "LOCAL_PREF";
    case DecisionStep::kAsPathLength: return "AS_PATH length";
    case DecisionStep::kOrigin: return "ORIGIN";
    case DecisionStep::kMed: return "MED";
    case DecisionStep::kEbgpOverIbgp: return "eBGP>iBGP";
    case DecisionStep::kIgpCost: return "IGP cost";
    case DecisionStep::kOldestRoute: return "oldest route (arrival order)";
    case DecisionStep::kRouterId: return "router id";
    case DecisionStep::kNeighborAddress: return "neighbor address";
  }
  return "?";
}

}  // namespace

bool Explanation::order_dependent() const {
  return std::any_of(hops.begin(), hops.end(), [](const ExplainedHop& h) {
    return h.hardest_step == DecisionStep::kOldestRoute;
  });
}

std::string Explanation::to_string(const topo::Internet& net) const {
  std::ostringstream out;
  if (!reachable) {
    out << "unreachable (no route to the anycast prefix)\n";
    return out.str();
  }
  out << "catchment site " << site.value() + 1 << "\n";
  for (const ExplainedHop& hop : hops) {
    out << "  AS" << net.graph.node(hop.as).asn;
    if (!net.graph.node(hop.as).name.empty()) {
      out << " (" << net.graph.node(hop.as).name << ")";
    }
    if (hop.next.valid()) {
      out << " -> AS" << net.graph.node(hop.next).asn;
    } else {
      out << " -> anycast origin";
    }
    out << "  [" << hop.candidates << " candidate route"
        << (hop.candidates == 1 ? "" : "s");
    if (hop.candidates > 1) {
      out << ", decided by " << step_name(hop.hardest_step);
    }
    if (hop.multipath_split) out << ", multipath split";
    out << "]\n";
  }
  return out.str();
}

Explanation RoutingState::explain(AsId from, const geo::Coordinates& from_loc,
                                  std::uint64_t flow_hash) const {
  Explanation out;
  if (from.value() >= as_.size()) return out;  // sparse id: unreachable
  const topo::Internet& net = sim_->internet();
  AsId cur = from;
  geo::Coordinates cur_loc = from_loc;

  for (std::size_t guard = 0; guard < 64; ++guard) {
    const auto& s = state_of(cur);
    if (s.best.best < 0) return out;  // unreachable

    int chosen = s.best.best;
    const topo::AsNode& node = net.graph.node(cur);
    bool split = false;
    if (node.multipath && s.best.equal_best.size() > 1) {
      std::uint64_t h = flow_hash ^
                        (0x9e3779b97f4a7c15ULL * (cur.value() + 1)) ^
                        (run_nonce_ * 0xbf58476d1ce4e5b9ULL);
      h ^= h >> 29;
      h *= 0x94d049bb133111ebULL;
      h ^= h >> 32;
      chosen = s.best.equal_best[h % s.best.equal_best.size()];
      split = true;
    }
    const RibEntry& entry = s.rib[chosen];

    ExplainedHop hop;
    hop.as = cur;
    hop.chosen_path = entry.as_path;
    hop.next = entry.neighbor;
    hop.multipath_split = split;
    DecisionOptions opts;
    opts.prefer_oldest =
        sim_->options().arrival_order_tiebreak && node.prefers_oldest;
    for (const RibEntry& rival : s.rib) {
      if (!rival.present) continue;
      ++hop.candidates;
      if (&rival == &entry) continue;
      DecisionStep step{};
      (void)compare_routes(s.rib[s.best.best], rival, opts, &step);
      if (static_cast<int>(step) > static_cast<int>(hop.hardest_step)) {
        hop.hardest_step = step;
      }
    }
    out.hops.push_back(std::move(hop));

    if (!entry.neighbor.valid()) {
      // Delegate the final intra-AS attachment choice to the reference
      // walk so the two code paths cannot drift apart.
      const ResolvedPath path = resolve(cur, cur_loc, flow_hash);
      out.reachable = path.reachable;
      out.site = path.site;
      return out;
    }
    const int slot = sim_->neighbor_slot(cur, entry.neighbor);
    const topo::AsLink& link =
        net.graph.link(sim_->adj_[cur.value()][slot].link);
    cur = entry.neighbor;
    cur_loc = link.where;
  }
  return out;
}

}  // namespace anyopt::bgp
