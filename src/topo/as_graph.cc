#include "topo/as_graph.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace anyopt::topo {

AsId AsGraph::add_as(AsNode spec) {
  assert(spec.neighbors.empty() && "adjacency is owned by AsGraph");
  const AsId id{static_cast<AsId::underlying_type>(nodes_.size())};
  nodes_.push_back(std::move(spec));
  return id;
}

Result<LinkId> AsGraph::connect(AsId a, AsId b, Relation b_is,
                                geo::Coordinates where, double latency_ms) {
  if (a == b) return Error::invalid("self-link not allowed");
  if (!a.valid() || a.value() >= nodes_.size() || !b.valid() ||
      b.value() >= nodes_.size()) {
    return Error::invalid("connect: unknown AS id");
  }
  for (const Neighbor& n : nodes_[a.value()].neighbors) {
    if (n.as == b) return Error::invalid("duplicate link between AS pair");
  }
  const LinkId id{static_cast<LinkId::underlying_type>(links_.size())};
  links_.push_back(AsLink{a, b, b_is, where, latency_ms});
  nodes_[a.value()].neighbors.push_back(Neighbor{b, b_is, id});
  nodes_[b.value()].neighbors.push_back(Neighbor{a, reverse(b_is), id});
  return id;
}

Result<Relation> AsGraph::relation(AsId from, AsId to) const {
  for (const Neighbor& n : nodes_[from.value()].neighbors) {
    if (n.as == to) return n.relation;
  }
  return Error::not_found("ASes are not adjacent");
}

std::vector<AsId> AsGraph::ases_of_tier(Tier tier) const {
  std::vector<AsId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].tier == tier) {
      out.emplace_back(static_cast<AsId::underlying_type>(i));
    }
  }
  return out;
}

Status AsGraph::validate() const {
  // Symmetry and self-link checks.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const Neighbor& n : nodes_[i].neighbors) {
      if (n.as.value() == i) return Error::state("self-link detected");
      const auto& peer_adj = nodes_[n.as.value()].neighbors;
      const auto it = std::find_if(
          peer_adj.begin(), peer_adj.end(),
          [&](const Neighbor& m) { return m.as.value() == i; });
      if (it == peer_adj.end()) {
        return Error::state("asymmetric adjacency");
      }
      if (it->relation != reverse(n.relation)) {
        return Error::state("inconsistent relationship on link");
      }
    }
  }

  // Tier-1 clique must be peer-connected (the paper's assumption (a):
  // every tier-1 peers with all tier-1s).
  const auto tier1 = ases_of_tier(Tier::kTier1);
  for (const AsId a : tier1) {
    for (const AsId b : tier1) {
      if (a == b) continue;
      const auto rel = relation(a, b);
      if (!rel.ok() || rel.value() != Relation::kPeer) {
        return Error::state("tier-1 ASes must form a full peer mesh");
      }
    }
  }

  // Every AS must reach a tier-1 by ascending customer→provider edges
  // (possibly via zero hops), so announcements from tier-1s reach everyone
  // valley-free.
  std::vector<char> reaches(nodes_.size(), 0);
  std::queue<AsId> frontier;
  for (const AsId t : tier1) {
    reaches[t.value()] = 1;
    frontier.push(t);
  }
  // Walk downward: from a provider to its customers.
  while (!frontier.empty()) {
    const AsId cur = frontier.front();
    frontier.pop();
    for (const Neighbor& n : nodes_[cur.value()].neighbors) {
      if (n.relation == Relation::kCustomer && !reaches[n.as.value()]) {
        reaches[n.as.value()] = 1;
        frontier.push(n.as);
      }
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!reaches[i]) {
      return Error::state("AS " + std::to_string(nodes_[i].asn) +
                          " has no provider path to the tier-1 clique");
    }
  }
  return {};
}

std::vector<AsId> AsGraph::customer_cone(AsId as) const {
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<AsId> cone;
  std::queue<AsId> frontier;
  seen[as.value()] = 1;
  frontier.push(as);
  while (!frontier.empty()) {
    const AsId cur = frontier.front();
    frontier.pop();
    cone.push_back(cur);
    for (const Neighbor& n : nodes_[cur.value()].neighbors) {
      if (n.relation == Relation::kCustomer && !seen[n.as.value()]) {
        seen[n.as.value()] = 1;
        frontier.push(n.as);
      }
    }
  }
  return cone;
}

bool AsGraph::customer_cone_exceeds(AsId as, std::size_t limit) const {
  // Generation-stamped visit marks: a call marks only the ASes it visits
  // and never clears the buffer (a new generation retires every old mark).
  thread_local std::vector<std::uint32_t> mark;
  thread_local std::uint32_t generation = 0;
  thread_local std::vector<AsId> visited;  // BFS order; doubles as the queue
  if (mark.size() < nodes_.size()) mark.resize(nodes_.size(), 0);
  if (++generation == 0) {  // wrapped: no stale mark may equal a live one
    std::fill(mark.begin(), mark.end(), 0);
    generation = 1;
  }
  visited.clear();
  mark[as.value()] = generation;
  visited.push_back(as);
  for (std::size_t head = 0; head < visited.size() && visited.size() <= limit;
       ++head) {
    for (const Neighbor& n : nodes_[visited[head].value()].neighbors) {
      if (n.relation != Relation::kCustomer ||
          mark[n.as.value()] == generation) {
        continue;
      }
      mark[n.as.value()] = generation;
      visited.push_back(n.as);
      if (visited.size() > limit) return true;
    }
  }
  return visited.size() > limit;
}

}  // namespace anyopt::topo
