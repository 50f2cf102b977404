#pragma once
// The data-plane walk, shared between RIB layouts.
//
// `walk_resolve` is the one implementation of "follow the converged best
// routes from a client AS to its catchment site".  It is a template over a
// *RIB view*, and both views stay on purpose:
//
//   * the structure-of-arrays `CompactState` is the census path — every
//     census freezes its converged state and resolves here, memoizing one
//     walk per client AS (`CachedWalk` below);
//   * the engine's array-of-structs `RoutingState` keeps the plain,
//     uncached reference walk.  `RoutingState::explain()` needs it: the
//     explanation compares full `RibEntry`s (local_pref, arrival order),
//     which the frozen layout deliberately drops, and finishes with this
//     walk.  compact_test compares the census layout against it, and the
//     engine-level unit tests resolve through it without a freeze.
//
// Both views execute the exact same instruction sequence — every
// floating-point operation in the same order — so the two layouts are
// bit-identical by construction rather than by test alone.
//
// A view `v` must provide, for every AS `a` reachable from the walk:
//   const topo::Internet&            v.net()
//   int                              v.best(a)          best rib slot, -1 = none
//   std::span<const int>             v.equal_best(a)    multipath-eligible slots
//   bool                             v.slot_present(a, slot)
//   AsId                             v.slot_neighbor(a, slot)  invalid = origin
//   std::uint8_t                     v.slot_prepend(a, slot)
//   std::uint32_t                    v.slot_med(a, slot)
//   std::size_t                      v.adj_count(a)     host slots start here
//   std::span<const AttachmentIndex> v.host_slots(a)
//   const OriginAttachment&          v.attachment(idx)
//   std::size_t                      v.attachment_pop(idx)  egress PoP
//   geo::Coordinates                 v.crossing_where(a, slot, neighbor)
// `crossing_where` is the ingress point of the link behind rib slot `slot`
// (whose advertised route came from `neighbor`).  `attachment_pop` is the
// host AS's PoP nearest to the attachment's interconnection point — fixed
// per world, so both views read `Simulator::attachment_pop`'s table instead
// of scanning the PoPs per walk.

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/origin.h"
#include "netbase/geo.h"
#include "netbase/ids.h"
#include "topo/builder.h"

namespace anyopt::bgp {

/// Forwarding resolution result for one client network.
struct ResolvedPath {
  bool reachable = false;
  SiteId site;                       ///< catchment site
  AttachmentIndex attachment = kNoAttachment;
  std::vector<AsId> as_path;         ///< client AS ... host AS
  double one_way_ms = 0;             ///< client location -> site
};

/// One memoized data-plane walk, keyed by the client AS it starts from
/// (`CompactState`'s walk cache; the engine layout never memoizes).
/// A walk is cacheable only when no hop's choice depended on the flow
/// hash (no live multipath split) or on the caller's location (the
/// host-AS hot-potato cost when the client AS itself hosts attachments);
/// such walks stay `kUncached` and are re-walked per flow.  Replay
/// re-adds the recorded per-hop latencies in the original order, so the
/// floating-point result is bit-identical to the uncached walk.
struct CachedWalk {
  enum class State : std::uint8_t { kUnknown, kCached, kUncached };
  State state = State::kUnknown;
  bool reachable = false;
  bool crossed = false;  ///< at least one inter-AS crossing on the walk
  SiteId site;
  AttachmentIndex attachment = kNoAttachment;
  geo::Coordinates first_link_where;  ///< ingress of the first crossing
  double terminal_ms = 0;  ///< host-AS hot-potato cost + session latency
  std::vector<AsId> as_path;
  std::vector<double> hop_ms;  ///< crossings after the first, in order
};

/// \brief Replays a kCached walk for a client at `from_loc`.
///
/// The latency sum re-adds the recorded per-hop terms in the original
/// left-to-right order (only the first-hop geodesic depends on the client's
/// location), so the result is bit-identical to the walk that recorded it.
[[nodiscard]] inline ResolvedPath walk_replay(const CachedWalk& walk,
                                              const geo::Coordinates& from_loc) {
  ResolvedPath out;
  out.as_path = walk.as_path;
  if (walk.crossed) {
    out.one_way_ms +=
        geo::one_way_latency_ms(from_loc, walk.first_link_where);
    for (const double hop : walk.hop_ms) out.one_way_ms += hop;
  }
  if (!walk.reachable) return out;
  out.reachable = true;
  out.site = walk.site;
  out.attachment = walk.attachment;
  out.one_way_ms += walk.terminal_ms;
  return out;
}

/// \brief The uncached walk over any RIB view.
///
/// If `record` is non-null the walk is captured into it (or marked
/// kUncached when a flow/location-dependent hop is met).  `run_nonce` must
/// be the nonce of the run that converged the RIBs: it individualizes the
/// per-flow multipath split exactly as the engine's own resolve does.
/// \param v the RIB view (see the header comment for the contract).
/// \param run_nonce nonce of the converged run.
/// \param from client AS the walk starts at.
/// \param from_loc client location (first-hop geodesic).
/// \param flow_hash seeds per-flow multipath splitting.
/// \param record walk-capture slot, or nullptr for a plain walk.
/// \return the resolved forwarding path (unreachable on dead ends).
template <class Rib>
[[nodiscard]] ResolvedPath walk_resolve(const Rib& v, std::uint64_t run_nonce,
                                        AsId from,
                                        const geo::Coordinates& from_loc,
                                        std::uint64_t flow_hash,
                                        CachedWalk* record) {
  ResolvedPath out;
  const topo::Internet& net = v.net();
  AsId cur = from;
  geo::Coordinates cur_loc = from_loc;
  out.as_path.push_back(cur);
  if (record != nullptr) {
    record->as_path.clear();
    record->hop_ms.clear();
    record->crossed = false;
    record->as_path.push_back(cur);
  }

  for (std::size_t hops = 0; hops < 64; ++hops) {
    const int best = v.best(cur);
    if (best < 0) {
      // Dead end: flow-independent, so the (unreachable) walk is cacheable.
      if (record != nullptr) {
        record->state = CachedWalk::State::kCached;
        record->reachable = false;
      }
      return out;  // unreachable
    }

    // Per-flow multipath split across equal-best entries.
    int chosen = best;
    const topo::AsNode& node = net.graph.node(cur);
    const std::span<const int> equal = v.equal_best(cur);
    if (node.multipath && equal.size() > 1) {
      // The choice below depends on the flow hash: walks through this AS
      // belong to per-flow classes and must not be shared across targets.
      if (record != nullptr) {
        record->state = CachedWalk::State::kUncached;
        record = nullptr;
      }
      std::uint64_t h = flow_hash ^ (0x9e3779b97f4a7c15ULL * (cur.value() + 1)) ^
                        (run_nonce * 0xbf58476d1ce4e5b9ULL);
      h ^= h >> 29;
      h *= 0x94d049bb133111ebULL;
      h ^= h >> 32;
      chosen = equal[h % equal.size()];
    }
    const AsId next = v.slot_neighbor(cur, static_cast<std::size_t>(chosen));

    if (!next.valid()) {
      // `cur` is a host AS: traffic exits to the anycast origin here.
      // Hot-potato: among the attachments to this AS that are currently
      // announced, pick the one closest (by IGP, if this AS has a PoP
      // network) to where the traffic entered the AS.
      if (record != nullptr && hops == 0) {
        // The client AS itself hosts the attachments: the hot-potato cost
        // below starts from the client's own location, so the outcome is
        // per-target, not per-AS.
        record->state = CachedWalk::State::kUncached;
        record = nullptr;
      }
      const std::span<const AttachmentIndex> slots = v.host_slots(cur);
      const std::size_t base = v.adj_count(cur);
      // iBGP best-path inside the host AS: AS-path length (prepending!)
      // then MED (same-neighbor sessions) are compared before interior
      // cost, so a prepended or MED-penalized session loses to its
      // sibling everywhere in the AS.
      std::uint8_t best_prepend = 255;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (v.slot_present(cur, base + i) &&
            v.slot_prepend(cur, base + i) < best_prepend) {
          best_prepend = v.slot_prepend(cur, base + i);
        }
      }
      std::uint32_t best_med = ~std::uint32_t{0};
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (v.slot_present(cur, base + i) &&
            v.slot_prepend(cur, base + i) == best_prepend &&
            v.slot_med(cur, base + i) < best_med) {
          best_med = v.slot_med(cur, base + i);
        }
      }
      // Interior cost from where the traffic entered: IGP cost between
      // the ingress PoP (one scan per terminal) and each attachment's
      // precomputed egress PoP, or the geodesic in a PoP-less AS.
      const topo::PopNetwork* pn =
          net.pops.has(cur) ? &net.pops.network(cur) : nullptr;
      const std::size_t ingress = pn != nullptr ? pn->nearest_pop(cur_loc) : 0;
      double best_cost = 1e18;
      double best_intra = 0;
      AttachmentIndex best_at = kNoAttachment;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!v.slot_present(cur, base + i) ||
            v.slot_prepend(cur, base + i) != best_prepend ||
            v.slot_med(cur, base + i) != best_med) {
          continue;
        }
        const double cost =
            pn != nullptr
                ? pn->igp_cost(ingress, v.attachment_pop(slots[i]))
                : geo::one_way_latency_ms(cur_loc,
                                          v.attachment(slots[i]).where);
        if (cost < best_cost ||
            (cost == best_cost && slots[i] < best_at)) {
          best_cost = cost;
          best_intra = cost;
          best_at = slots[i];
        }
      }
      if (best_at == kNoAttachment) {
        // Raced withdraw: no announced attachment survived — a pure
        // function of the converged RIBs, so cacheable as unreachable.
        if (record != nullptr) {
          record->state = CachedWalk::State::kCached;
          record->reachable = false;
        }
        return out;
      }
      const OriginAttachment& at = v.attachment(best_at);
      out.reachable = true;
      out.site = at.site;
      out.attachment = best_at;
      out.one_way_ms += best_intra + at.latency_ms;
      if (record != nullptr) {
        record->state = CachedWalk::State::kCached;
        record->reachable = true;
        record->site = at.site;
        record->attachment = best_at;
        record->terminal_ms = best_intra + at.latency_ms;
      }
      return out;
    }

    // Cross into the advertising neighbor at the route's ingress point.
    const geo::Coordinates where =
        v.crossing_where(cur, static_cast<std::size_t>(chosen), next);
    const double cross_ms = geo::one_way_latency_ms(cur_loc, where);
    out.one_way_ms += cross_ms;
    cur = next;
    cur_loc = where;
    out.as_path.push_back(cur);
    if (record != nullptr) {
      if (!record->crossed) {
        // First crossing: its latency depends on the caller's location and
        // is recomputed per replay from this recorded ingress point.
        record->crossed = true;
        record->first_link_where = where;
      } else {
        record->hop_ms.push_back(cross_ms);
      }
      record->as_path.push_back(cur);
    }
  }
  // Exceeded the hop budget: flow-independent (no split was met, or
  // recording would have stopped), so cacheable as unreachable.
  if (record != nullptr) {
    record->state = CachedWalk::State::kCached;
    record->reachable = false;
  }
  return out;  // treat as unreachable
}

}  // namespace anyopt::bgp
