#pragma once
// Structure-of-arrays snapshot of a converged routing state — the
// Internet-scale resolve layout (ROADMAP's `bgp-rib4`).
//
// The propagation engine mutates an array-of-structs RIB (one
// `std::vector<RibEntry>` per AS, each entry owning an AS-path vector):
// the right shape for event processing, the wrong one for the measurement
// plane, which at ~75k ASes resolves millions of targets against state
// that never changes again.  `CompactState::freeze` converts a converged
// `RoutingState` into flat parallel arrays:
//
//   * one CSR slot table over all ASes (a slot = one Adj-RIB-In entry;
//     slot order is exactly the engine's: AS neighbors, then attachments),
//   * per-slot field columns (`present`, `neighbor`, `origin_prepend`,
//     `med`, `attachment`) — the fields the data-plane walk reads —
//     packed at their natural widths,
//   * a path-interning pool: every present entry's AS path is deduplicated
//     into one shared arena and referenced by (offset, length), so the
//     heavily shared route tails of a converged Internet are stored once,
//   * the best-route state (`best` + multipath-eligible set) as its own
//     CSR pair,
//   * a frozen copy of the walk environment (per-slot link ingress
//     coordinates, host-attachment lists), making `resolve` a pure
//     array-scan with no pointer chasing into the simulator.
//
// Decision-time attributes (local_pref, arrival_seq, router ids, ...) are
// consumed during convergence and deliberately NOT retained: the frozen
// layout stores what resolution and persistence need, which is the whole
// compression story (see docs/SCALING.md for measured bytes/AS).
//
// This is the only layout a census resolves against.  `resolve`
// instantiates the walk shared with `RoutingState::resolve` (bgp/walk.h)
// and memoizes it per client AS; compact_test holds the two walks to the
// same bits, and the layout-invariance suite pins censuses, discovery
// tables and serve responses to golden values.
//
// The tables are prefix-keyed for persistence: this reproduction announces
// a single anycast prefix, so `prefix_key` defaults to 0, but the codec
// carries the key so a store can hold per-prefix RIB records side by side.
// A decoded `CompactState` is a table artifact (store round trips, diffs):
// it is not bound to a topology and cannot resolve.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "bgp/simulator.h"
#include "bgp/walk.h"
#include "netbase/codec.h"
#include "netbase/geo.h"
#include "netbase/ids.h"
#include "netbase/result.h"

namespace anyopt::bgp {

/// \brief Frozen structure-of-arrays RIB + best-route state of one
///        converged run.  Immutable tables plus a per-client-AS walk cache
///        that `resolve` fills; one client AS must not be resolved from
///        two threads at once (the parallel census pass never splits an
///        AS across workers).
class CompactState {
 public:
  CompactState() = default;

  /// \brief `freeze`'s default cache capacity: one walk slot for every AS.
  static constexpr std::size_t kFullCache = ~std::size_t{0};

  /// \brief Freezes `state`'s converged tables into the compact layout.
  ///
  /// Reads through the copy-on-write view, so overlay states freeze to the
  /// same tables a from-scratch convergence would.  Non-present slots are
  /// normalized (invalid neighbor, zero attributes, empty path): the
  /// encoding is a pure function of the converged routes, never of
  /// recycled-buffer residue.
  /// \param sim the simulator that ran the state (topology binding).
  /// \param state the converged routing state (unchanged).
  /// \param cache_capacity client-AS slots of the walk cache (capped at
  ///        the AS count; 0 disables memoization).  Client ASes at or
  ///        beyond the cap take plain walks; results are bit-identical at
  ///        any capacity — this is the `--mem-budget-mb` degradation knob,
  ///        not a correctness knob, and the cache is sized once, here.
  /// \return the frozen snapshot; independent of `state`'s lifetime, but
  ///         `sim` (and its topology) must outlive it.
  [[nodiscard]] static CompactState freeze(
      const Simulator& sim, const RoutingState& state,
      std::size_t cache_capacity = kFullCache);

  /// \brief Walks the data plane from a client, exactly as
  ///        `RoutingState::resolve` does (shared implementation,
  ///        bit-identical results), memoizing each client AS's walk.
  ///
  /// Robust to sparse id spaces: a client AS beyond the frozen range
  /// resolves as unreachable, and ids beyond the cache capacity take the
  /// plain (uncached) walk instead of indexing out of bounds.
  /// \param from client AS the walk starts at.
  /// \param from_loc client location (first-hop geodesic).
  /// \param flow_hash seeds per-flow multipath splitting.
  /// \return the resolved forwarding path.
  [[nodiscard]] ResolvedPath resolve(AsId from,
                                     const geo::Coordinates& from_loc,
                                     std::uint64_t flow_hash) const;

  /// \brief ASes in the frozen tables.
  [[nodiscard]] std::size_t as_count() const { return as_count_; }
  /// \brief Total RIB slots across all ASes.
  [[nodiscard]] std::size_t slot_count() const { return present_.size(); }
  /// \brief Interned unique AS paths (the dedup win; see SCALING.md).
  [[nodiscard]] std::size_t unique_paths() const { return unique_paths_; }
  /// \brief AsId words in the shared path pool.
  [[nodiscard]] std::size_t path_pool_words() const {
    return path_pool_.size();
  }
  /// \brief The persistence key of the prefix these tables describe.
  [[nodiscard]] std::uint64_t prefix_key() const { return prefix_key_; }

  /// \brief Per-state resolve-cache tallies: replayed / walked resolutions
  ///        of THIS state (the global `bgp.resolve.cache_*` counters
  ///        aggregate the same numbers process-wide; provenance records
  ///        attribute cache behaviour to single censuses through these).
  [[nodiscard]] std::uint64_t cache_hits() const {
    return cache_hits_.n.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cache_misses() const {
    return cache_misses_.n.load(std::memory_order_relaxed);
  }

  /// \brief Heap bytes retained by the frozen tables (feeds the
  ///        `bytes.rib` gauge; walk-cache bytes excluded — those are
  ///        `resolve_cache_bytes`).
  [[nodiscard]] std::size_t retained_bytes() const;
  /// \brief Heap bytes retained by the walk cache (capacities).
  [[nodiscard]] std::size_t resolve_cache_bytes() const;

  /// \brief Serializes the RIB tables (slots, fields, interned paths,
  ///        best-route CSR) as codec sections; the walk environment and
  ///        cache are run-local and not persisted.
  /// \param out destination writer (appended to).
  void encode(codec::Writer& out) const;

  /// \brief Strict inverse of `encode`.
  /// \param payload the encoded bytes.
  /// \return the decoded (table-only, unresolvable) state, or a
  ///         diagnostic on truncation/malformed sections.
  [[nodiscard]] static Result<CompactState> decode(
      std::span<const std::uint8_t> payload);

  /// \brief True when `other` carries byte-for-byte the same RIB tables
  ///        (everything `encode` persists).
  [[nodiscard]] bool rib_equals(const CompactState& other) const;

 private:
  struct View;  // the bgp/walk.h view over the SoA arrays (defined in .cc)

  /// Topology binding (null for decoded states): the simulator owns the
  /// attachment table and the Internet graph the walk reads.
  const Simulator* sim_ = nullptr;
  std::uint64_t run_nonce_ = 0;
  std::uint64_t prefix_key_ = 0;
  std::size_t as_count_ = 0;
  std::size_t unique_paths_ = 0;

  // --- RIB slot table (CSR over ASes; persisted). ---
  std::vector<std::uint32_t> slot_begin_;  ///< size as_count+1
  std::vector<std::uint32_t> adj_count_;   ///< neighbor slots per AS
  std::vector<std::uint8_t> present_;      ///< per slot
  std::vector<std::uint32_t> neighbor_;    ///< AsId raw value per slot
  std::vector<std::uint8_t> prepend_;      ///< per slot
  std::vector<std::uint32_t> med_;         ///< per slot
  std::vector<std::uint32_t> attachment_;  ///< AttachmentIndex per slot
  std::vector<std::uint32_t> path_off_;    ///< per slot, into path_pool_
  std::vector<std::uint16_t> path_len_;    ///< per slot
  std::vector<AsId> path_pool_;            ///< interned path arena

  // --- Best-route state (persisted). ---
  std::vector<std::int32_t> best_;          ///< best slot per AS, -1 = none
  std::vector<std::uint32_t> equal_begin_;  ///< size as_count+1
  std::vector<int> equal_;                  ///< multipath-eligible slots

  // --- Frozen walk environment (run-local; not persisted). ---
  std::vector<std::uint32_t> adj_begin_;      ///< size as_count+1
  std::vector<geo::Coordinates> link_where_;  ///< per neighbor slot
  std::vector<std::uint32_t> host_begin_;     ///< size as_count+1
  std::vector<AttachmentIndex> host_pool_;

  /// Movable relaxed counter: `CompactState` is returned by value from
  /// `freeze`, and the parallel resolve pass (measure's `resolve_pool`)
  /// bumps the tallies from several workers at once — a plain uint64 would
  /// be a data race, a bare std::atomic would delete the move.
  struct RelaxedCount {
    std::atomic<std::uint64_t> n{0};
    RelaxedCount() = default;
    RelaxedCount(RelaxedCount&& o) noexcept
        : n(o.n.load(std::memory_order_relaxed)) {}
    RelaxedCount& operator=(RelaxedCount&& o) noexcept {
      n.store(o.n.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  // --- Walk memoization (mutable; per-AS cache slots have one writer —
  //     the parallel resolve pass never splits an AS run across workers —
  //     and the tallies are relaxed atomics; see resolve). ---
  mutable std::vector<CachedWalk> cache_;
  mutable RelaxedCount cache_hits_;
  mutable RelaxedCount cache_misses_;
};

}  // namespace anyopt::bgp
