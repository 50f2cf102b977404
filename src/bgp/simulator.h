#pragma once
// Event-driven BGP propagation engine.
//
// Simulates the announcement of one anycast prefix from a set of origin
// attachments into the AS-level Internet.  Updates travel with per-link
// delays (geodesic latency plus exponential processing jitter), so the
// *arrival order* of announcements at every AS is well defined — which is
// what lets the reproduction exhibit the paper's central finding that
// deployed routers break ties by arrival order (§4.2).
//
// A run starts from clean state, processes a schedule of timed injections
// (announce/withdraw per attachment), and returns the converged routing
// state, from which catchments, forwarding paths and latencies can be
// resolved per client network.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bgp/decision.h"
#include "bgp/origin.h"
#include "bgp/policy.h"
#include "bgp/route.h"
#include "bgp/walk.h"
#include "netbase/geo.h"
#include "netbase/ids.h"
#include "netbase/rng.h"
#include "topo/builder.h"

namespace anyopt::bgp {

/// Engine tuning knobs.
struct SimulatorOptions {
  /// Mean of the per-hop processing delay (ms).  This component is
  /// *deterministic per link* (hash-derived), modelling stable router/
  /// session characteristics: the same race between two update waves
  /// resolves the same way in every experiment, as observed on the real
  /// Internet (the paper's §4.2 flip behaviour is order-driven, not
  /// noise-driven).  Announce spacing must dwarf hops × (latency + this).
  double processing_delay_mean_ms = 15.0;
  /// Mean of the additional per-run exponential jitter (ms), modelling the
  /// genuinely random per-wave component of update propagation (MRAI timer
  /// randomization): races between announcements made simultaneously
  /// re-roll between experiments, while spaced announcements stay ordered.
  double run_jitter_mean_ms = 3000.0;
  /// Global ablation switch for the arrival-order tie-break; ANDed with the
  /// per-AS `prefers_oldest` flag.
  bool arrival_order_tiebreak = true;
  /// Safety valve: abort if a run exceeds this many events (0 = auto).
  std::size_t max_events = 0;
  /// Base seed; combined with the per-run nonce.
  std::uint64_t seed = 0xB6F;
};

/// One hop of a routing explanation: which route an AS picked and how deep
/// into the decision process it had to go to beat its rivals.
struct ExplainedHop {
  AsId as;
  std::size_t candidates = 0;        ///< present Adj-RIB-In entries
  std::vector<AsId> chosen_path;     ///< AS path of the winning entry
  AsId next;                         ///< next-hop AS; invalid = exits to origin
  /// The deepest decision step needed against any rival (kLocalPref if
  /// the route won on LOCAL_PREF alone, kOldestRoute if only the
  /// arrival-order tie-break separated it, ...).  kLocalPref when
  /// unopposed.
  DecisionStep hardest_step = DecisionStep::kLocalPref;
  bool multipath_split = false;      ///< flow-hash picked among equals
};

/// Full "why did this client end up at that site" trace (§2's manual
/// diagnosis, automated).
struct Explanation {
  bool reachable = false;
  SiteId site;
  std::vector<ExplainedHop> hops;

  /// True if any hop's decision needed the vendor arrival-order step —
  /// i.e. this client's catchment is announcement-order-dependent.
  [[nodiscard]] bool order_dependent() const;

  /// Multi-line human-readable rendering.
  [[nodiscard]] std::string to_string(const topo::Internet& net) const;
};

class Simulator;
class RoutingState;
class BaseState;
class CompactState;

/// Per-call overlay accounting, filled by `Simulator::run_overlay` /
/// `resume_overlay` (telemetry counters `sim.overlay.*` aggregate the same
/// numbers process-wide).
struct OverlayStats {
  std::size_t copied_as = 0;     ///< base pages copied on first write
  std::size_t delta_events = 0;  ///< update events the delta generated
};

/// Recycled allocation arena for `Simulator::run`.  A clean-state BGP run
/// builds per-AS RIB vectors, an event queue, per-session clocks and
/// advertisement diffs from scratch; campaigns run thousands of such
/// experiments over the same topology, so the allocations dominate once the
/// event processing itself is fast.  A SimScratch keeps all of that storage
/// alive between runs: pass it to `run()` to seed the new state from the
/// recycled buffers, and hand the consumed RoutingState back via
/// `recycle()` once its results have been read.
///
/// A scratch is NOT thread-safe — it is meant to be owned by one worker
/// (`measure::CampaignRunner` keeps one per pool worker; the orchestrator
/// falls back to a thread-local one).  Reuse never changes results: every
/// recycled buffer is reset before the run and the engine only ever reads
/// state it wrote this run.
class SimScratch {
 public:
  SimScratch();
  ~SimScratch();
  SimScratch(SimScratch&&) noexcept;
  SimScratch& operator=(SimScratch&&) noexcept;
  SimScratch(const SimScratch&) = delete;
  SimScratch& operator=(const SimScratch&) = delete;

  /// Reclaims the storage of a RoutingState this scratch (or any scratch)
  /// helped build.  Call only once the state's results are consumed; the
  /// state is left empty.
  void recycle(RoutingState&& state);

  struct Impl;  // opaque; owns the recycled buffers (defined in the .cc)

 private:
  friend class Simulator;
  std::unique_ptr<Impl> impl_;
};

/// A fully converged campaign-shared base: the snapshot `Simulator::
/// converge_base` produces and `run_overlay` forks copy-on-write overlays
/// from.  It freezes everything an experiment continuation needs — the
/// per-AS RIBs, the per-neighbor advertisement ledger, the per-session
/// delivery clocks and the arrival-seq high-water mark — so an overlay
/// propagating only a delta schedule behaves exactly like a clean run that
/// replayed the base schedule first.  Immutable once built; any number of
/// overlays (including concurrent ones on different threads) may read it.
/// Must outlive every RoutingState forked from it.
class BaseState {
 public:
  BaseState();
  ~BaseState();
  BaseState(BaseState&&) noexcept;
  BaseState& operator=(BaseState&&) noexcept;
  BaseState(const BaseState&) = delete;
  BaseState& operator=(const BaseState&) = delete;

  /// Update events the base convergence processed.
  [[nodiscard]] std::size_t events() const;
  /// Simulated time of the base's last event (seconds); overlay delta
  /// injections are scheduled relative to this horizon.
  [[nodiscard]] double converged_at_s() const;

 private:
  friend class Simulator;
  friend class RoutingState;
  struct Impl;  // defined in the .cc; owns the frozen buffers
  std::unique_ptr<Impl> impl_;
};

/// Converged routing state of one run.  Valid only while the owning
/// Simulator is alive (and, for overlay states, the BaseState they were
/// forked from).  Move-only: a state may own copy-on-write pages and a
/// run continuation, which have a single owner.
class RoutingState {
 public:
  RoutingState();
  ~RoutingState();
  RoutingState(RoutingState&&) noexcept;
  RoutingState& operator=(RoutingState&&) noexcept;
  RoutingState(const RoutingState&) = delete;
  RoutingState& operator=(const RoutingState&) = delete;

  /// The single best route installed at `as`, or nullptr if unreachable.
  [[nodiscard]] const RibEntry* best(AsId as) const;

  /// All RIB entries installed at `as` (present and not).
  [[nodiscard]] std::span<const RibEntry> rib(AsId as) const;

  /// Multipath-eligible equal-best entries at `as` (indices into rib).
  [[nodiscard]] const BestSet& best_set(AsId as) const;

  /// Walks the data plane from a client at `from` / `from_loc` to its
  /// catchment site.  `flow_hash` seeds per-flow multipath splitting.
  ///
  /// This is the plain reference walk (bgp/walk.h over the engine layout,
  /// nothing memoized): censuses resolve through the frozen `CompactState`
  /// instead, and `compact_test` holds the two to the same bits.  A
  /// RoutingState is never mutated by a read, so any number of threads may
  /// call `resolve` and `explain` on one state at once.
  [[nodiscard]] ResolvedPath resolve(AsId from, const geo::Coordinates& from_loc,
                                     std::uint64_t flow_hash) const;

  /// Like `resolve`, but records per-hop decision diagnostics: which entry
  /// each AS picked, against how many candidates, and the deepest decision
  /// step that was needed.
  [[nodiscard]] Explanation explain(AsId from,
                                    const geo::Coordinates& from_loc,
                                    std::uint64_t flow_hash) const;

  /// Number of update events processed before convergence.
  [[nodiscard]] std::size_t events_processed() const { return events_; }

  /// Simulated time of the last processed event (seconds).
  [[nodiscard]] double converged_at_s() const { return last_event_s_; }

  /// Approximate heap bytes of the copy-on-write pages this overlay has
  /// privatized (0 for clean runs: their pages are plain state, accounted
  /// by the scratch that recycles them).
  [[nodiscard]] std::size_t overlay_copied_bytes() const;

 private:
  friend class Simulator;
  friend class SimScratch;
  friend class CompactState;  // freeze() reads the run nonce
  friend struct SimScratch::Impl;
  friend struct BaseState::Impl;
  struct AsState {
    std::vector<RibEntry> rib;  ///< slots: AS neighbors, then attachments
    BestSet best;
  };
  /// The routing state of `as`: this state's own page when it was written
  /// during the run (or the run was not an overlay), else the shared base
  /// page.  Every read goes through here, so untouched ASes never copy.
  [[nodiscard]] const AsState& state_of(AsId as) const;

  const Simulator* sim_ = nullptr;
  std::vector<AsState> as_;
  /// Overlay bookkeeping: the base this state was forked from (null for
  /// clean runs) and the per-AS copied-on-write flags (`as_[i]` is live iff
  /// `copied_[i]`; empty for clean runs).
  const BaseState* base_ = nullptr;
  std::vector<std::uint8_t> copied_;
  /// Run continuation (advertisement ledger, session clocks, arrival-seq
  /// high-water mark), kept only when the run was asked to stay resumable
  /// (`keep_continuation`); consumed by `Simulator::resume_overlay`.
  struct Cont;
  std::unique_ptr<Cont> cont_;
  std::uint64_t run_nonce_ = 0;
  std::size_t events_ = 0;
  double last_event_s_ = 0;
};

/// The propagation engine.  Construct once per (Internet, attachment table);
/// `run` is const and cheap to call repeatedly with different schedules.
class Simulator {
 public:
  Simulator(const topo::Internet& net,
            std::vector<OriginAttachment> attachments,
            SimulatorOptions options = {});

  [[nodiscard]] const std::vector<OriginAttachment>& attachments() const {
    return attachments_;
  }
  [[nodiscard]] const topo::Internet& internet() const { return net_; }
  [[nodiscard]] const SimulatorOptions& options() const { return options_; }

  /// Egress PoP of attachment `idx`: the PoP of its neighbor's PoP network
  /// nearest to the interconnection point (`nearest_pop(where)`), fixed
  /// per world and computed once here.  Meaningful only when the neighbor
  /// has a PoP network (`internet().pops.has(neighbor)`); 0 otherwise.
  [[nodiscard]] std::size_t attachment_pop(AttachmentIndex idx) const {
    return attachment_pop_[idx];
  }

  /// Runs one BGP experiment from clean state.  `injections` must be sorted
  /// by time; `run_nonce` individualizes jitter (two runs with the same
  /// schedule and nonce are identical).  `scratch`, when given, seeds the
  /// run from recycled buffers (see SimScratch) — results are bit-identical
  /// with or without it.
  [[nodiscard]] RoutingState run(std::span<const Injection> injections,
                                 std::uint64_t run_nonce,
                                 SimScratch* scratch = nullptr) const;

  /// Convenience: announce the given attachments in schedule order with
  /// `spacing_s` between consecutive announcements.
  [[nodiscard]] RoutingState announce_sequence(
      std::span<const AttachmentIndex> order, double spacing_s,
      std::uint64_t run_nonce, SimScratch* scratch = nullptr) const;

  /// Converges `injections` from clean state — exactly like `run` — and
  /// freezes the result (RIBs, advertisement ledger, session clocks,
  /// arrival-seq counter) into a campaign-shared BaseState that any number
  /// of overlays can fork from.
  [[nodiscard]] BaseState converge_base(std::span<const Injection> injections,
                                        std::uint64_t run_nonce) const;

  /// Runs one experiment as a copy-on-write overlay over `base`: only the
  /// `delta` injections are propagated (their times are relative to the
  /// base's convergence horizon), and only ASes the delta actually touches
  /// copy their base page.  `run_nonce` individualizes the overlay's jitter
  /// exactly as in `run`; arrival sequencing continues from the base's
  /// counter, so re-advertisements take fresh arrival_seq values exactly as
  /// `apply_flaps` replays do.  `reage` gives the listed attachments'
  /// routes fresh arrival-seq values (preserving their relative order)
  /// before the delta propagates — the overlay equivalent of those routes
  /// having been announced LAST, which is how a two-leg order experiment
  /// derives leg 1 from leg 0 without replaying the whole schedule.  With
  /// `keep_continuation` the returned state stays resumable via
  /// `resume_overlay`.  The returned state must not outlive `base`.
  [[nodiscard]] RoutingState run_overlay(
      const BaseState& base, std::span<const Injection> delta,
      std::uint64_t run_nonce, SimScratch* scratch = nullptr,
      std::span<const AttachmentIndex> reage = {},
      bool keep_continuation = false, OverlayStats* stats = nullptr) const;

  /// Continues a kept-continuation state (`run_overlay`/`converge_base`
  /// lineage) with a further delta and/or re-aging pass under a fresh
  /// nonce.  Consumes `prior`; throws std::logic_error if `prior` was not
  /// built with `keep_continuation`.
  [[nodiscard]] RoutingState resume_overlay(
      RoutingState&& prior, std::span<const Injection> delta,
      std::uint64_t run_nonce, SimScratch* scratch = nullptr,
      std::span<const AttachmentIndex> reage = {},
      bool keep_continuation = false, OverlayStats* stats = nullptr) const;

 private:
  friend class RoutingState;
  friend class CompactState;  // freeze() reads adj_/host_attach_/attachments_
  friend struct SimScratch::Impl;
  friend struct BaseState::Impl;
  friend struct RoutingState::Cont;

  struct DedupNeighbor {
    AsId as;
    topo::Relation relation;  ///< what the neighbor is to this AS
    LinkId link;
  };

  struct Event;
  struct Advertised;
  /// Internal run-mode descriptor threading the base/resume/re-age inputs
  /// through the single engine implementation (defined in the .cc).
  struct OverlayRun;

  [[nodiscard]] RoutingState run_impl(std::span<const Injection> injections,
                                      std::uint64_t run_nonce,
                                      SimScratch* scratch,
                                      OverlayRun* overlay) const;

  [[nodiscard]] int neighbor_slot(AsId as, AsId neighbor) const;
  [[nodiscard]] int attachment_slot(AsId as, AttachmentIndex idx) const;

  const topo::Internet& net_;
  std::vector<OriginAttachment> attachments_;
  SimulatorOptions options_;
  PolicyEngine policy_;
  std::vector<std::vector<DedupNeighbor>> adj_;          ///< per AS
  std::vector<std::vector<AttachmentIndex>> host_attach_;  ///< per AS
  std::vector<std::size_t> attachment_pop_;  ///< per attachment
};

}  // namespace anyopt::bgp
