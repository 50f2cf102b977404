#pragma once
// The measurement orchestrator (§3.1): deploys anycast configurations on
// the simulated Internet and measures catchments and RTTs the way the
// paper's Verfploeter-style tool does.
//
//  * Catchments: a spoofed-source ICMP reply from a target returns to its
//    catchment site and is tunnelled to the orchestrator; the tunnel that
//    delivered it identifies the site.
//  * RTTs: announce from a single site, time the echo, subtract the
//    orchestrator<->site tunnel RTT, repeat seven times, take the median.

#include <cstdint>
#include <span>
#include <vector>

#include "anycast/config.h"
#include "anycast/world.h"
#include "bgp/simulator.h"
#include "measure/prober.h"
#include "measure/provenance.h"
#include "netbase/fault.h"
#include "netbase/geo.h"
#include "netbase/ids.h"

namespace anyopt {
class ThreadPool;
}

namespace anyopt::measure {

/// \brief Orchestrator configuration.
struct OrchestratorOptions {
  /// Where the GoBGP orchestrator host lives (tunnel endpoints fan out
  /// from here).  Default: Cambridge, MA.
  geo::Coordinates location{42.373, -71.110};
  ProbeModel probe;              ///< probe-channel noise & retry model
  std::uint64_t seed = 0x0BC;    ///< root of every census noise stream
  /// Fault injector shared by every census (not owned; must outlive the
  /// orchestrator).  nullptr — the default — disables the fault layer
  /// entirely and leaves every measurement bit-identical to a build
  /// without it.
  const fault::FaultInjector* faults = nullptr;
  /// Worker pool for the census resolve pass (not owned; nullptr — the
  /// default — resolves serially).  Workers take contiguous chunks of the
  /// AS-grouped resolve order, never splitting a client-AS run, resolve
  /// into private `CensusShards` planes and merge them order-invariantly —
  /// censuses AND the frozen RIB's cache hit/miss counts are bit-identical
  /// to the serial pass at any pool size (census_shards_test +
  /// layout_invariance_test enforce it).  The pool must NOT be one the
  /// calling task itself runs on (nested parallel_for can deadlock), so
  /// campaign workers leave this null.
  ThreadPool* resolve_pool = nullptr;
};

/// \brief Fault-plan coordinates of one census within its campaign.
///
/// The fault layer keys every stochastic decision on these (plus the plan
/// seed) so that faulted campaigns replay identically at any thread count,
/// and a retry (`attempt` + 1) re-rolls only the fault decisions — the
/// census noise itself is keyed on the experiment nonce and unchanged.
struct ExperimentAt {
  std::size_t ordinal = 0;   ///< position in the campaign's spec enumeration
  std::uint32_t attempt = 0; ///< retry attempt, 0 = first run
};

/// \brief Result of one catchment + RTT census under a deployed
///        configuration.
struct Census {
  /// Catchment site per target; invalid id = unreachable or fewer than
  /// `ProbeModel::min_valid` probes answered.
  std::vector<SiteId> site_of_target;
  /// Attachment (BGP session) whose tunnel delivered each reply; identifies
  /// peer catchments.  kNoAttachment when unreachable.
  std::vector<bgp::AttachmentIndex> attachment_of_target;
  /// Site<->target RTT estimate per target (tunnel RTT already subtracted);
  /// negative = no measurement.
  std::vector<double> rtt_ms;

  /// \brief Targets that produced a measurement.
  /// \return number of targets with a valid catchment site.
  [[nodiscard]] std::size_t reachable_count() const;
  /// Mean / median over the targets with a valid RTT measurement.  Empty
  /// census contract: when no target produced a measurement (deployment
  /// unreachable, all probes lost, round killed by fault injection), both
  /// return 0.0 — callers that must distinguish "no data" from "zero
  /// latency" check `reachable_count()` (equivalently
  /// `valid_rtts().empty()`) first.
  /// \brief Mean RTT over measured targets; 0.0 for an empty census.
  [[nodiscard]] double mean_rtt() const;
  /// \brief Median RTT over measured targets; 0.0 for an empty census.
  [[nodiscard]] double median_rtt() const;
  /// \brief Targets mapped to `site`.
  /// \param site the catchment site to count.
  /// \return number of targets whose reply identified `site`.
  [[nodiscard]] std::size_t catchment_size(SiteId site) const;
  /// \brief Targets whose reply came in via attachment `at`.
  /// \param at the BGP session (attachment index) to count.
  /// \return number of targets delivered through that session's tunnel.
  [[nodiscard]] std::size_t attachment_catchment_size(
      bgp::AttachmentIndex at) const;
  /// \brief All valid per-target RTTs (for CDFs).
  /// \return the RTTs of every measured target, in target order.
  [[nodiscard]] std::vector<double> valid_rtts() const;
};

/// \brief Deploys configurations on the simulated Internet and measures
///        them the way the paper's Verfploeter-style tool does (§3.1).
class Orchestrator {
 public:
  /// \brief Binds the orchestrator to a world.
  /// \param world the immutable simulated Internet (must outlive this).
  /// \param options measurement model, seed, scratch & fault settings.
  Orchestrator(const anycast::World& world, OrchestratorOptions options = {});

  /// \brief Deploys `config` (full announcement schedule, §2.3) and
  ///        measures each site's catchment and each target's RTT.
  ///
  /// Runs the BGP experiment through this thread's arena
  /// (`thread_scratch()`), so consecutive censuses on a thread recycle
  /// simulator allocations.
  /// \param config the anycast configuration to announce.
  /// \param experiment_nonce individualizes BGP jitter and probe noise:
  ///        re-running with a different nonce is a fresh real-world
  ///        experiment; the same nonce reproduces the census bit for bit.
  /// \param at the census's campaign ordinal and retry attempt (see the
  ///        explicit-scratch overload).
  /// \return the census (one catchment + RTT row per target).
  [[nodiscard]] Census measure(const anycast::AnycastConfig& config,
                               std::uint64_t experiment_nonce,
                               ExperimentAt at = {}) const;

  /// \brief Like the overload above, but runs the BGP experiment through
  ///        an explicit allocation scratch (see `bgp::SimScratch`);
  ///        `nullptr` disables amortization for this census.  Results are
  ///        bit-identical either way.
  ///
  /// When `OrchestratorOptions::faults` is set, the injector's decisions
  /// for (`at.ordinal`, `at.attempt`) apply to this census: the round can
  /// be lost outright (empty census), degraded (a fraction of targets
  /// silently dropped), announced without failed sites, subjected to
  /// session flaps, or probed under a loss storm.  With no injector the
  /// coordinates are ignored.
  /// \param config the anycast configuration to announce.
  /// \param experiment_nonce see the overload above.
  /// \param scratch recycled simulator buffers, or nullptr for none.
  /// \param at the census's campaign ordinal and retry attempt.
  /// \return the census (empty when the fault layer killed the round).
  [[nodiscard]] Census measure(const anycast::AnycastConfig& config,
                               std::uint64_t experiment_nonce,
                               bgp::SimScratch* scratch,
                               ExperimentAt at = {}) const;

  /// \brief The calling thread's simulator arena: the one every
  ///        default-path census on this thread recycles.
  ///
  /// Callers that must pass a scratch explicitly (the campaign runner's
  /// overlay specs and pairs, the agility engine) pass this one, so a
  /// thread parks a single arena whatever kinds of census it runs.
  /// \return this thread's arena (lives until the thread exits).
  [[nodiscard]] static bgp::SimScratch& thread_scratch();

  /// \brief Converges `config`'s announcement schedule once into a
  ///        campaign-shared base state (incremental re-convergence).
  ///
  /// The base is a pure simulation artifact — no census is taken and the
  /// fault layer does not apply (faults attach to *measured experiments*;
  /// an experiment whose faults would alter the base schedule falls back to
  /// a classic run inside `measure_overlay`/`measure_overlay_pair`).  The
  /// result depends only on (schedule, base_nonce), so a shared base is
  /// interchangeable with a freshly converged private one, bit for bit.
  /// \param config the configuration whose schedule to converge.
  /// \param base_nonce individualizes the base's jitter (content-derive it).
  /// \return the frozen base; overlays forked from it must not outlive it.
  [[nodiscard]] bgp::BaseState converge_base(
      const anycast::AnycastConfig& config, std::uint64_t base_nonce) const;

  /// \brief Measures one experiment as a copy-on-write overlay over `base`:
  ///        only `delta` is propagated, then the census is taken exactly as
  ///        `measure` would.
  ///
  /// `config` must describe the FULL experiment (base schedule + delta) —
  /// it is consulted for fault-layer decisions: when the injector plans
  /// session flaps or a site failure that touches `config`'s announcements,
  /// the schedule no longer decomposes into base + delta and this method
  /// transparently falls back to the classic `measure` path.  Round
  /// failures, degraded rounds and loss storms compose with overlays.
  /// \param base the shared converged base (see `converge_base`).
  /// \param config the full experiment configuration (fault decisions).
  /// \param delta injections beyond the base schedule (times relative to
  ///        the base's convergence horizon).
  /// \param experiment_nonce jitter/noise identity, as in `measure`.
  /// \param scratch recycled simulator buffers, or nullptr.
  /// \param at the census's campaign ordinal and retry attempt.
  /// \param sim_events when non-null, receives the update events the
  ///        overlay's delta propagation processed (the incremental cost of
  ///        this experiment; the shared base's events are not included).
  ///        Set to 0 when the fault layer forces the classic fallback or
  ///        kills the round — callers comparing overlay against classic
  ///        costs (the agility engine) must not count a fallback as a
  ///        delta re-convergence.
  /// \return the census.
  [[nodiscard]] Census measure_overlay(const bgp::BaseState& base,
                                       const anycast::AnycastConfig& config,
                                       std::span<const bgp::Injection> delta,
                                       std::uint64_t experiment_nonce,
                                       bgp::SimScratch* scratch,
                                       ExperimentAt at,
                                       std::size_t* sim_events =
                                           nullptr) const;

  /// \brief Both censuses of a two-leg order experiment, measured
  ///        incrementally.
  struct OverlayPairCensus {
    Census leg0;  ///< the (first, second) announcement order
    Census leg1;  ///< the (second, first) order, via seniority inversion
  };

  /// \brief Measures a pairwise order experiment as two overlay legs over
  ///        one shared base.
  ///
  /// Leg 0 forks `base` and propagates `delta` (the second item's
  /// announcement).  Leg 1 resumes leg 0's converged state and re-ages the
  /// `reage` attachments — the base item's routes take fresh arrival-seq
  /// values exactly as a re-advertisement would, which is precisely "the
  /// second item was announced first" under the oldest-route tie-break —
  /// and propagates only the resulting decision flips.  `config0`/`config1`
  /// describe the two FULL experiments for the fault layer; any fault that
  /// would alter either leg's schedule (flaps, announced-site failures)
  /// falls both legs back to classic `measure` runs.  A failed measurement
  /// round empties only that leg's census — the routes still converged, so
  /// leg 1 resumes leg 0's state either way and a retried pair reproduces
  /// the fault-free censuses bit for bit.
  /// \param base the shared base with the pair's first item announced.
  /// \param config0 full leg-0 configuration (first, second).
  /// \param config1 full leg-1 configuration (second, first).
  /// \param delta the second item's announcement over the base.
  /// \param reage the first item's attachments (re-aged for leg 1).
  /// \param nonce0 leg-0 jitter/noise identity.
  /// \param nonce1 leg-1 jitter/noise identity.
  /// \param scratch recycled simulator buffers, or nullptr.
  /// \param at0 leg-0 campaign coordinates.
  /// \param at1 leg-1 campaign coordinates.
  /// \return both legs' censuses.
  [[nodiscard]] OverlayPairCensus measure_overlay_pair(
      const bgp::BaseState& base, const anycast::AnycastConfig& config0,
      const anycast::AnycastConfig& config1,
      std::span<const bgp::Injection> delta,
      std::span<const bgp::AttachmentIndex> reage, std::uint64_t nonce0,
      std::uint64_t nonce1, bgp::SimScratch* scratch, ExperimentAt at0,
      ExperimentAt at1) const;

  /// \brief The paper's single-site RTT procedure: announce only `site`,
  ///        measure every target's RTT to it via the site tunnel.
  /// \param site the site to announce alone.
  /// \param experiment_nonce see `measure`.
  /// \return per-target RTTs; row `t` < 0 means target `t` was unreachable.
  [[nodiscard]] std::vector<double> unicast_rtts(
      SiteId site, std::uint64_t experiment_nonce) const;

  /// \brief Tunnel RTT between the orchestrator and a site (periodically
  ///        measured in the paper; modelled as geodesic + encapsulation
  ///        overhead).
  /// \param site the tunnel's site end.
  /// \return round-trip milliseconds orchestrator <-> site.
  [[nodiscard]] double tunnel_rtt_ms(SiteId site) const;

  /// \brief The world this orchestrator measures.
  /// \return the bound world.
  [[nodiscard]] const anycast::World& world() const { return world_; }

  /// \brief The fault injector every census consults.
  /// \return the injector from the options, or nullptr when the fault
  ///         layer is disabled.  Campaign layers use this to decide up
  ///         front whether incremental overlays can express a schedule
  ///         (session flaps rewrite the base schedule itself).
  [[nodiscard]] const fault::FaultInjector* faults() const {
    return options_.faults;
  }

 private:
  /// One census's provenance line and fault-layer decisions: the state of
  /// the round prologue and epilogue every measurement path shares.
  struct Round {
    provenance::ExperimentTrace trace;
    fault::RoundFaults faults;
    bool tracing = false;  ///< provenance was on when the round began
    double t0_us = 0.0;    ///< round start, for the provenance duration
    /// The trace a census pass fills, or nullptr when provenance is off.
    [[nodiscard]] provenance::ExperimentTrace* sink() {
      return tracing ? &trace : nullptr;
    }
  };
  /// The round prologue: starts the provenance trace (identity and `path`)
  /// and rolls the fault layer's decisions for `at`.  When the fault layer
  /// kills the round (`faults.fail_round`), the loss is already counted and
  /// its provenance line recorded; the round's census is `empty_census()`.
  [[nodiscard]] Round begin_round(std::uint64_t experiment_nonce,
                                  ExperimentAt at, const char* path) const;
  /// The round epilogue: records the round's duration and provenance line.
  static void end_round(Round& round);
  /// An all-unreachable census in the world's target shape.
  [[nodiscard]] Census empty_census() const;
  /// Passes 1+2 over an already converged state: freeze it into a
  /// `bgp::CompactState`, resolve every target's forwarding path against
  /// that frozen SoA RIB, then probe, aggregating through release-as-drained
  /// census shards.  Shared by the classic and overlay paths.  When
  /// `scratch` is non-null the state is CONSUMED: its arena recycles right
  /// after the freeze and the caller must not touch or recycle it again.  With a null
  /// `scratch` the state is only read and stays the caller's to keep — the
  /// overlay-pair leg-0 path relies on this to resume the state afterwards.
  /// When `trace` is non-null its simulation/probe fields are filled for the
  /// provenance flight log (the caller owns path/fault fields and the
  /// record itself).
  [[nodiscard]] Census census_from_state(bgp::RoutingState& state,
                                         std::uint64_t experiment_nonce,
                                         const fault::RoundFaults& round_faults,
                                         ExperimentAt at,
                                         provenance::ExperimentTrace* trace =
                                             nullptr,
                                         bgp::SimScratch* scratch =
                                             nullptr) const;
  /// True when the fault layer would alter this experiment's announcement
  /// schedule at `ordinal` (flap plan, or a failed announced site) — the
  /// overlay decomposition no longer matches and classic `measure` must run.
  [[nodiscard]] bool schedule_faults_apply(const anycast::AnycastConfig& config,
                                           std::size_t ordinal) const;

  const anycast::World& world_;
  OrchestratorOptions options_;
  /// Target ids stable-sorted by client AS (ties keep census/target order):
  /// the resolution pass walks targets in this order so every target of a
  /// client AS resolves while that AS's memoized walk is hot.  Probing still
  /// happens in target order, keeping the prober's RNG stream — and thus
  /// every census — bit-identical to the ungrouped implementation.
  std::vector<std::uint32_t> resolve_order_;
};

}  // namespace anyopt::measure
