#pragma once
// Two-level pairwise preference discovery (§3.3, §4.3, §4.5 steps 1-2).
//
// Provider level: one representative site per transit provider; for every
// provider pair, two BGP experiments (second with reversed announcement
// order) classify each target's preference as strict / order-dependent /
// inconsistent.  Site level: within each provider, pairwise experiments
// among its sites (announcement order provably cannot matter there, and the
// experiments confirm it).  The naive single-experiment mode (simultaneous
// announcement, no order accounting) is retained for the Fig. 4 ablations.
//
// Every method enumerates its experiment specs up front and submits them as
// one batch to a `measure::CampaignRunner`, so campaigns parallelize across
// `DiscoveryOptions::threads` workers.  Experiment nonces are
// content-derived — hash(nonce_base, first, second, order_leg) — so a
// pair's outcome is identical whether it runs alone, inside a full
// campaign, inside a sparse adaptive campaign, or on any thread.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/simulator.h"
#include "core/preference.h"
#include "measure/campaign_runner.h"
#include "measure/orchestrator.h"
#include "netbase/ids.h"

namespace anyopt::core {

/// \brief Configuration of a discovery campaign.
struct DiscoveryOptions {
  /// Announcement spacing within an experiment; must exceed global BGP
  /// convergence (the paper uses six minutes).
  double spacing_s = 360.0;
  /// true: run each pair twice (reversed order) and classify order
  /// dependence.  false: the naive approach — announce both items
  /// simultaneously and take the observed winner as a strict preference.
  bool account_order = true;
  /// Representative site per provider slot; empty = the provider's first
  /// site in site-id order.
  std::vector<SiteId> representatives;
  std::uint64_t nonce_base = 0xD15C0;  ///< root of content-derived nonces
  /// Worker threads for batched experiment execution; 1 = serial,
  /// 0 = hardware concurrency.  Results are bit-identical at any setting.
  std::size_t threads = 1;
  /// Resilience: extra campaign rounds re-enqueueing experiments whose
  /// census came back empty (a round lost to fault injection or a real
  /// orchestrator outage).  0 — the default — disables requeueing.  A
  /// requeued experiment keeps its content-derived nonce and bumps only the
  /// fault-layer attempt, so a retry that survives reproduces the
  /// fault-free census bit for bit and the discovered tables converge to
  /// the fault-free preference order.
  std::size_t retry_rounds = 0;
  /// Campaign-global ordinal of this discovery's first experiment, for the
  /// fault layer's timeline (site failures "at experiment k" count from
  /// here).  Irrelevant unless the orchestrator carries a fault injector.
  std::size_t ordinal_base = 0;
  /// Optional persistent result store (checkpoint/resume and warm starts):
  /// persisted censuses are replayed instead of re-simulated, and every
  /// fresh census is flushed as it completes.  Not owned; must outlive the
  /// discovery.  See `measure::CampaignRunnerOptions::store`.
  measure::ResultStore* store = nullptr;
  /// Incremental re-convergence: converge one shared base per
  /// first-announced site, then measure each pair as a copy-on-write
  /// overlay pair (leg 0 propagates only the second item's announcement
  /// delta; leg 1 resumes leg 0 and re-ages the first item's sessions).
  /// Requires `account_order` — naive campaigns announce simultaneously,
  /// so there is no base to share and they fall back to classic runs.
  /// Incremental censuses carry tagged nonces (see `incremental_nonce`),
  /// so a store shared with classic campaigns never serves a classic
  /// census to an incremental leg or vice versa.
  bool incremental = false;
  /// Testing knob for the shared-base invariant: converge a fresh private
  /// base per pair (same nonce) instead of reusing the cache.  Results
  /// must be bit-identical to the shared-base path; the sharing is purely
  /// an allocation/latency optimization.
  bool incremental_private_bases = false;
};

/// \brief Output of the full two-level discovery.
struct DiscoveryResult {
  /// Pairwise preferences among provider slots.
  PairwiseTable provider_prefs;
  /// Per provider slot: pairwise preferences among its sites (items indexed
  /// by position in `provider_sites[p]`).
  std::vector<PairwiseTable> site_prefs;
  /// Per provider slot: its sites in site-id order.
  std::vector<std::vector<SiteId>> provider_sites;
  /// Number of BGP experiments performed (including requeued retries).
  std::size_t experiments = 0;
};

/// \brief Runs the paper's pairwise preference-discovery campaigns.
class Discovery {
 public:
  /// \brief Builds a discovery engine over a measurement orchestrator.
  /// \param orchestrator the measurement engine (must outlive this).
  /// \param options campaign parameters; see `DiscoveryOptions`.
  Discovery(const measure::Orchestrator& orchestrator,
            DiscoveryOptions options = {});

  /// \brief Full two-level discovery (§4.5 step 2): provider level, then
  ///        per-provider site level.
  /// \return both preference tables plus the experiment count.
  [[nodiscard]] DiscoveryResult run() const;

  /// \brief Provider-level discovery only (representative site per
  ///        provider, all provider pairs).
  /// \param experiments if non-null, receives the experiment count.
  /// \return pairwise preferences among provider slots.
  [[nodiscard]] PairwiseTable provider_level(std::size_t* experiments) const;

  /// \brief Both Fig. 4b views of one provider-level campaign.
  ///
  /// The ordered view is `provider_level` with order accounting.  The
  /// naive view is DERIVED from the same two ordered legs instead of
  /// re-measured: a naive campaign takes whatever wins as a strict
  /// preference, so a target whose winner depends on announcement order
  /// shows up as an inconsistency (its two legs disagree), and a target
  /// unreachable in either leg stays unknown.  Deriving it costs zero
  /// extra experiments while preserving the ablation's direction — the
  /// naive view can only be as good as or worse than the ordered one.
  struct ProviderLevelViews {
    PairwiseTable ordered;  ///< order-accounted classification
    PairwiseTable naive;    ///< what a naive campaign would conclude
  };

  /// \brief Runs ONE provider-level campaign and returns both views.
  ///
  /// With `options().account_order` off there are no per-order legs to
  /// derive from; both views then equal the naive `provider_level` table.
  /// \param experiments if non-null, receives the experiment count.
  /// \return ordered and naive tables over provider slots.
  [[nodiscard]] ProviderLevelViews provider_level_views(
      std::size_t* experiments) const;

  /// \brief Site-level discovery only (pairs within each provider).
  /// \param experiments if non-null, receives the experiment count.
  /// \return one table per provider slot, sites in site-id order.
  [[nodiscard]] std::vector<PairwiseTable> site_level(
      std::size_t* experiments) const;

  /// \brief The naive flat approach used as the baseline in Fig. 4c:
  ///        pairwise experiments over ALL site pairs, ignoring the provider
  ///        structure (honours `options().account_order`).
  /// \param experiments if non-null, receives the O(|S|²) experiment count.
  /// \return pairwise preferences among all sites.
  [[nodiscard]] PairwiseTable flat_site_level(std::size_t* experiments) const;

  /// \brief One classified pairwise measurement between two sites (two BGP
  ///        experiments when order accounting is on, one otherwise).
  /// \param first the pair's first item (announced first in leg 0).
  /// \param second the pair's second item.
  /// \param experiments if non-null, the experiment count is added to it.
  /// \return per-target classification with `first`/`second` as the items.
  [[nodiscard]] std::vector<PrefKind> classify_pair(
      SiteId first, SiteId second, std::size_t* experiments) const;

  /// \brief Batch variant of `classify_pair`: all pairs' experiments are
  ///        submitted as one campaign batch (parallel across
  ///        `options().threads`).
  /// \param pairs the site pairs to measure.
  /// \param experiments if non-null, the experiment count is added to it.
  /// \return one per-target classification vector per pair, in input order.
  [[nodiscard]] std::vector<std::vector<PrefKind>> classify_pairs(
      std::span<const std::pair<SiteId, SiteId>> pairs,
      std::size_t* experiments) const;

  /// \brief Fig. 4a primitive: announce the representative sites of
  ///        providers `p` then `q` (spaced), re-run reversed.
  /// \param p first provider slot.
  /// \param q second provider slot.
  /// \return fraction of targets whose catchment changed between the two
  ///         runs; 0.0 when either provider has no representative.
  [[nodiscard]] double order_flip_fraction(ProviderId p, ProviderId q) const;

  /// \brief The representative site used for a provider.
  /// \param provider the provider slot.
  /// \return the configured (or first-attached) site; an INVALID SiteId
  ///         when the provider has no attached sites and no configured
  ///         representative — callers must check `.valid()` before
  ///         announcing.
  [[nodiscard]] SiteId representative(ProviderId provider) const;

  /// \brief The content-derived nonce of one experiment leg.
  ///
  /// Depends only on (nonce_base, announced first, announced second, leg),
  /// never on how many experiments ran before it — and deliberately NOT on
  /// the fault-layer attempt, so a requeued experiment reproduces the
  /// fault-free census when it survives.
  /// \param first the site announced first.
  /// \param second the site announced second.
  /// \param order_leg 0 for the (first, second) leg, 1 for the reversed.
  /// \return the experiment's nonce.
  [[nodiscard]] std::uint64_t experiment_nonce(SiteId first, SiteId second,
                                               std::uint64_t order_leg) const;

  /// \brief This discovery's options.
  /// \return the options passed at construction.
  [[nodiscard]] const DiscoveryOptions& options() const { return options_; }

 private:
  struct PairOutcomes {
    // Winner per target: 0 = first item, 1 = second, 2 = unreachable.
    std::vector<std::uint8_t> winner;
  };

  /// One logical pairwise measurement (expands to 1 or 2 experiment specs).
  struct PairJob {
    SiteId first;
    SiteId second;
  };

  /// Runs all jobs as one experiment batch and classifies each: returns one
  /// per-target PrefKind vector per job, in job order.  `ordinal_base` is
  /// the campaign-global ordinal of the batch's first spec (fault-layer
  /// timeline).  Empty censuses are re-enqueued with a bumped attempt for
  /// up to `options().retry_rounds` extra rounds.
  [[nodiscard]] std::vector<std::vector<PrefKind>> classify_jobs(
      std::span<const PairJob> jobs, std::size_t* experiments,
      std::size_t ordinal_base) const;

  /// Measures all jobs (classic specs or incremental overlay pairs,
  /// per `options().incremental`) including the retry rounds; returns
  /// `jobs.size() * legs` censuses in job-major, leg-minor order.
  [[nodiscard]] std::vector<measure::Census> measure_jobs(
      std::span<const PairJob> jobs, std::size_t* experiments,
      std::size_t ordinal_base) const;

  /// Classifies already-measured jobs (the tail of `classify_jobs`) and
  /// tallies the per-kind telemetry.
  [[nodiscard]] std::vector<std::vector<PrefKind>> classify_from_censuses(
      std::span<const PairJob> jobs,
      std::span<const measure::Census> censuses) const;

  /// True when this campaign runs overlay pairs: incremental mode is on,
  /// order accounting gives it a per-order base to share, and no session
  /// flaps are planned (flaps rewrite the base schedule itself, which an
  /// overlay cannot express — such campaigns run classic end to end, with
  /// classic nonces, so they stay bit-identical to a classic discovery).
  [[nodiscard]] bool incremental_active() const {
    return options_.incremental && options_.account_order &&
           (orchestrator_.faults() == nullptr ||
            orchestrator_.faults()->flaps().empty());
  }

  /// The content-derived nonce of one incremental experiment leg.  Same
  /// shape as `experiment_nonce` but under a distinct tag: an overlay leg
  /// draws different jitter streams than the classic run of the same
  /// config, so its census — and its store key — must never collide with
  /// a classic campaign's.
  [[nodiscard]] std::uint64_t incremental_nonce(SiteId first, SiteId second,
                                                std::uint64_t order_leg) const;

  /// The nonce of the shared base that announces `first` alone.
  [[nodiscard]] std::uint64_t base_nonce(SiteId first) const;

  /// The converged single-site base for `first`: cached and shared across
  /// pairs (and across `classify_pairs` batches — sparse discovery's
  /// adaptive rounds reuse one Discovery), or converged fresh per call
  /// when `options().incremental_private_bases` is set.  A base depends
  /// only on its schedule and nonce, so shared and private copies are
  /// interchangeable bit for bit.
  [[nodiscard]] std::shared_ptr<const bgp::BaseState> base_for(
      SiteId first) const;

  /// The provider-level campaign's jobs: one representative pair per
  /// provider pair (p < q) whose providers both have a representative,
  /// with the (p, q) table slot each fills.  Site-level ordinals start
  /// after these jobs' specs so one FaultPlan timeline spans `run()`.
  struct ProviderJobs {
    std::vector<PairJob> jobs;
    std::vector<std::pair<std::size_t, std::size_t>> slots;
  };
  [[nodiscard]] ProviderJobs provider_jobs() const;

  /// The spec of one experiment leg of a pair measurement.
  [[nodiscard]] measure::ExperimentSpec make_spec(SiteId first, SiteId second,
                                                  double spacing_s,
                                                  std::uint64_t order_leg) const;

  /// Extracts per-target winners from a census of the (first, second) pair.
  [[nodiscard]] static PairOutcomes census_winners(
      const measure::Census& census, SiteId first, SiteId second);

  static PrefKind classify(std::uint8_t winner_when_ab,
                           std::uint8_t winner_when_ba);

  const measure::Orchestrator& orchestrator_;
  DiscoveryOptions options_;
  measure::CampaignRunner runner_;
  // Shared-base cache for incremental campaigns, keyed by base nonce.
  // Bases are converged serially on the calling thread before a batch
  // fans out (workers only fork read-only overlays), so the mutex guards
  // nothing hot; it exists because a const Discovery may be driven from
  // multiple threads.  shared_ptr keeps a base alive while private-base
  // batches or earlier batches still reference it.
  mutable std::mutex base_mutex_;
  mutable std::unordered_map<std::uint64_t,
                             std::shared_ptr<const bgp::BaseState>>
      base_cache_;
};

}  // namespace anyopt::core
