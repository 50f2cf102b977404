#pragma once
// Parallel experiment execution engine.
//
// Discovery is the dominant cost of AnyOpt: a campaign is O(providers²) +
// Σ O(sites_p²) *independent* BGP experiments (§4.5), each a clean-state
// `bgp::Simulator::run` over shared immutable topology.  The runner takes a
// batch of fully specified experiments — an `AnycastConfig` plus the
// content-derived nonce that fixes its jitter — and fans them out over a
// worker pool.  Because every experiment's identity is self-contained,
// results are returned in spec order and are bit-identical to the serial
// path regardless of thread count or completion order.

#include <cstdint>
#include <span>
#include <vector>

#include "anycast/config.h"
#include "measure/orchestrator.h"
#include "netbase/thread_pool.h"

namespace anyopt::measure {

/// \brief One fully specified BGP experiment: a deployable configuration
///        plus the nonce that individualizes its jitter.
///
/// Two specs with the same content produce the same census wherever and
/// whenever they run.  The fault coordinates (`ordinal`, `attempt`) only
/// matter when the orchestrator carries a `fault::FaultInjector`: they
/// locate the experiment inside its campaign so injected failures replay
/// deterministically; a re-enqueued (retried) spec keeps its nonce — and
/// therefore its census noise — and bumps only `attempt`.
///
/// A spec with a `base` is measured incrementally, as a copy-on-write
/// overlay that propagates only `delta` over the shared converged base
/// (see `Orchestrator::measure_overlay`); `config` must still describe the
/// FULL experiment (base schedule plus delta), because it keys the result
/// store and drives the fault layer's classic fallback.  A null `base` is
/// a classic clean-state run.  The base is not owned and must outlive the
/// batch; many specs may share one base across threads (it is read-only
/// during overlay runs).
struct ExperimentSpec {
  anycast::AnycastConfig config;  ///< what to announce (the full experiment)
  std::uint64_t nonce = 0;        ///< content-derived jitter/noise identity
  std::size_t ordinal = 0;        ///< campaign position, for the fault layer
  std::uint32_t attempt = 0;      ///< retry attempt, 0 = first run
  const bgp::BaseState* base = nullptr;  ///< shared base; nullptr = classic
  std::vector<bgp::Injection> delta;     ///< events beyond the base schedule
};

/// \brief One pairwise order experiment expressed incrementally: a shared
///        converged base plus the second item's announcement delta.
///
/// Expands to TWO censuses — leg 0 forks the base and propagates `delta`;
/// leg 1 resumes leg 0 and re-ages the `reage` attachments (seniority
/// inversion), so the pair costs one wave-2 propagation and one flip
/// cascade instead of two full re-convergences.  `config0`/`config1` must
/// describe the two full experiments: they key the result store and drive
/// the fault layer's classic fallbacks (see
/// `Orchestrator::measure_overlay_pair`).  The base is not owned and must
/// outlive the batch; many specs may share one base across threads (it is
/// read-only during overlay runs).
struct OverlayPairSpec {
  const bgp::BaseState* base = nullptr;     ///< shared converged base
  anycast::AnycastConfig config0;           ///< full (first, second) config
  anycast::AnycastConfig config1;           ///< full (second, first) config
  std::vector<bgp::Injection> delta;        ///< second item over the base
  std::vector<bgp::AttachmentIndex> reage;  ///< first item's sessions (leg 1)
  std::uint64_t nonce0 = 0;                 ///< leg-0 jitter/noise identity
  std::uint64_t nonce1 = 0;                 ///< leg-1 jitter/noise identity
  std::size_t ordinal0 = 0;                 ///< leg-0 campaign position
  std::size_t ordinal1 = 0;                 ///< leg-1 campaign position
  std::uint32_t attempt = 0;                ///< retry attempt, 0 = first run
};

class ResultStore;

/// \brief Campaign engine configuration.
struct CampaignRunnerOptions {
  /// Worker threads; 1 = run serially on the calling thread (no pool),
  /// 0 = hardware concurrency.
  std::size_t threads = 1;
  /// Optional persistent result store (checkpoint/resume and warm starts).
  /// Each spec is looked up by `ResultStore::census_key` before running —
  /// a hit replays the persisted census without simulating — and every
  /// freshly measured census is flushed the moment it completes, so an
  /// interrupted campaign loses at most its in-flight experiments.
  /// Retried specs (`attempt > 0`) always re-run: serving a stored census
  /// to a retry would replay the very result the retry exists to replace.
  /// Not owned; must outlive the runner.
  ResultStore* store = nullptr;
};

/// \brief Fans a batch of independent experiments over a worker pool.
///
/// Results are returned in spec order and are bit-identical to the serial
/// path regardless of thread count or completion order.  Every experiment
/// runs through the executing thread's one simulator arena
/// (`Orchestrator::thread_scratch`), whatever kind of census it is.
class CampaignRunner {
 public:
  /// \brief Builds a runner over an orchestrator.
  /// \param orchestrator the measurement engine (must outlive the runner).
  /// \param options worker count and result store.
  explicit CampaignRunner(const Orchestrator& orchestrator,
                          CampaignRunnerOptions options = {});

  /// \brief Measures every spec: classic runs, and overlays for specs that
  ///        carry a base.
  /// \param specs the batch of experiments to run.
  /// \return one census per spec, in spec order.
  [[nodiscard]] std::vector<Census> run(
      std::span<const ExperimentSpec> specs) const;

  /// \brief Measures every overlay pair (incremental re-convergence).
  ///
  /// Same batch loop and store policy as `run`, with the pair as the unit:
  /// a pair simulates as one (leg 1 resumes leg 0), so it replays from the
  /// store only when BOTH legs are persisted.
  /// \param specs the batch of overlay pairs.
  /// \return two censuses per spec, in spec order: [leg0 of spec 0, leg1 of
  ///         spec 0, leg0 of spec 1, ...].
  [[nodiscard]] std::vector<Census> run_overlay_pairs(
      std::span<const OverlayPairSpec> specs) const;

  /// \brief Effective worker count (1 when running serially).
  /// \return number of threads experiments are fanned over.
  [[nodiscard]] std::size_t threads() const {
    return pool_ ? pool_->size() : 1;
  }

  /// \brief The orchestrator this runner drives.
  /// \return the orchestrator passed at construction.
  [[nodiscard]] const Orchestrator& orchestrator() const {
    return orchestrator_;
  }

 private:
  /// The one batch loop behind `run` and `run_overlay_pairs`.  Each spec
  /// is a unit that simulates as one and yields a fixed number of censuses
  /// (its legs).  The loop owns the batch span and counters, serial vs pool
  /// dispatch, store replay (all legs persisted and `attempt == 0`) with
  /// its `store-hit` provenance lines, and the flush of every census as it
  /// completes.
  template <class Spec>
  [[nodiscard]] std::vector<Census> run_batch(
      std::span<const Spec> specs) const;

  const Orchestrator& orchestrator_;
  ResultStore* store_ = nullptr;
  // The pool is internally synchronized; dispatching through it from a
  // const `run` leaves the runner's observable state untouched.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace anyopt::measure
