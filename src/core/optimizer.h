#pragma once
// Offline configuration search (§5.3).
//
// Enumerates site subsets, picks for each an announcement order that
// maximizes the number of clients with a consistent total order (§4.5 step
// 3), predicts the mean client RTT with the two-level tables, and returns
// the best configuration per subset size and overall — the computation the
// paper ran for six hours to find its 12-site configuration.
//
// Also provides the two baselines of Fig. 6: greedy-by-unicast-latency and
// random provider/site picks.

#include <cstdint>
#include <limits>
#include <vector>

#include "anycast/config.h"
#include "core/predictor.h"
#include "netbase/rng.h"

namespace anyopt::core {

/// \brief Search-space and objective parameters of the offline search.
struct OptimizerOptions {
  std::size_t min_sites = 1;  ///< smallest enabled-site count examined
  /// Largest enabled-site count examined.
  std::size_t max_sites = std::numeric_limits<std::size_t>::max();
  /// Wall-clock bound for the search (the paper used six hours).  Checked
  /// every 4,096 subsets visited, starting with the first, whatever the
  /// size bounds; a search it stops reports `exhausted == false`.
  double time_budget_s = 60.0;
  /// Candidate announcement orders examined per provider subset when
  /// maximizing the consistent-client fraction.
  std::size_t order_candidates = 24;
  /// Evaluate configurations on a uniform sample of this many targets
  /// (0 = all).  The best-per-size configurations are always re-scored on
  /// the full target set afterwards.
  std::size_t target_sample = 0;
  /// Per-site workload capacity (in summed target weight); empty =
  /// uncapacitated.  Configurations whose predicted catchment overloads a
  /// site are discarded, the Appendix-B load constraint (Eq. 7) applied
  /// during the search.  The gate is a strict comparison (`load > cap`)
  /// and never divides by capacity, so the edge cases are well defined:
  /// load exactly at capacity passes, and a zero-capacity site is feasible
  /// as long as every target in its predicted catchment has weight 0 (a
  /// drained site under a drained workload is compliant, not overloaded).
  /// Sites beyond the vector's length are uncapacitated.
  std::vector<double> site_capacity;
  /// Per-target workload weights (empty = uniform).  The objective becomes
  /// the workload-weighted mean RTT, the Appendix-B weighting extension.
  std::vector<double> target_weight;
  std::uint64_t seed = 0x0F7;  ///< seeds order-candidate sampling
};

/// \brief One evaluated configuration.
struct EvaluatedConfig {
  anycast::AnycastConfig config;  ///< the configuration scored
  /// Population-wide mean RTT estimate used for ranking: predictable
  /// targets contribute their predicted catchment's unicast RTT; targets
  /// without a total order are *imputed* with their mean unicast RTT over
  /// the enabled sites.  Without imputation the search would favour
  /// configurations that simply exclude their worst clients from
  /// prediction (a winner's-curse artifact the paper's measured
  /// evaluation would expose).
  double predicted_mean_rtt = std::numeric_limits<double>::infinity();
  /// Mean over predictable targets only (comparable to
  /// Prediction::mean_rtt).
  double predictable_mean_rtt = std::numeric_limits<double>::infinity();
  double fraction_ordered = 0;  ///< targets with a usable total order
};

/// \brief Search output.
struct SearchOutcome {
  EvaluatedConfig best;  ///< overall best configuration found
  /// Best configuration found for each enabled-site count (index = count;
  /// index 0 unused).
  std::vector<EvaluatedConfig> best_per_size;
  std::size_t configurations_evaluated = 0;  ///< total subsets scored
  bool exhausted = false;  ///< true if every subset in range was evaluated
};

/// \brief The offline configuration search of §5.3.
class Optimizer {
 public:
  /// \brief Builds the optimizer over a predictor.
  /// \param predictor the offline predictor (must outlive this).
  /// \param options search-space parameters; see `OptimizerOptions`.
  Optimizer(const Predictor& predictor, OptimizerOptions options = {});

  /// \brief Full subset search under the time budget.
  /// \return the best configurations found plus the search trace.
  [[nodiscard]] SearchOutcome search() const;

  /// \brief Predicted evaluation of one configuration (same result as
  ///        Predictor::predict under the optimizer-chosen provider order,
  ///        but O(targets)).
  ///
  /// Pure: the provider-subset table is built into a local, so any number
  /// of threads may call this concurrently on one const Optimizer (the
  /// serve layer's `score` contract).  The provider order is the one the
  /// search would choose for the config's provider subset, not the
  /// config's own; use Predictor::predict for a config-order-faithful
  /// prediction.
  /// \param config the configuration to score.
  /// \return its predicted means and ordered fraction.
  [[nodiscard]] EvaluatedConfig evaluate(
      const anycast::AnycastConfig& config) const;

  /// \brief Alias of `evaluate`, kept for existing callers.
  /// \param config the configuration to score.
  /// \return `evaluate(config)`.
  [[nodiscard]] EvaluatedConfig evaluate_uncached(
      const anycast::AnycastConfig& config) const {
    return evaluate(config);
  }

  /// \brief One provider subset's precomputation: the announcement order
  ///        maximizing the consistent fraction (§4.5 step 3) and, under
  ///        it, each target's most-preferred provider.
  struct SubsetTable {
    std::vector<std::size_t> providers;     ///< member provider slots, ascending
    std::vector<std::size_t> arrival_rank;  ///< chosen order, per provider slot
    /// Targets with a strict total order over the members under the chosen
    /// order, as a fraction of all targets.
    double fraction_ordered = 0;
    /// Per target: its most-preferred member provider slot, or `kNoWinner`
    /// when it has no total order at provider level.
    std::vector<std::uint8_t> winner;
    /// Distinct pairwise-preference patterns over the members: the number
    /// of tournaments the order search played per candidate order.
    std::size_t patterns = 0;
  };
  static constexpr std::uint8_t kNoWinner = 0xFF;  ///< `SubsetTable::winner`

  /// \brief Builds the table of one provider subset (pure).
  /// \param provider_mask bit p set = provider slot p is a member.
  /// \return the subset's chosen order, winners and ordered fraction.
  [[nodiscard]] SubsetTable subset_table(std::size_t provider_mask) const;

  /// \brief Baseline: the k sites with the lowest mean unicast RTT,
  ///        announced in that order (the "12-Greedy" line of Fig. 6).
  /// \param rtts the unicast RTT matrix to rank sites by.
  /// \param k number of sites to pick.
  /// \return the greedy configuration.
  [[nodiscard]] static anycast::AnycastConfig greedy_unicast(
      const RttMatrix& rtts, std::size_t k);

  /// \brief Baseline: random providers with random sites from each (the
  ///        "4-Random" line of Fig. 6).
  /// \param deployment the deployment to draw from.
  /// \param providers number of providers to pick.
  /// \param sites_per_provider number of sites per picked provider.
  /// \param rng the draw stream (advanced).
  /// \return the random configuration.
  [[nodiscard]] static anycast::AnycastConfig random_config(
      const anycast::Deployment& deployment, std::size_t providers,
      std::size_t sites_per_provider, Rng& rng);

 private:
  struct MaskScore {
    double imputed_mean = std::numeric_limits<double>::infinity();
    double predictable_mean = std::numeric_limits<double>::infinity();
    double fraction_ordered = 0;
  };
  /// Target-major copy of the unicast RTTs: row i holds `sample[i]`'s RTT
  /// to every site (stride = site count); only the gathered sites' columns
  /// are filled.
  [[nodiscard]] std::vector<double> gather_rtts(
      const std::vector<std::uint32_t>& sample, std::uint32_t site_mask) const;
  /// Scores one site subset over `sample`, reading RTTs from `rows` (as
  /// gathered for `sample` over a superset of `site_mask`).
  [[nodiscard]] MaskScore score_mask(std::uint32_t site_mask,
                                     const SubsetTable& table,
                                     const std::vector<std::uint32_t>& sample,
                                     const std::vector<double>& rows) const;
  /// Bit p set = provider slot p has a site in `config`.
  [[nodiscard]] std::size_t provider_mask_of(
      const anycast::AnycastConfig& config) const;
  /// Scores `config` over every target under a prebuilt subset table.
  [[nodiscard]] EvaluatedConfig evaluate_with(
      const anycast::AnycastConfig& config, const SubsetTable& table) const;

  const Predictor& predictor_;
  OptimizerOptions options_;

  // Immutable precomputation.
  std::vector<std::size_t> provider_of_site_;
  /// Per (target, provider) cell `t * providers + p`: the provider's sites
  /// in that target's preference order, row `site_order_[cell *
  /// site_stride_ ...]`, padded with a site id no mask enables; an
  /// all-padding row = inconsistent site-level prefs.  The stride is the
  /// largest per-provider site count.
  std::size_t site_stride_ = 0;
  std::vector<std::uint8_t> site_order_;
};

}  // namespace anyopt::core
