#include "core/optimizer.h"

#include <gtest/gtest.h>

#include "support/core_fixture.h"

namespace anyopt::core {
namespace {

using anyopt::testing::default_env;

OptimizerOptions quick_options() {
  OptimizerOptions opts;
  opts.time_budget_s = 20.0;
  opts.order_candidates = 8;
  return opts;
}

TEST(Optimizer, SearchCoversAllSubsets) {
  const SearchOutcome out = default_env().pipeline->optimize(quick_options());
  EXPECT_TRUE(out.exhausted);
  EXPECT_EQ(out.configurations_evaluated, (1u << 15) - 1);
  ASSERT_EQ(out.best_per_size.size(), 16u);
  EXPECT_FALSE(out.best.config.announce_order.empty());
}

TEST(Optimizer, BestPerSizeHasRequestedSizes) {
  const SearchOutcome out = default_env().pipeline->optimize(quick_options());
  for (std::size_t k = 1; k <= 15; ++k) {
    EXPECT_EQ(out.best_per_size[k].config.announce_order.size(), k);
  }
}

TEST(Optimizer, BestBeatsGreedyBaselineOnPredictedRtt) {
  auto& pipeline = *default_env().pipeline;
  const SearchOutcome out = pipeline.optimize(quick_options());
  const Optimizer optimizer(pipeline.predictor(), quick_options());
  for (const std::size_t k : {4u, 8u, 12u}) {
    const auto greedy =
        Optimizer::greedy_unicast(pipeline.predictor().rtts(), k);
    const EvaluatedConfig greedy_eval = optimizer.evaluate(greedy);
    EXPECT_LE(out.best_per_size[k].predicted_mean_rtt,
              greedy_eval.predicted_mean_rtt + 1e-9)
        << "k=" << k;
  }
}

TEST(Optimizer, GlobalBestIsBestOfPerSize) {
  const SearchOutcome out = default_env().pipeline->optimize(quick_options());
  double best = std::numeric_limits<double>::infinity();
  for (const auto& slot : out.best_per_size) {
    if (!slot.config.announce_order.empty()) {
      best = std::min(best, slot.predicted_mean_rtt);
    }
  }
  EXPECT_DOUBLE_EQ(out.best.predicted_mean_rtt, best);
}

TEST(Optimizer, SizeBoundsRespected) {
  OptimizerOptions opts = quick_options();
  opts.min_sites = 3;
  opts.max_sites = 5;
  const SearchOutcome out = default_env().pipeline->optimize(opts);
  for (std::size_t k = 0; k < out.best_per_size.size(); ++k) {
    if (k < 3 || k > 5) {
      EXPECT_TRUE(out.best_per_size[k].config.announce_order.empty());
    } else {
      EXPECT_EQ(out.best_per_size[k].config.announce_order.size(), k);
    }
  }
}

TEST(Optimizer, SampledSearchRescoresOnFullTargets) {
  OptimizerOptions opts = quick_options();
  opts.target_sample = 150;
  const SearchOutcome sampled = default_env().pipeline->optimize(opts);
  // Re-scoring must make the reported numbers full-population numbers:
  // evaluating the winning config directly gives the same value.
  const Optimizer optimizer(default_env().pipeline->predictor(), opts);
  const EvaluatedConfig check = optimizer.evaluate(sampled.best.config);
  EXPECT_NEAR(check.predicted_mean_rtt, sampled.best.predicted_mean_rtt, 1e-9);
}

TEST(Optimizer, EvaluateMatchesPredictorOnOptimizerOrder) {
  // evaluate() uses the optimizer-chosen announcement order for the
  // provider subset; on the predictable population, predicting the *same
  // returned config* must agree with the search's bookkeeping closely.
  auto& pipeline = *default_env().pipeline;
  const SearchOutcome out = pipeline.optimize(quick_options());
  const auto& cfg = out.best_per_size[6].config;
  const Prediction direct = pipeline.predict(cfg);
  EXPECT_NEAR(direct.mean_rtt(), out.best_per_size[6].predictable_mean_rtt,
              0.05 * direct.mean_rtt() + 0.5);
  // And the imputed (population-wide) estimate sits at or above the
  // predictable-only mean only when the excluded clients are worse off —
  // either way both must be finite and ordered sanely.
  EXPECT_GT(out.best_per_size[6].predicted_mean_rtt, 0.0);
  EXPECT_LT(out.best_per_size[6].predicted_mean_rtt, 1e6);
}

TEST(Optimizer, TimeBudgetIsCheckedBeforeTheSizeFilter) {
  // Masks that are multiples of 4,096 have popcount <= 3: a budget check
  // keyed on the mask value and placed after the min_sites = 4 filter
  // would never run, and the search would always finish.
  OptimizerOptions opts = quick_options();
  opts.min_sites = 4;
  opts.time_budget_s = 0;
  const SearchOutcome out = default_env().pipeline->optimize(opts);
  EXPECT_FALSE(out.exhausted);
  EXPECT_LT(out.configurations_evaluated, (1u << 15) - 1);
}

TEST(Optimizer, GreedyUnicastPicksLowestMeanSites) {
  const RttMatrix& rtts = default_env().pipeline->predictor().rtts();
  const auto cfg = Optimizer::greedy_unicast(rtts, 4);
  ASSERT_EQ(cfg.announce_order.size(), 4u);
  const auto ranked = rtts.sites_by_mean();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cfg.announce_order[i], ranked[i]);
  }
}

TEST(Optimizer, RandomConfigShape) {
  Rng rng{3};
  const auto cfg = Optimizer::random_config(
      default_env().world->deployment(), 2, 2, rng);
  EXPECT_EQ(cfg.announce_order.size(), 4u);
  // Exactly two providers, two sites each.
  std::map<std::size_t, int> per_provider;
  for (const SiteId s : cfg.announce_order) {
    ++per_provider[default_env()
                       .world->deployment()
                       .site(s)
                       .provider.value()];
  }
  EXPECT_EQ(per_provider.size(), 2u);
  for (const auto& [p, n] : per_provider) EXPECT_EQ(n, 2);
}

TEST(Optimizer, MoreSitesWellChosenNeverHurtPrediction) {
  // best-per-size predicted RTT should be non-increasing in k: enabling a
  // site can always be avoided, so the optimum over k+1-site subsets is at
  // most ... NOT guaranteed in anycast (adding a site can hurt!), but the
  // *minimum over subsets of size <= k* is monotone.  Verify on the
  // cumulative minimum.
  const SearchOutcome out = default_env().pipeline->optimize(quick_options());
  double cummin = std::numeric_limits<double>::infinity();
  std::size_t argmin = 0;
  for (std::size_t k = 1; k <= 15; ++k) {
    if (out.best_per_size[k].predicted_mean_rtt < cummin) {
      cummin = out.best_per_size[k].predicted_mean_rtt;
      argmin = k;
    }
  }
  EXPECT_EQ(out.best.config.announce_order.size(), argmin);
  // And the paper's headline phenomenon: enabling all 15 sites is NOT the
  // best configuration.
  EXPECT_LT(out.best.predicted_mean_rtt,
            out.best_per_size[15].predicted_mean_rtt + 1e-9);
}

}  // namespace
}  // namespace anyopt::core
