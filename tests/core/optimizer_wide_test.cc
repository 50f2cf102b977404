// Provider-subset tables on deployments with many providers.  The order
// search keys each target by its pairwise-preference pattern over the
// subset's providers: C(n,2) two-bit fields, which outgrow one 64-bit word
// from n = 9 on.  Every table is compared against a brute-force
// per-target tournament kept here, on synthetic preference tables that mix
// strict, order-dependent, unknown and inconsistent pairs.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "anycast/deployment.h"
#include "core/optimizer.h"
#include "topo/builder.h"

namespace anyopt::core {
namespace {

const std::vector<std::string> kMetros = {
    "Atlanta", "Amsterdam", "Los Angeles", "Singapore", "London",
    "Tokyo",   "Osaka",     "Miami",       "Newark",    "Stockholm",
    "Toronto", "Sao Paulo", "Chicago"};

/// A deployment of `providers` tier-1 providers with one site each, plus a
/// second site for the first `doubled` providers, and synthetic discovery
/// tables and RTTs over `targets` targets.
struct WideWorld {
  topo::Internet net;
  anycast::Deployment deployment;
  std::unique_ptr<Predictor> predictor;

  WideWorld(std::size_t providers, std::size_t doubled, std::size_t targets,
            std::uint64_t seed) {
    topo::InternetParams params;
    params.tier1_names.clear();
    params.required_tier1_pops.clear();
    for (std::size_t p = 0; p < providers; ++p) {
      params.tier1_names.push_back("T" + std::to_string(p));
      params.required_tier1_pops.push_back(
          {kMetros[p % kMetros.size()], kMetros[(p + 5) % kMetros.size()]});
    }
    params.regional_transit_count = 8;
    params.access_transit_count = 8;
    params.stub_count = 40;
    params.extra_pops_per_tier1_min = 0;
    params.extra_pops_per_tier1_max = 1;
    params.seed = seed;
    net = topo::build_internet(params);

    std::vector<anycast::SiteSpec> specs;
    for (std::size_t p = 0; p < providers; ++p) {
      specs.push_back({kMetros[p % kMetros.size()], params.tier1_names[p], 0});
    }
    for (std::size_t p = 0; p < doubled; ++p) {
      specs.push_back(
          {kMetros[(p + 5) % kMetros.size()], params.tier1_names[p], 0});
    }
    deployment = anycast::Deployment::realize(net, specs, Rng{seed});

    Rng rng{seed ^ 0xD15C};
    DiscoveryResult discovery;
    discovery.provider_prefs = synthetic_prefs(providers, targets, rng);
    for (std::size_t p = 0; p < providers; ++p) {
      const auto sites = deployment.sites_of_provider(
          ProviderId{static_cast<ProviderId::underlying_type>(p)});
      discovery.provider_sites.push_back(sites);
      discovery.site_prefs.push_back(
          synthetic_prefs(sites.size(), targets, rng));
    }
    RttMatrix rtts(deployment.site_count(), targets);
    for (std::size_t s = 0; s < deployment.site_count(); ++s) {
      for (std::size_t t = 0; t < targets; ++t) {
        rtts.set(SiteId{static_cast<SiteId::underlying_type>(s)},
                 TargetId{static_cast<TargetId::underlying_type>(t)},
                 rng.chance(0.03) ? -1.0 : rng.uniform(5.0, 300.0));
      }
    }
    predictor = std::make_unique<Predictor>(deployment, std::move(discovery),
                                            std::move(rtts));
  }

  /// Each target prefers items along a latent ranking; a pair is strict
  /// (consistent with it) 75% of the time, order-dependent 20%, and
  /// unknown or inconsistent otherwise.  A third of the targets copy one
  /// of a few archetype targets, so patterns repeat across targets.
  static PairwiseTable synthetic_prefs(std::size_t items, std::size_t targets,
                                       Rng& rng) {
    PairwiseTable table;
    table.init(items, targets);
    for (std::size_t t = 0; t < targets; ++t) {
      if (t >= 8 && rng.chance(1.0 / 3)) {
        const std::size_t archetype = rng.below(8);
        for (auto& row : table.outcome) row[t] = row[archetype];
        continue;
      }
      std::vector<std::size_t> rank(items);
      for (std::size_t i = 0; i < items; ++i) rank[i] = i;
      rng.shuffle(rank);
      for (std::size_t i = 0; i < items; ++i) {
        for (std::size_t j = i + 1; j < items; ++j) {
          const double u = rng.uniform();
          PrefKind kind = rank[i] < rank[j] ? PrefKind::kStrictFirst
                                            : PrefKind::kStrictSecond;
          if (u > 0.75) kind = PrefKind::kOrderDependent;
          if (u > 0.95) kind = PrefKind::kInconsistent;
          if (u > 0.98) kind = PrefKind::kUnknown;
          table.set(i, j, t, kind);
        }
      }
    }
    return table;
  }
};

/// The reference: candidate orders generated as the optimizer documents,
/// every target's tournament played separately.
struct BruteTable {
  std::vector<std::size_t> arrival_rank;
  std::size_t ordered = 0;
  std::vector<std::uint8_t> winner;
};

BruteTable brute_force(const PairwiseTable& prefs, std::size_t providers_total,
                       std::size_t mask, const OptimizerOptions& options) {
  std::vector<std::size_t> members;
  for (std::size_t p = 0; mask >> p; ++p) {
    if (mask >> p & 1) members.push_back(p);
  }
  const std::size_t n = members.size();
  std::vector<std::vector<std::size_t>> candidates;
  std::vector<std::size_t> perm = members;
  candidates.push_back(perm);
  std::reverse(perm.begin(), perm.end());
  if (n > 1) candidates.push_back(perm);
  for (std::size_t r = 1; r < n; ++r) {
    perm = members;
    std::rotate(perm.begin(), perm.begin() + r, perm.end());
    candidates.push_back(perm);
  }
  Rng rng{options.seed ^ (0x9e37u * mask)};
  while (candidates.size() < options.order_candidates && n > 2) {
    perm = members;
    rng.shuffle(perm);
    candidates.push_back(perm);
  }

  // Winner of target t under `arrival`, or 0xFF.
  const auto play = [&](const std::vector<std::size_t>& arrival,
                        std::size_t t) -> std::uint8_t {
    std::vector<std::size_t> wins(n, 0);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        switch (prefs.get(members[a], members[b], t)) {
          case PrefKind::kStrictFirst: ++wins[a]; break;
          case PrefKind::kStrictSecond: ++wins[b]; break;
          case PrefKind::kOrderDependent:
            ++wins[arrival[members[a]] < arrival[members[b]] ? a : b];
            break;
          default: return 0xFF;
        }
      }
    }
    std::vector<std::size_t> sorted = wins;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < n; ++i) {
      if (sorted[i] != i) return 0xFF;
    }
    const auto top = std::max_element(wins.begin(), wins.end()) - wins.begin();
    return static_cast<std::uint8_t>(members[static_cast<std::size_t>(top)]);
  };

  BruteTable best;
  bool first = true;
  std::vector<std::size_t> arrival(providers_total, 0);
  for (const auto& candidate : candidates) {
    for (std::size_t i = 0; i < n; ++i) arrival[candidate[i]] = i;
    std::size_t count = 0;
    for (std::size_t t = 0; t < prefs.target_count; ++t) {
      if (play(arrival, t) != 0xFF) ++count;
    }
    if (first || count > best.ordered) {
      first = false;
      best.ordered = count;
      best.arrival_rank = arrival;
    }
  }
  for (std::size_t t = 0; t < prefs.target_count; ++t) {
    best.winner.push_back(play(best.arrival_rank, t));
  }
  return best;
}

void expect_matches_brute_force(const WideWorld& world,
                                const OptimizerOptions& options,
                                const std::vector<std::size_t>& masks) {
  const Optimizer optimizer(*world.predictor, options);
  const PairwiseTable& prefs = world.predictor->discovery().provider_prefs;
  const std::size_t providers = world.deployment.provider_count();
  const auto targets = static_cast<double>(prefs.target_count);
  std::size_t won = 0;
  std::size_t unordered = 0;
  for (const std::size_t mask : masks) {
    const Optimizer::SubsetTable table = optimizer.subset_table(mask);
    const BruteTable brute = brute_force(prefs, providers, mask, options);
    SCOPED_TRACE("provider mask " + std::to_string(mask));
    for (const std::size_t p : table.providers) {
      EXPECT_EQ(table.arrival_rank[p], brute.arrival_rank[p]);
    }
    EXPECT_EQ(table.fraction_ordered,
              static_cast<double>(brute.ordered) / targets);
    ASSERT_EQ(table.winner, brute.winner);
    EXPECT_LE(table.patterns, prefs.target_count);
    for (const std::uint8_t w : brute.winner) {
      ++(w == Optimizer::kNoWinner ? unordered : won);
    }
  }
  // Both outcomes occur, so the comparison is not vacuous.
  EXPECT_GT(won, 0u);
  EXPECT_GT(unordered, 0u);
}

TEST(OptimizerWide, EveryNineProviderSubsetMatchesBruteForce) {
  const WideWorld world(9, 3, 240, 91);
  std::vector<std::size_t> masks;
  for (std::size_t mask = 1; mask < (std::size_t{1} << 9); ++mask) {
    masks.push_back(mask);
  }
  OptimizerOptions options;
  options.order_candidates = 12;
  expect_matches_brute_force(world, options, masks);
}

TEST(OptimizerWide, WideSubsetsMatchBruteForce) {
  // 24 providers: the full subset's key spans 276 pairs = 9 words.
  const WideWorld world(24, 4, 200, 92);
  Rng rng{7};
  std::vector<std::size_t> masks = {(std::size_t{1} << 24) - 1};
  for (int i = 0; i < 60; ++i) masks.push_back(rng.below(1u << 24) | 1);
  OptimizerOptions options;
  options.order_candidates = 30;
  expect_matches_brute_force(world, options, masks);
}

TEST(OptimizerWide, SharedPatternsAreDeduplicated) {
  const WideWorld world(9, 0, 240, 93);
  const Optimizer optimizer(*world.predictor);
  // Two providers have at most four patterns (three usable kinds plus
  // unusable); the whole set repeats the archetype targets, so it has
  // fewer patterns than targets.
  EXPECT_LE(optimizer.subset_table(0b11).patterns, 4u);
  EXPECT_LT(optimizer.subset_table(0x1FF).patterns, 240u);
}

TEST(OptimizerWide, SearchAndEvaluateAgreeOnWideDeployments) {
  const WideWorld world(10, 2, 150, 94);
  OptimizerOptions options;
  options.min_sites = 10;
  options.time_budget_s = std::numeric_limits<double>::infinity();
  const Optimizer optimizer(*world.predictor, options);
  const SearchOutcome out = optimizer.search();
  ASSERT_TRUE(out.exhausted);
  for (std::size_t k = 10; k < out.best_per_size.size(); ++k) {
    const EvaluatedConfig& slot = out.best_per_size[k];
    ASSERT_EQ(slot.config.announce_order.size(), k);
    const EvaluatedConfig again = optimizer.evaluate(slot.config);
    EXPECT_EQ(again.predicted_mean_rtt, slot.predicted_mean_rtt);
    EXPECT_EQ(again.predictable_mean_rtt, slot.predictable_mean_rtt);
    EXPECT_EQ(again.fraction_ordered, slot.fraction_ordered);
  }
}

}  // namespace
}  // namespace anyopt::core
