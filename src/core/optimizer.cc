#include "core/optimizer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "netbase/telemetry.h"

namespace anyopt::core {
namespace {

using Clock = std::chrono::steady_clock;

/// Pads `site_order_` rows: a deployment has at most 31 sites (ids 0..30),
/// so no site mask has bit 31 set.
constexpr std::uint8_t kNoSite = 31;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Pre-resolved optimizer counters (one registry lookup per process).
struct OptimizerMetrics {
  telemetry::Counter* searches;
  telemetry::Counter* configs_evaluated;
  telemetry::Counter* subset_tables;
  telemetry::Counter* subset_patterns;

  static const OptimizerMetrics& get() {
    static const OptimizerMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return OptimizerMetrics{&reg.counter("optimizer.searches"),
                              &reg.counter("optimizer.configs_evaluated"),
                              &reg.counter("optimizer.subset_tables"),
                              &reg.counter("optimizer.subset_patterns")};
    }();
    return m;
  }
};

void count_tables(std::size_t tables, std::size_t patterns) {
  if (!telemetry::enabled()) return;
  const OptimizerMetrics& m = OptimizerMetrics::get();
  m.subset_tables->add(tables);
  m.subset_patterns->add(patterns);
}

/// Plays one provider tournament: `pattern` holds the C(n,2) pairwise
/// outcomes among n members in pair_index order, `arrival` each member's
/// arrival rank (deciding order-dependent pairs).  Returns the local index
/// of the member preferred over all others, or -1 when the outcomes are
/// not a strict total order (some pair unusable, or win counts repeat).
int judge(const PrefKind* pattern, std::size_t n,
          const std::size_t* arrival) {
  std::array<std::uint8_t, 32> wins{};
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      switch (*pattern++) {
        case PrefKind::kStrictFirst: ++wins[a]; break;
        case PrefKind::kStrictSecond: ++wins[b]; break;
        case PrefKind::kOrderDependent:
          ++wins[arrival[a] < arrival[b] ? a : b];
          break;
        default: return -1;
      }
    }
  }
  // A tournament is transitive iff its win counts are 0..n-1, each once.
  std::uint32_t seen = 0;
  int winner = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (seen >> wins[i] & 1) return -1;
    seen |= std::uint32_t{1} << wins[i];
    if (wins[i] == n - 1) winner = static_cast<int>(i);
  }
  return winner;
}

std::uint64_t hash_words(const std::uint64_t* words, std::size_t count) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < count; ++i) {
    h = (h ^ words[i]) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  return h;
}

}  // namespace

Optimizer::Optimizer(const Predictor& predictor, OptimizerOptions options)
    : predictor_(predictor), options_(options) {
  const auto& deployment = predictor_.deployment();
  const auto& discovery = predictor_.discovery();
  const std::size_t sites = deployment.site_count();
  const std::size_t providers = deployment.provider_count();
  const std::size_t targets = discovery.provider_prefs.target_count;
  if (sites > 31) {
    throw std::invalid_argument(
        "Optimizer enumerates site bitmasks; deployments beyond 31 sites "
        "should use the SPLPO heuristics");
  }

  provider_of_site_.resize(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    provider_of_site_[s] =
        deployment.site(SiteId{static_cast<SiteId::underlying_type>(s)})
            .provider.value();
  }
  for (std::size_t p = 0; p < providers; ++p) {
    site_stride_ = std::max(site_stride_, discovery.provider_sites[p].size());
  }

  // Per-target site-level preference rankings within each provider.
  site_order_.assign(targets * providers * site_stride_, kNoSite);
  for (std::size_t t = 0; t < targets; ++t) {
    for (std::size_t p = 0; p < providers; ++p) {
      const auto& provider_sites = discovery.provider_sites[p];
      const std::size_t cell = t * providers + p;
      std::uint8_t* ranking = site_order_.data() + cell * site_stride_;
      std::size_t len = 0;
      if (provider_sites.size() == 1) {
        ranking[len++] = static_cast<std::uint8_t>(provider_sites[0].value());
        continue;
      }
      if (predictor_.mode() == SitePrefMode::kRttRanking) {
        std::vector<std::pair<double, std::uint8_t>> by_rtt;
        for (const SiteId s : provider_sites) {
          const double r = predictor_.rtts().rtt(
              s, TargetId{static_cast<TargetId::underlying_type>(t)});
          if (r >= 0) {
            by_rtt.push_back({r, static_cast<std::uint8_t>(s.value())});
          }
        }
        std::sort(by_rtt.begin(), by_rtt.end());
        for (const auto& [r, s] : by_rtt) ranking[len++] = s;
        continue;
      }
      // Experimental mode: full total order over the provider's sites;
      // an all-padding row = inconsistent (target excluded if this
      // provider wins).
      std::vector<std::size_t> all_pos(provider_sites.size());
      for (std::size_t i = 0; i < all_pos.size(); ++i) all_pos[i] = i;
      const std::vector<std::size_t> zero_rank(provider_sites.size(), 0);
      const auto order = target_total_order(discovery.site_prefs[p], t,
                                            all_pos, zero_rank);
      if (order.has_value()) {
        for (const std::size_t local : *order) {
          ranking[len++] =
              static_cast<std::uint8_t>(provider_sites[local].value());
        }
      }
    }
  }
}

Optimizer::SubsetTable Optimizer::subset_table(
    std::size_t provider_mask) const {
  constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};
  const PairwiseTable& prefs = predictor_.discovery().provider_prefs;
  const std::size_t targets = prefs.target_count;
  SubsetTable table;
  std::vector<std::size_t>& providers = table.providers;
  for (std::size_t p = 0; provider_mask >> p; ++p) {
    if (provider_mask >> p & 1) providers.push_back(p);
  }
  const std::size_t n = providers.size();
  const std::size_t pairs = pair_count(n);

  // Key every target by its pairwise pattern over the members, two bits
  // per pair: the usable PrefKinds keep their values 1..3, while unknown
  // (0) and inconsistent (4) both become 0, which `judge` rejects.  The
  // key spans as many words as C(n,2) needs.
  const std::size_t words = std::max<std::size_t>(1, (pairs + 31) / 32);
  std::vector<std::uint64_t> key(targets * words, 0);
  for (std::size_t a = 0, k = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b, ++k) {
      const std::vector<PrefKind>& row =
          prefs.outcome[pair_index(providers[a], providers[b],
                                   prefs.item_count)];
      const std::size_t word = k / 32;
      const unsigned shift = 2 * static_cast<unsigned>(k % 32);
      for (std::size_t t = 0; t < targets; ++t) {
        key[t * words + word] |= (static_cast<std::uint64_t>(row[t]) & 3)
                                 << shift;
      }
    }
  }

  // Deduplicate the keys (open addressing); weight = targets sharing one.
  std::vector<std::uint32_t> pattern_of(targets);
  std::vector<std::size_t> owner;   // per pattern: its first target
  std::vector<std::size_t> weight;  // per pattern: targets sharing it
  std::size_t capacity = 16;
  while (capacity < 2 * targets) capacity <<= 1;
  std::vector<std::uint32_t> slots(capacity, kEmptySlot);
  for (std::size_t t = 0; t < targets; ++t) {
    const std::uint64_t* kt = key.data() + t * words;
    for (std::size_t h = hash_words(kt, words);; ++h) {
      std::uint32_t& slot = slots[h & (capacity - 1)];
      if (slot == kEmptySlot) {
        slot = static_cast<std::uint32_t>(owner.size());
        owner.push_back(t);
        weight.push_back(0);
      } else if (!std::equal(kt, kt + words,
                             key.data() + owner[slot] * words)) {
        continue;
      }
      pattern_of[t] = slot;
      ++weight[slot];
      break;
    }
  }
  const std::size_t patterns = owner.size();
  std::vector<PrefKind> pattern(patterns * pairs);
  for (std::size_t i = 0; i < patterns; ++i) {
    const std::uint64_t* ki = key.data() + owner[i] * words;
    for (std::size_t k = 0; k < pairs; ++k) {
      pattern[i * pairs + k] =
          static_cast<PrefKind>(ki[k / 32] >> (2 * (k % 32)) & 3);
    }
  }

  // Candidate announcement orders: identity, reverse, rotations, then
  // seeded random shuffles (§4.5 step 3 wants the order maximizing the
  // consistent fraction; sampling orders is the practical variant).
  std::vector<std::vector<std::size_t>> candidates;
  std::vector<std::size_t> perm = providers;
  candidates.push_back(perm);
  std::reverse(perm.begin(), perm.end());
  if (n > 1) candidates.push_back(perm);
  for (std::size_t r = 1; r < n; ++r) {
    perm = providers;
    std::rotate(perm.begin(), perm.begin() + r, perm.end());
    candidates.push_back(perm);
  }
  Rng rng{options_.seed ^ (0x9e37u * provider_mask)};
  while (candidates.size() < options_.order_candidates && n > 2) {
    perm = providers;
    rng.shuffle(perm);
    candidates.push_back(perm);
  }

  // Count, per candidate, the targets whose tournament is transitive: one
  // tournament per distinct pattern, weighted by its target count.  The
  // first candidate wins ties.
  std::vector<std::size_t> arrival(predictor_.deployment().provider_count(),
                                   0);
  std::vector<std::size_t> local(n);
  std::size_t best_count = 0;
  bool first = true;
  for (const auto& candidate : candidates) {
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      arrival[candidate[i]] = i;
    }
    for (std::size_t a = 0; a < n; ++a) local[a] = arrival[providers[a]];
    std::size_t count = 0;
    for (std::size_t i = 0; i < patterns; ++i) {
      if (judge(pattern.data() + i * pairs, n, local.data()) >= 0) {
        count += weight[i];
      }
    }
    if (first || count > best_count) {
      first = false;
      best_count = count;
      table.arrival_rank = arrival;
    }
  }
  table.fraction_ordered =
      targets ? static_cast<double>(best_count) / static_cast<double>(targets)
              : 0;

  // Map each pattern's winner under the chosen order back to its targets.
  for (std::size_t a = 0; a < n; ++a) {
    local[a] = table.arrival_rank[providers[a]];
  }
  std::vector<std::uint8_t> pattern_winner(patterns, kNoWinner);
  for (std::size_t i = 0; i < patterns; ++i) {
    const int w = judge(pattern.data() + i * pairs, n, local.data());
    if (w >= 0) {
      pattern_winner[i] =
          static_cast<std::uint8_t>(providers[static_cast<std::size_t>(w)]);
    }
  }
  table.winner.resize(targets);
  for (std::size_t t = 0; t < targets; ++t) {
    table.winner[t] = pattern_winner[pattern_of[t]];
  }
  table.patterns = patterns;
  return table;
}

std::vector<double> Optimizer::gather_rtts(
    const std::vector<std::uint32_t>& sample, std::uint32_t site_mask) const {
  const RttMatrix& rtts = predictor_.rtts();
  const std::size_t sites = provider_of_site_.size();
  std::vector<double> rows(sample.size() * sites);
  for (std::uint32_t m = site_mask; m != 0; m &= m - 1) {
    const auto s = static_cast<SiteId::underlying_type>(__builtin_ctz(m));
    for (std::size_t i = 0; i < sample.size(); ++i) {
      rows[i * sites + s] = rtts.rtt(SiteId{s}, TargetId{sample[i]});
    }
  }
  return rows;
}

Optimizer::MaskScore Optimizer::score_mask(
    std::uint32_t site_mask, const SubsetTable& table,
    const std::vector<std::uint32_t>& sample,
    const std::vector<double>& rows) const {
  const std::size_t sites = provider_of_site_.size();
  const std::size_t providers = predictor_.deployment().provider_count();
  double predictable_sum = 0;
  double predictable_weight = 0;
  double imputed_sum = 0;
  double imputed_weight = 0;
  std::size_t predictable = 0;
  const bool weighted = !options_.target_weight.empty();
  const bool capacitated = !options_.site_capacity.empty();
  std::array<double, 32> load{};

  for (std::size_t i = 0; i < sample.size(); ++i) {
    const std::uint32_t t = sample[i];
    const double* row = rows.data() + i * sites;
    const double w = weighted ? options_.target_weight[t] : 1.0;
    int site = -1;
    if (const std::uint8_t p = table.winner[t]; p != kNoWinner) {
      // First enabled site in this target's site-level preference order:
      // the whole fixed-length row is scanned from the back, a loop with
      // no data-dependent exit (the padding is never enabled).
      const std::uint8_t* ranking =
          site_order_.data() + (t * providers + p) * site_stride_;
      for (std::size_t j = site_stride_; j-- > 0;) {
        if (site_mask >> ranking[j] & 1) site = ranking[j];
      }
    }
    if (site >= 0) {
      ++predictable;
      if (capacitated) load[static_cast<std::size_t>(site)] += w;
      const double r = row[site];
      if (r >= 0) {
        predictable_sum += w * r;
        predictable_weight += w;
        imputed_sum += w * r;
        imputed_weight += w;
      }
    } else {
      // Targets without a usable total order are imputed with their mean
      // unicast RTT over the enabled sites (they still receive traffic
      // when the configuration is deployed).
      double sum = 0;
      std::size_t n = 0;
      for (std::uint32_t m = site_mask; m != 0; m &= m - 1) {
        const double r = row[__builtin_ctz(m)];
        if (r >= 0) {
          sum += r;
          ++n;
        }
      }
      if (n > 0) {
        imputed_sum += w * (sum / static_cast<double>(n));
        imputed_weight += w;
      }
    }
  }
  MaskScore score;
  score.fraction_ordered = sample.empty()
                               ? 0
                               : static_cast<double>(predictable) /
                                     static_cast<double>(sample.size());
  if (capacitated) {
    // Appendix-B Eq. 7: discard configurations whose predicted catchment
    // overloads any enabled site.  Strictly greater, never a ratio: load
    // exactly at capacity is feasible, and capacity 0 with summed weight 0
    // is feasible too — the agility layer's SLO assessor mirrors these
    // exact semantics (src/agility/workload.h).
    for (std::size_t s = 0; s < options_.site_capacity.size() && s < 32;
         ++s) {
      if ((site_mask >> s & 1) && load[s] > options_.site_capacity[s]) {
        return score;  // both means stay +inf => never selected
      }
    }
  }
  if (predictable_weight > 0) {
    score.predictable_mean = predictable_sum / predictable_weight;
  }
  if (imputed_weight > 0) {
    score.imputed_mean = imputed_sum / imputed_weight;
  }
  return score;
}

SearchOutcome Optimizer::search() const {
  const auto t0 = Clock::now();
  const std::size_t sites = provider_of_site_.size();
  const std::size_t targets =
      predictor_.discovery().provider_prefs.target_count;

  std::vector<std::uint32_t> sample;
  if (options_.target_sample > 0 && options_.target_sample < targets) {
    Rng rng{options_.seed ^ 0xA53EDULL};
    sample.resize(targets);
    for (std::uint32_t t = 0; t < targets; ++t) sample[t] = t;
    rng.shuffle(sample);
    sample.resize(options_.target_sample);
  } else {
    sample.resize(targets);
    for (std::uint32_t t = 0; t < targets; ++t) sample[t] = t;
  }
  const std::uint32_t limit = std::uint32_t{1} << sites;
  const std::vector<double> rows = gather_rtts(sample, limit - 1);

  SearchOutcome outcome;
  outcome.best_per_size.resize(sites + 1);
  outcome.exhausted = true;

  std::unordered_map<std::size_t, SubsetTable> tables;
  std::size_t patterns = 0;
  const auto table_of = [&](std::size_t provider_mask) -> const SubsetTable& {
    auto it = tables.find(provider_mask);
    if (it == tables.end()) {
      it = tables.emplace(provider_mask, subset_table(provider_mask)).first;
      patterns += it->second.patterns;
    }
    return it->second;
  };

  std::size_t visited = 0;
  for (std::uint32_t mask = 1; mask < limit; ++mask) {
    if ((visited++ & 0xFFF) == 0 &&
        seconds_since(t0) > options_.time_budget_s) {
      outcome.exhausted = false;
      break;
    }
    const auto size = static_cast<std::size_t>(__builtin_popcount(mask));
    if (size < options_.min_sites || size > options_.max_sites) continue;
    std::size_t provider_mask = 0;
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      provider_mask |= std::size_t{1}
                       << provider_of_site_[__builtin_ctz(m)];
    }
    const SubsetTable& table = table_of(provider_mask);
    const MaskScore score = score_mask(mask, table, sample, rows);
    ++outcome.configurations_evaluated;

    auto& slot = outcome.best_per_size[size];
    if (score.imputed_mean < slot.predicted_mean_rtt) {
      slot.predicted_mean_rtt = score.imputed_mean;
      slot.predictable_mean_rtt = score.predictable_mean;
      slot.fraction_ordered = score.fraction_ordered;
      // Materialize the announcement order: providers in chosen arrival
      // order, each provider's enabled sites in site-id order.
      std::vector<std::pair<std::size_t, std::size_t>> by_arrival;
      for (const std::size_t p : table.providers) {
        by_arrival.push_back({table.arrival_rank[p], p});
      }
      std::sort(by_arrival.begin(), by_arrival.end());
      anycast::AnycastConfig cfg;
      for (const auto& [rank, p] : by_arrival) {
        for (std::size_t s = 0; s < sites; ++s) {
          if ((mask >> s & 1) && provider_of_site_[s] == p) {
            cfg.announce_order.push_back(
                SiteId{static_cast<SiteId::underlying_type>(s)});
          }
        }
      }
      slot.config = std::move(cfg);
    }
  }

  // Re-score the per-size winners on the full target set (if sampled) and
  // pick the global best.
  for (auto& slot : outcome.best_per_size) {
    if (slot.config.announce_order.empty()) continue;
    if (sample.size() != targets) {
      const EvaluatedConfig rescored =
          evaluate_with(slot.config, table_of(provider_mask_of(slot.config)));
      slot.predicted_mean_rtt = rescored.predicted_mean_rtt;
      slot.predictable_mean_rtt = rescored.predictable_mean_rtt;
      slot.fraction_ordered = rescored.fraction_ordered;
    }
    if (slot.predicted_mean_rtt < outcome.best.predicted_mean_rtt) {
      outcome.best = slot;
    }
  }
  if (telemetry::enabled()) {
    const OptimizerMetrics& m = OptimizerMetrics::get();
    m.searches->add(1);
    m.configs_evaluated->add(outcome.configurations_evaluated);
  }
  count_tables(tables.size(), patterns);
  return outcome;
}

std::size_t Optimizer::provider_mask_of(
    const anycast::AnycastConfig& config) const {
  std::size_t provider_mask = 0;
  for (const SiteId s : config.announce_order) {
    provider_mask |= std::size_t{1} << provider_of_site_[s.value()];
  }
  return provider_mask;
}

EvaluatedConfig Optimizer::evaluate_with(const anycast::AnycastConfig& config,
                                         const SubsetTable& table) const {
  const std::size_t targets =
      predictor_.discovery().provider_prefs.target_count;
  std::uint32_t site_mask = 0;
  for (const SiteId s : config.announce_order) {
    site_mask |= std::uint32_t{1} << s.value();
  }
  std::vector<std::uint32_t> full(targets);
  for (std::uint32_t t = 0; t < targets; ++t) full[t] = t;
  const MaskScore score =
      score_mask(site_mask, table, full, gather_rtts(full, site_mask));
  EvaluatedConfig out;
  out.config = config;
  out.predicted_mean_rtt = score.imputed_mean;
  out.predictable_mean_rtt = score.predictable_mean;
  out.fraction_ordered = score.fraction_ordered;
  return out;
}

EvaluatedConfig Optimizer::evaluate(
    const anycast::AnycastConfig& config) const {
  const SubsetTable table = subset_table(provider_mask_of(config));
  count_tables(1, table.patterns);
  return evaluate_with(config, table);
}

anycast::AnycastConfig Optimizer::greedy_unicast(const RttMatrix& rtts,
                                                 std::size_t k) {
  anycast::AnycastConfig cfg;
  const auto ranked = rtts.sites_by_mean();
  for (std::size_t i = 0; i < std::min(k, ranked.size()); ++i) {
    cfg.announce_order.push_back(ranked[i]);
  }
  return cfg;
}

anycast::AnycastConfig Optimizer::random_config(
    const anycast::Deployment& deployment, std::size_t providers,
    std::size_t sites_per_provider, Rng& rng) {
  std::vector<std::size_t> eligible;
  for (std::size_t p = 0; p < deployment.provider_count(); ++p) {
    if (deployment
            .sites_of_provider(
                ProviderId{static_cast<ProviderId::underlying_type>(p)})
            .size() >= sites_per_provider) {
      eligible.push_back(p);
    }
  }
  rng.shuffle(eligible);
  eligible.resize(std::min(providers, eligible.size()));
  anycast::AnycastConfig cfg;
  for (const std::size_t p : eligible) {
    auto sites = deployment.sites_of_provider(
        ProviderId{static_cast<ProviderId::underlying_type>(p)});
    rng.shuffle(sites);
    for (std::size_t i = 0; i < sites_per_provider && i < sites.size(); ++i) {
      cfg.announce_order.push_back(sites[i]);
    }
  }
  rng.shuffle(cfg.announce_order);
  return cfg;
}

}  // namespace anyopt::core
