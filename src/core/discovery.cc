#include "core/discovery.h"

#include <array>

#include "anycast/config.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"

namespace anyopt::core {

namespace {

/// Pre-resolved discovery metrics (one registry lookup per process).  The
/// per-kind tallies are (pair, target) classifications — the campaign-level
/// view of §4.2's order-dependence.
struct DiscoveryMetrics {
  telemetry::Counter* pairs_classified;
  telemetry::Counter* prefs_strict;
  telemetry::Counter* prefs_order_dependent;
  telemetry::Counter* prefs_inconsistent;
  telemetry::Counter* prefs_unknown;
  telemetry::Counter* order_flips;
  telemetry::Counter* requeued;

  static const DiscoveryMetrics& get() {
    static const DiscoveryMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return DiscoveryMetrics{
          &reg.counter("discovery.pairs_classified"),
          &reg.counter("discovery.prefs.strict"),
          &reg.counter("discovery.prefs.order_dependent"),
          &reg.counter("discovery.prefs.inconsistent"),
          &reg.counter("discovery.prefs.unknown"),
          &reg.counter("discovery.order_flips"),
          &reg.counter("discovery.requeued")};
    }();
    return m;
  }
};

}  // namespace

Discovery::Discovery(const measure::Orchestrator& orchestrator,
                     DiscoveryOptions options)
    : orchestrator_(orchestrator),
      options_(std::move(options)),
      runner_(orchestrator_,
              measure::CampaignRunnerOptions{.threads = options_.threads,
                                             .store = options_.store}) {}

SiteId Discovery::representative(ProviderId provider) const {
  if (provider.value() < options_.representatives.size() &&
      options_.representatives[provider.value()].valid()) {
    return options_.representatives[provider.value()];
  }
  const auto sites =
      orchestrator_.world().deployment().sites_of_provider(provider);
  if (sites.empty()) return SiteId{};  // invalid: no site to announce from
  return sites.front();
}

std::uint64_t Discovery::experiment_nonce(SiteId first, SiteId second,
                                          std::uint64_t order_leg) const {
  std::uint64_t n = mix64(options_.nonce_base, first.value());
  n = mix64(n, second.value());
  return mix64(n, order_leg);
}

measure::ExperimentSpec Discovery::make_spec(SiteId first, SiteId second,
                                             double spacing_s,
                                             std::uint64_t order_leg) const {
  measure::ExperimentSpec spec;
  spec.config.announce_order = {first, second};
  spec.config.spacing_s = spacing_s;
  spec.nonce = experiment_nonce(first, second, order_leg);
  return spec;
}

Discovery::PairOutcomes Discovery::census_winners(
    const measure::Census& census, SiteId first, SiteId second) {
  PairOutcomes out;
  out.winner.resize(census.site_of_target.size(), 2);
  for (std::size_t t = 0; t < census.site_of_target.size(); ++t) {
    if (census.site_of_target[t] == first) {
      out.winner[t] = 0;
    } else if (census.site_of_target[t] == second) {
      out.winner[t] = 1;
    }
  }
  return out;
}

PrefKind Discovery::classify(std::uint8_t winner_when_ab,
                             std::uint8_t winner_when_ba) {
  // winner encoding: 0 = item a, 1 = item b, 2 = unreachable.
  if (winner_when_ab == 2 || winner_when_ba == 2) return PrefKind::kUnknown;
  if (winner_when_ab == winner_when_ba) {
    return winner_when_ab == 0 ? PrefKind::kStrictFirst
                               : PrefKind::kStrictSecond;
  }
  // Preference followed the announcement order: first announced won both
  // times => arrival-order tie (the "equivalent preference" of §4.2).
  if (winner_when_ab == 0 && winner_when_ba == 1) {
    return PrefKind::kOrderDependent;
  }
  // Newest-wins or multipath flap: no usable preference.
  return PrefKind::kInconsistent;
}

std::uint64_t Discovery::incremental_nonce(SiteId first, SiteId second,
                                           std::uint64_t order_leg) const {
  // Tagged sibling of `experiment_nonce`: overlay legs draw different
  // jitter streams than the classic runs of the same configs, so their
  // censuses — and store keys — must live in a disjoint nonce family.
  std::uint64_t n = mix64(options_.nonce_base, 0x1C2E57ULL);
  n = mix64(n, first.value());
  n = mix64(n, second.value());
  return mix64(n, order_leg);
}

std::uint64_t Discovery::base_nonce(SiteId first) const {
  return mix64(mix64(mix64(options_.nonce_base, 0x1C2E57ULL), 0x0BA5EULL),
               first.value());
}

std::shared_ptr<const bgp::BaseState> Discovery::base_for(SiteId first) const {
  anycast::AnycastConfig cfg;
  cfg.announce_order = {first};
  cfg.spacing_s = options_.spacing_s;
  const std::uint64_t nonce = base_nonce(first);
  if (options_.incremental_private_bases) {
    // Testing knob: fresh from-scratch convergence, same nonce.  Must be
    // interchangeable with the cached base bit for bit.
    return std::make_shared<bgp::BaseState>(
        orchestrator_.converge_base(cfg, nonce));
  }
  const std::lock_guard<std::mutex> lock(base_mutex_);
  std::shared_ptr<const bgp::BaseState>& slot = base_cache_[nonce];
  if (slot == nullptr) {
    slot = std::make_shared<bgp::BaseState>(
        orchestrator_.converge_base(cfg, nonce));
  }
  return slot;
}

std::vector<measure::Census> Discovery::measure_jobs(
    std::span<const PairJob> jobs, std::size_t* experiments,
    std::size_t ordinal_base) const {
  // Measures every unit — whatever simulates together: one spec on the
  // classic path, one overlay pair on the incremental path — into the
  // census layout `slot_of(unit, leg)` names, then retries.  Resilience: a
  // discovery experiment always announces via transit, so an empty census
  // can only mean the round was lost (fault injection or a real outage).
  // A unit with ANY empty leg re-runs whole with a bumped fault-layer
  // attempt, but only its empty legs are overwritten: the nonce never
  // changes, so a kept leg equals what the retry would remeasure, a retry
  // that survives reproduces the fault-free census bit for bit, and the
  // tables converge on the fault-free preference order.
  const auto measure_units = [&](const auto& specs, std::size_t legs,
                                 const auto& run, const auto& slot_of) {
    std::vector<measure::Census> censuses(specs.size() * legs);
    std::vector<measure::Census> raw = run(specs);
    for (std::size_t k = 0; k < specs.size(); ++k) {
      for (std::size_t leg = 0; leg < legs; ++leg) {
        censuses[slot_of(k, leg)] = std::move(raw[k * legs + leg]);
      }
    }
    if (experiments != nullptr) *experiments += specs.size() * legs;
    for (std::size_t round = 1; round <= options_.retry_rounds; ++round) {
      std::vector<std::size_t> missing;
      for (std::size_t k = 0; k < specs.size(); ++k) {
        for (std::size_t leg = 0; leg < legs; ++leg) {
          if (censuses[slot_of(k, leg)].reachable_count() == 0) {
            missing.push_back(k);
            break;
          }
        }
      }
      if (missing.empty()) break;
      std::remove_cvref_t<decltype(specs)> retry_specs;
      retry_specs.reserve(missing.size());
      for (const std::size_t k : missing) {
        retry_specs.push_back(specs[k]);
        retry_specs.back().attempt = static_cast<std::uint32_t>(round);
      }
      std::vector<measure::Census> retried = run(retry_specs);
      for (std::size_t r = 0; r < missing.size(); ++r) {
        for (std::size_t leg = 0; leg < legs; ++leg) {
          measure::Census& slot = censuses[slot_of(missing[r], leg)];
          if (slot.reachable_count() == 0) {
            slot = std::move(retried[r * legs + leg]);
          }
        }
      }
      if (experiments != nullptr) *experiments += retry_specs.size() * legs;
      if (telemetry::enabled()) {
        DiscoveryMetrics::get().requeued->add(retry_specs.size() * legs);
      }
    }
    return censuses;
  };

  if (!incremental_active()) {
    std::vector<measure::ExperimentSpec> specs;
    specs.reserve(jobs.size() * (options_.account_order ? 2 : 1));
    for (const PairJob& job : jobs) {
      if (options_.account_order) {
        specs.push_back(
            make_spec(job.first, job.second, options_.spacing_s, 0));
        specs.push_back(
            make_spec(job.second, job.first, options_.spacing_s, 1));
      } else {
        // Naive mode: one simultaneous announcement; whatever wins is
        // taken as the (supposed) strict preference.
        specs.push_back(make_spec(job.first, job.second, 0.0, 0));
      }
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].ordinal = ordinal_base + i;
    }
    return measure_units(
        specs, 1,
        [&](const std::vector<measure::ExperimentSpec>& batch) {
          return runner_.run(batch);
        },
        [](std::size_t k, std::size_t) { return k; });
  }

  const auto& deployment = orchestrator_.world().deployment();
  // A pair can anchor its shared base on either side: base = "anchor
  // announced alone", leg "anchor first" = announce-delta fork, leg
  // "anchor second" = re-age resume.  The anchor's flood is paid once in
  // the (shared) base while the trailing side's announce-delta flood is
  // paid per leg, so anchor each pair on the side whose transit provider
  // is better connected — the weaker provider's smaller flood is the one
  // that repeats.  Degree is a pure topology read, so the choice is
  // deterministic and identical at every thread count.
  const auto& graph = orchestrator_.world().internet().graph;
  const auto provider_degree = [&](SiteId site) {
    const bgp::AttachmentIndex a = deployment.transit_attachment(site);
    return graph.node(deployment.attachments()[a].neighbor).neighbors.size();
  };
  std::vector<std::uint8_t> swapped(jobs.size(), 0);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    swapped[k] =
        provider_degree(jobs[k].second) > provider_degree(jobs[k].first)
            ? std::uint8_t{1}
            : std::uint8_t{0};
  }
  // Converge (or fetch) all bases up front on the calling thread, so
  // worker threads only ever fork read-only overlays — event counts and
  // censuses stay independent of thread count and completion order.
  std::vector<std::shared_ptr<const bgp::BaseState>> bases;
  bases.reserve(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    bases.push_back(
        base_for(swapped[k] != 0 ? jobs[k].second : jobs[k].first));
  }

  std::vector<measure::OverlayPairSpec> specs(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const PairJob& job = jobs[k];
    // The overlay anchor leads the pair's leg 0; a swapped pair runs
    // (second, first) as its leg 0 and maps the censuses back below.
    // Nonces and ordinals follow the CONFIG (the experiment identity),
    // not the mechanism, so a swapped pair's censuses land under the
    // same store keys and fault coordinates as an unswapped one.
    const SiteId lead = swapped[k] != 0 ? job.second : job.first;
    const SiteId trail = swapped[k] != 0 ? job.first : job.second;
    const std::size_t lead_leg = swapped[k] != 0 ? 1 : 0;
    measure::OverlayPairSpec& spec = specs[k];
    spec.base = bases[k].get();
    spec.config0.announce_order = {lead, trail};
    spec.config0.spacing_s = options_.spacing_s;
    spec.config1.announce_order = {trail, lead};
    spec.config1.spacing_s = options_.spacing_s;
    // Leg 0 over the base "lead alone": announce the trailing item one
    // spacing after the base's announcement, exactly where the classic
    // (lead, trail) schedule puts it.
    spec.delta = {bgp::Injection{options_.spacing_s,
                                 deployment.transit_attachment(trail), false}};
    // Leg 1 re-ages the lead item's session: its routes take fresh
    // arrival seqs, making the pair effectively (trail, lead).
    spec.reage = {deployment.transit_attachment(lead)};
    spec.nonce0 = incremental_nonce(job.first, job.second, lead_leg);
    spec.nonce1 = incremental_nonce(job.first, job.second, 1 - lead_leg);
    spec.ordinal0 = ordinal_base + 2 * k + lead_leg;
    spec.ordinal1 = ordinal_base + 2 * k + (1 - lead_leg);
  }
  // Census layout contract for callers: slot 2k = (first, second), slot
  // 2k+1 = (second, first) — a swapped pair's legs cross over.
  return measure_units(
      specs, 2,
      [&](const std::vector<measure::OverlayPairSpec>& batch) {
        return runner_.run_overlay_pairs(batch);
      },
      [&](std::size_t k, std::size_t leg) {
        return swapped[k] != 0 ? 2 * k + 1 - leg : 2 * k + leg;
      });
}

std::vector<std::vector<PrefKind>> Discovery::classify_jobs(
    std::span<const PairJob> jobs, std::size_t* experiments,
    std::size_t ordinal_base) const {
  return classify_from_censuses(jobs,
                                measure_jobs(jobs, experiments, ordinal_base));
}

std::vector<std::vector<PrefKind>> Discovery::classify_from_censuses(
    std::span<const PairJob> jobs,
    std::span<const measure::Census> censuses) const {
  const std::size_t legs = options_.account_order ? 2 : 1;
  std::vector<std::vector<PrefKind>> out(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const PairJob& job = jobs[k];
    const PairOutcomes ab =
        census_winners(censuses[k * legs], job.first, job.second);
    std::vector<PrefKind>& kinds = out[k];
    kinds.resize(ab.winner.size(), PrefKind::kUnknown);
    if (options_.account_order) {
      // The second leg's winners are relative to (second, first); flip to
      // the (first, second) orientation before classifying.
      const PairOutcomes ba =
          census_winners(censuses[k * legs + 1], job.second, job.first);
      for (std::size_t t = 0; t < kinds.size(); ++t) {
        const std::uint8_t ba_as_ab =
            ba.winner[t] == 2 ? std::uint8_t{2}
                              : static_cast<std::uint8_t>(1 - ba.winner[t]);
        kinds[t] = classify(ab.winner[t], ba_as_ab);
      }
    } else {
      for (std::size_t t = 0; t < kinds.size(); ++t) {
        kinds[t] = ab.winner[t] == 2  ? PrefKind::kUnknown
                   : ab.winner[t] == 0 ? PrefKind::kStrictFirst
                                       : PrefKind::kStrictSecond;
      }
    }
  }
  if (telemetry::enabled()) {
    // Tally (pair, target) classifications; runs only when telemetry is on
    // and observes the already-final `out`, so results are untouched.
    std::array<std::uint64_t, 5> tally{};
    for (const auto& kinds : out) {
      for (const PrefKind k : kinds) ++tally[static_cast<int>(k)];
    }
    const DiscoveryMetrics& m = DiscoveryMetrics::get();
    m.pairs_classified->add(jobs.size());
    m.prefs_strict->add(tally[static_cast<int>(PrefKind::kStrictFirst)] +
                        tally[static_cast<int>(PrefKind::kStrictSecond)]);
    m.prefs_order_dependent->add(
        tally[static_cast<int>(PrefKind::kOrderDependent)]);
    m.prefs_inconsistent->add(
        tally[static_cast<int>(PrefKind::kInconsistent)]);
    m.prefs_unknown->add(tally[static_cast<int>(PrefKind::kUnknown)]);
  }
  return out;
}

Discovery::ProviderJobs Discovery::provider_jobs() const {
  const std::size_t providers =
      orchestrator_.world().deployment().provider_count();
  ProviderJobs out;
  out.jobs.reserve(pair_count(providers));
  out.slots.reserve(pair_count(providers));
  for (std::size_t p = 0; p < providers; ++p) {
    for (std::size_t q = p + 1; q < providers; ++q) {
      const SiteId rep_p = representative(
          ProviderId{static_cast<ProviderId::underlying_type>(p)});
      const SiteId rep_q = representative(
          ProviderId{static_cast<ProviderId::underlying_type>(q)});
      // A provider without a representative (no attached sites) cannot be
      // announced; its pairs stay kUnknown.
      if (!rep_p.valid() || !rep_q.valid()) continue;
      out.jobs.push_back({rep_p, rep_q});
      out.slots.push_back({p, q});
    }
  }
  return out;
}

PairwiseTable Discovery::provider_level(std::size_t* experiments) const {
  return provider_level_views(experiments).ordered;
}

Discovery::ProviderLevelViews Discovery::provider_level_views(
    std::size_t* experiments) const {
  const std::size_t providers =
      orchestrator_.world().deployment().provider_count();
  const std::size_t targets = orchestrator_.world().targets().size();
  const ProviderJobs provider = provider_jobs();
  std::size_t runs = 0;
  const std::vector<measure::Census> censuses =
      measure_jobs(provider.jobs, &runs, options_.ordinal_base);
  const auto classified = classify_from_censuses(provider.jobs, censuses);

  ProviderLevelViews views;
  views.ordered.init(providers, targets);
  for (std::size_t k = 0; k < provider.jobs.size(); ++k) {
    const auto [p, q] = provider.slots[k];
    for (std::size_t t = 0; t < targets; ++t) {
      views.ordered.set(p, q, t, classified[k][t]);
    }
  }
  if (experiments != nullptr) *experiments = runs;
  if (!options_.account_order) {
    // No per-order legs to derive the naive view from: both views ARE the
    // naive table.
    views.naive = views.ordered;
    return views;
  }
  views.naive.init(providers, targets);
  for (std::size_t k = 0; k < provider.jobs.size(); ++k) {
    const auto [p, q] = provider.slots[k];
    const PairJob& job = provider.jobs[k];
    const PairOutcomes ab =
        census_winners(censuses[2 * k], job.first, job.second);
    const PairOutcomes ba =
        census_winners(censuses[2 * k + 1], job.second, job.first);
    for (std::size_t t = 0; t < targets; ++t) {
      // The naive view, derived: a naive campaign announces once and
      // takes the winner as strict.  Targets whose winner flips with
      // announcement order would produce contradicting "strict"
      // conclusions across campaigns — record them as inconsistent, the
      // failure Fig. 4b charges the naive approach with.
      const std::uint8_t w_ab = ab.winner[t];
      const std::uint8_t w_ba_as_ab =
          ba.winner[t] == 2 ? std::uint8_t{2}
                            : static_cast<std::uint8_t>(1 - ba.winner[t]);
      PrefKind naive_kind = PrefKind::kUnknown;
      if (w_ab != 2 && w_ba_as_ab != 2) {
        if (w_ab == w_ba_as_ab) {
          naive_kind = w_ab == 0 ? PrefKind::kStrictFirst
                                 : PrefKind::kStrictSecond;
        } else {
          naive_kind = PrefKind::kInconsistent;
        }
      }
      views.naive.set(p, q, t, naive_kind);
    }
  }
  return views;
}

std::vector<PairwiseTable> Discovery::site_level(
    std::size_t* experiments) const {
  const auto& deployment = orchestrator_.world().deployment();
  const std::size_t providers = deployment.provider_count();
  const std::size_t targets = orchestrator_.world().targets().size();
  std::vector<PairwiseTable> tables(providers);

  // One batch across ALL providers: intra-provider pairs are independent
  // experiments, so they parallelize together.
  struct Slot {
    std::size_t provider;
    std::size_t i;
    std::size_t j;
  };
  std::vector<PairJob> jobs;
  std::vector<Slot> slots;
  for (std::size_t p = 0; p < providers; ++p) {
    const auto sites = deployment.sites_of_provider(
        ProviderId{static_cast<ProviderId::underlying_type>(p)});
    tables[p].init(sites.size(), targets);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      for (std::size_t j = i + 1; j < sites.size(); ++j) {
        jobs.push_back({sites[i], sites[j]});
        slots.push_back({p, i, j});
      }
    }
  }

  // Site-level ordinals start after the provider level's so one FaultPlan
  // timeline covers a whole `run()` campaign.
  std::size_t runs = 0;
  const std::size_t provider_specs =
      provider_jobs().jobs.size() * (options_.account_order ? 2 : 1);
  const auto classified =
      classify_jobs(jobs, &runs, options_.ordinal_base + provider_specs);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const Slot& slot = slots[k];
    for (std::size_t t = 0; t < targets; ++t) {
      tables[slot.provider].set(slot.i, slot.j, t, classified[k][t]);
    }
  }
  if (experiments != nullptr) *experiments = runs;
  return tables;
}

std::vector<PrefKind> Discovery::classify_pair(
    SiteId first, SiteId second, std::size_t* experiments) const {
  const PairJob job{first, second};
  return classify_jobs({&job, 1}, experiments, options_.ordinal_base).front();
}

std::vector<std::vector<PrefKind>> Discovery::classify_pairs(
    std::span<const std::pair<SiteId, SiteId>> pairs,
    std::size_t* experiments) const {
  std::vector<PairJob> jobs;
  jobs.reserve(pairs.size());
  for (const auto& [first, second] : pairs) jobs.push_back({first, second});
  return classify_jobs(jobs, experiments, options_.ordinal_base);
}

PairwiseTable Discovery::flat_site_level(std::size_t* experiments) const {
  const auto& deployment = orchestrator_.world().deployment();
  const std::size_t sites = deployment.site_count();
  const std::size_t targets = orchestrator_.world().targets().size();
  PairwiseTable table;
  table.init(sites, targets);

  std::vector<PairJob> jobs;
  jobs.reserve(pair_count(sites));
  for (std::size_t i = 0; i < sites; ++i) {
    for (std::size_t j = i + 1; j < sites; ++j) {
      jobs.push_back({SiteId{static_cast<SiteId::underlying_type>(i)},
                      SiteId{static_cast<SiteId::underlying_type>(j)}});
    }
  }

  std::size_t runs = 0;
  const auto classified = classify_jobs(jobs, &runs, options_.ordinal_base);
  std::size_t k = 0;
  for (std::size_t i = 0; i < sites; ++i) {
    for (std::size_t j = i + 1; j < sites; ++j, ++k) {
      for (std::size_t t = 0; t < targets; ++t) {
        table.set(i, j, t, classified[k][t]);
      }
    }
  }
  if (experiments != nullptr) *experiments = runs;
  return table;
}

DiscoveryResult Discovery::run() const {
  DiscoveryResult result;
  std::size_t provider_runs = 0;
  std::size_t site_runs = 0;
  result.provider_prefs = provider_level(&provider_runs);
  result.site_prefs = site_level(&site_runs);
  const auto& deployment = orchestrator_.world().deployment();
  result.provider_sites.resize(deployment.provider_count());
  for (std::size_t p = 0; p < deployment.provider_count(); ++p) {
    result.provider_sites[p] = deployment.sites_of_provider(
        ProviderId{static_cast<ProviderId::underlying_type>(p)});
  }
  result.experiments = provider_runs + site_runs;
  return result;
}

double Discovery::order_flip_fraction(ProviderId p, ProviderId q) const {
  const SiteId rep_p = representative(p);
  const SiteId rep_q = representative(q);
  if (!rep_p.valid() || !rep_q.valid()) return 0.0;
  const std::vector<measure::ExperimentSpec> specs = {
      make_spec(rep_p, rep_q, options_.spacing_s, 0),
      make_spec(rep_q, rep_p, options_.spacing_s, 1),
  };
  const std::vector<measure::Census> censuses = runner_.run(specs);
  const PairOutcomes ab = census_winners(censuses[0], rep_p, rep_q);
  const PairOutcomes ba = census_winners(censuses[1], rep_q, rep_p);
  std::size_t both = 0;
  std::size_t flipped = 0;
  for (std::size_t t = 0; t < ab.winner.size(); ++t) {
    if (ab.winner[t] == 2 || ba.winner[t] == 2) continue;
    ++both;
    // ba encodes winner relative to (q, p): 0 there means q.
    const std::uint8_t ba_as_ab = static_cast<std::uint8_t>(1 - ba.winner[t]);
    if (ab.winner[t] != ba_as_ab) ++flipped;
  }
  if (telemetry::enabled()) DiscoveryMetrics::get().order_flips->add(flipped);
  return both == 0 ? 0.0
                   : static_cast<double>(flipped) / static_cast<double>(both);
}

}  // namespace anyopt::core
