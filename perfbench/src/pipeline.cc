// Workload `pipeline`: the paper's offline path at paper scale.
//
// Setup builds the paper world (seed 1897).  One campaign then runs, in
// order: discovery, the per-site RTT matrix, an exhaustive optimizer
// search, agility mitigations of fixed deployments under 2x/4x/8x attacks,
// and a Fig.-5a-style validation of seeded random configurations (predicted,
// then measured).  The run seed drives every experiment nonce and random
// draw; the world itself is fixed.  Campaigns repeat until the run's time
// is up; each stage is timed between host probes and scaled to the
// reference host speed, and the run reports medians over its campaigns.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agility/engine.h"
#include "anycast/world.h"
#include "decompose.h"
#include "core/anyopt.h"
#include "harness.h"
#include "measure/orchestrator.h"
#include "netbase/rng.h"
#include "netbase/thread_pool.h"

namespace perfbench {

using namespace anyopt;

namespace {

constexpr std::uint64_t kWorldSeed = 1897;
constexpr int kSetupRepeats = 9;
constexpr std::size_t kValidationConfigs = 6;
constexpr double kIntensities[] = {2.0, 4.0, 8.0};
constexpr std::size_t kSearchSample = 1500;  ///< targets scored per config

/// One deployment the agility stage defends: the SLO gives its busiest
/// site 50% headroom over its quiet load, and the attack hits that site's
/// whole catchment.
struct Defended {
  anycast::AnycastConfig config;
  agility::SloPolicy slo;
  agility::AttackPulse pulse;
};

struct Inputs {
  core::PipelineOptions pipeline;
  core::OptimizerOptions search;
  std::size_t expected_configs = 0;
  std::vector<Defended> defended;
  std::uint64_t agility_seed = 0;
  std::vector<anycast::AnycastConfig> validation;
  std::vector<std::uint64_t> validation_nonces;
};

/// Stage times are scaled by the host factor around them (factor 1 without
/// a probe); `total_s` and `cpu_s` are as measured.
struct CampaignResult {
  double discover_s = 0;
  double rtts_s = 0;
  double search_s = 0;
  double mitigate_s = 0;
  double validate_s = 0;
  double total_s = 0;
  double cpu_s = 0;
  double scaled_total_s = 0;  ///< stage times over their host factors
  double scaled_cpu_s = 0;
  std::vector<double> factors;  ///< one per stage
  double accuracy = 0;
  double total_order_us = 0;  ///< with `time_total_order` only
  core::SearchOutcome outcome;
  std::vector<agility::MitigationResult> mitigations;
  std::vector<double> accuracies;
};

std::size_t binomial(std::size_t n, std::size_t k) {
  std::size_t r = 1;
  for (std::size_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
  return r;
}

Defended defend(const measure::Orchestrator& orchestrator,
                anycast::AnycastConfig config, std::uint64_t nonce) {
  const std::size_t sites = orchestrator.world().deployment().site_count();
  const measure::Census quiet = orchestrator.measure(config, nonce);
  std::vector<double> load(sites, 0.0);
  for (const SiteId s : quiet.site_of_target) {
    if (s.valid()) load[s.value()] += 1.0;
  }
  std::size_t busiest = 0;
  for (std::size_t s = 1; s < sites; ++s) {
    if (load[s] > load[busiest]) busiest = s;
  }
  Defended d;
  d.config = std::move(config);
  d.slo.site_capacity.assign(sites, std::numeric_limits<double>::infinity());
  d.slo.site_capacity[busiest] = load[busiest] * 1.5;
  for (std::size_t t = 0; t < quiet.site_of_target.size(); ++t) {
    if (quiet.site_of_target[t].valid() &&
        quiet.site_of_target[t].value() == busiest) {
      d.pulse.targets.push_back(static_cast<std::uint32_t>(t));
    }
  }
  return d;
}

Inputs make_inputs(const measure::Orchestrator& orchestrator,
                   std::uint64_t seed) {
  const anycast::Deployment& deployment = orchestrator.world().deployment();
  const std::size_t sites = deployment.site_count();
  Rng rng{seed};
  Inputs in;
  in.pipeline.discovery.threads = nproc();
  in.pipeline.discovery.nonce_base = rng();
  in.pipeline.rtt_nonce_base = rng();
  in.search.max_sites = sites;
  in.search.target_sample = kSearchSample;
  in.search.time_budget_s = std::numeric_limits<double>::infinity();
  in.search.seed = rng();
  for (std::size_t k = in.search.min_sites; k <= sites; ++k) {
    in.expected_configs += binomial(sites, k);
  }
  // Two fixed deployments with re-announce headroom: the first and the
  // last two thirds of the site catalog.
  std::vector<SiteId> head;
  std::vector<SiteId> tail;
  for (std::size_t s = 0; s < sites * 2 / 3; ++s) {
    head.push_back(SiteId{static_cast<SiteId::underlying_type>(s)});
    tail.push_back(
        SiteId{static_cast<SiteId::underlying_type>(sites - 1 - s)});
  }
  in.defended.push_back(defend(orchestrator,
                               anycast::AnycastConfig::of_sites(head), rng()));
  in.defended.push_back(defend(orchestrator,
                               anycast::AnycastConfig::of_sites(tail), rng()));
  in.agility_seed = rng();
  for (std::size_t i = 0; i < kValidationConfigs; ++i) {
    in.validation.push_back(
        core::Optimizer::random_config(deployment, 3, 2, rng));
    in.validation_nonces.push_back(rng());
  }
  return in;
}

agility::AgilityEngine engine_for(const measure::Orchestrator& orchestrator,
                                  const Inputs& in, const Defended& d,
                                  double intensity, ThreadPool* pool,
                                  bool use_overlays) {
  agility::DemandModel demand;
  agility::AttackPulse attack = d.pulse;
  attack.intensity = intensity;
  demand.pulses = {attack};
  agility::AgilityOptions options;
  options.slo = d.slo;
  options.seed = in.agility_seed;
  options.pool = pool;
  options.use_overlays = use_overlays;
  return agility::AgilityEngine(orchestrator, std::move(demand), options);
}

/// Stages 2-6, each call under a span (a span costs one branch while the
/// tracer is off).  Discovery is `Discovery::run` spelled out so its two
/// levels get spans of their own.  With a `probe`, each stage is also
/// scaled by the host factor around it.  `time_total_order` adds a timing
/// of `target_total_order` after the campaign, outside its totals.
CampaignResult run_campaign(const measure::Orchestrator& orchestrator,
                            const Inputs& in, ThreadPool& pool,
                            const HostProbe* probe, bool time_total_order) {
  CampaignResult r;
  const anycast::Deployment& deployment = orchestrator.world().deployment();
  ProbedTimer timer(probe);
  const auto stage = [&](auto&& fn) {
    const Timed t = timer.time(fn);
    r.total_s += t.wall_s;
    r.cpu_s += t.cpu_s;
    r.scaled_total_s += t.scaled_wall_s();
    r.scaled_cpu_s += t.scaled_cpu_s();
    r.factors.push_back(t.factor);
    return t.scaled_wall_s();
  };

  core::DiscoveryResult discovery;
  r.discover_s = stage([&] {
    const Span span("core.discover");
    const core::Discovery engine(orchestrator, in.pipeline.discovery);
    std::size_t provider_runs = 0;
    std::size_t site_runs = 0;
    {
      const Span level("core.provider_level");
      discovery.provider_prefs = engine.provider_level(&provider_runs);
    }
    {
      const Span level("core.site_level");
      discovery.site_prefs = engine.site_level(&site_runs);
    }
    discovery.provider_sites.resize(deployment.provider_count());
    for (std::size_t p = 0; p < deployment.provider_count(); ++p) {
      discovery.provider_sites[p] = deployment.sites_of_provider(
          ProviderId{static_cast<ProviderId::underlying_type>(p)});
    }
    discovery.experiments = provider_runs + site_runs;
  });

  std::optional<core::RttMatrix> rtts;
  r.rtts_s = stage([&] {
    const Span span("measure.rtts");
    rtts.emplace(core::RttMatrix::measure(
        orchestrator, in.pipeline.rtt_nonce_base, nullptr));
  });
  const core::Predictor predictor(deployment, std::move(discovery),
                                  std::move(*rtts),
                                  in.pipeline.site_pref_mode);

  r.search_s = stage([&] {
    const Span span("core.search");
    const core::Optimizer optimizer(predictor, in.search);
    r.outcome = optimizer.search();
  });

  r.mitigate_s = stage([&] {
    for (const Defended& d : in.defended) {
      for (const double intensity : kIntensities) {
        const Span span("agility.mitigate");
        r.mitigations.push_back(
            engine_for(orchestrator, in, d, intensity, &pool, true)
                .mitigate(d.config));
      }
    }
  });

  r.validate_s = stage([&] {
    for (std::size_t i = 0; i < in.validation.size(); ++i) {
      std::optional<core::Prediction> prediction;
      {
        const Span span("core.predict_full");
        prediction.emplace(predictor.predict(in.validation[i]));
      }
      std::optional<measure::Census> census;
      {
        const Span span("measure.census");
        census.emplace(
            orchestrator.measure(in.validation[i], in.validation_nonces[i]));
      }
      r.accuracies.push_back(prediction->accuracy_against(*census));
    }
  });

  double sum = 0;
  for (const double a : r.accuracies) sum += a;
  r.accuracy = sum / static_cast<double>(r.accuracies.size());

  if (time_total_order) {
    // target_total_order for every target over all providers, announced
    // in slot order.
    const core::PairwiseTable& table = predictor.discovery().provider_prefs;
    std::vector<std::size_t> items(table.item_count);
    for (std::size_t i = 0; i < items.size(); ++i) items[i] = i;
    const double t0 = now_s();
    {
      const Span span("core.total_order");
      for (std::size_t t = 0; t < table.target_count; ++t) {
        (void)core::target_total_order(table, t, items, items);
      }
    }
    r.total_order_us =
        (now_s() - t0) * 1e6 / static_cast<double>(table.target_count);
  }
  return r;
}

void check_campaign(const CampaignResult& r, const Inputs& in,
                    Report& report) {
  report.check(r.outcome.exhausted &&
                   r.outcome.configurations_evaluated == in.expected_configs,
               "search exhausted with " + std::to_string(in.expected_configs) +
                   " configs (got " +
                   std::to_string(r.outcome.configurations_evaluated) + ")");
  for (std::size_t i = 0; i < r.mitigations.size(); ++i) {
    const agility::MitigationResult& m = r.mitigations[i];
    report.check(m.slo_violated && m.best.mitigated,
                 "mitigation " + std::to_string(i) + " restores the SLO");
  }
  for (const double a : r.accuracies) {
    report.check(a > 0.5 && a <= 1.0, "validation accuracy in (0.5, 1]");
  }
}

bool same_campaign(const CampaignResult& a, const CampaignResult& b) {
  if (a.outcome.best.config.announce_order !=
          b.outcome.best.config.announce_order ||
      a.outcome.best.predicted_mean_rtt != b.outcome.best.predicted_mean_rtt ||
      a.accuracies != b.accuracies ||
      a.mitigations.size() != b.mitigations.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.mitigations.size(); ++i) {
    if (a.mitigations[i].best.playbook.steps !=
            b.mitigations[i].best.playbook.steps ||
        a.mitigations[i].total_sim_events != b.mitigations[i].total_sim_events) {
      return false;
    }
  }
  return true;
}

/// The median over the run's campaigns of one field.
double median_of(const std::vector<CampaignResult>& runs,
                 double CampaignResult::*field) {
  std::vector<double> values;
  for (const CampaignResult& r : runs) values.push_back(r.*field);
  return median(std::move(values));
}

/// Traced-run extras: the census and overlay-census decompositions.
void trace_layers(const measure::Orchestrator& orchestrator, const Inputs& in,
                  const CampaignResult& campaign, Report& report) {
  const std::vector<std::uint32_t> order = resolve_order(orchestrator.world());

  // The validation censuses, each whole and in parts (same config and
  // nonce).
  double whole_ms = 0;
  CensusParts sum;
  for (std::size_t i = 0; i < in.validation.size(); ++i) {
    const double t0 = now_s();
    measure::Census whole;
    {
      const Span span("census.whole", i);
      whole = orchestrator.measure(in.validation[i], in.validation_nonces[i]);
    }
    whole_ms += (now_s() - t0) * 1e3;
    CensusParts parts;
    {
      const Span span("census.decomposed", i);
      parts = decompose_census(orchestrator, order, in.validation[i],
                               in.validation_nonces[i]);
    }
    report.check(same_census(whole, parts.census),
                 "decomposed census equals Orchestrator::measure");
    sum.add(parts);
  }
  const auto n = static_cast<double>(in.validation.size());
  report.metric("measure.census_coverage", "ratio", sum.total_ms() / whole_ms,
                in.validation.size());
  report.metric("bgp.converge_ms", "ms", sum.sim_ms / n, in.validation.size());
  report.metric("bgp.freeze_ms", "ms", sum.freeze_ms / n, in.validation.size());
  report.metric("bgp.rib_bytes", "bytes", static_cast<double>(sum.rib_bytes),
                in.validation.size());
  report.metric("bgp.resolve_us", "us",
                sum.resolve_ms * 1e3 / static_cast<double>(sum.resolved),
                sum.resolved);
  report.metric("measure.probe_us", "us",
                sum.probe_ms * 1e3 / static_cast<double>(sum.probed),
                sum.probed);

  // One agility step as an overlay census, whole and in parts.
  const Defended& d = in.defended.front();
  const agility::MitigationResult& m = campaign.mitigations.front();
  if (m.best.playbook.steps.empty()) return;
  const bgp::BaseState base =
      orchestrator.converge_base(d.config, in.agility_seed ^ 0xBA5E);
  std::vector<bgp::Injection> delta;
  agility::append_step_delta(delta, orchestrator.world().deployment(),
                             m.best.playbook.steps.front(), 60.0);
  const anycast::AnycastConfig stepped =
      agility::config_after(d.config, m.best.playbook, 1);
  const std::uint64_t step_nonce = in.validation_nonces.front() ^ 0x57E9;
  const double t0 = now_s();
  measure::Census overlay_whole;
  {
    const Span span("measure.overlay_census");
    bgp::SimScratch scratch;
    overlay_whole = orchestrator.measure_overlay(base, stepped, delta,
                                                 step_nonce, &scratch, {});
  }
  report.metric("measure.overlay_census_ms", "ms", (now_s() - t0) * 1e3, 1);
  CensusParts overlay_parts;
  {
    const Span span("census.decomposed");
    overlay_parts =
        decompose_overlay_census(orchestrator, order, base, delta, step_nonce);
  }
  report.check(same_census(overlay_whole, overlay_parts.census),
               "decomposed overlay census equals measure_overlay");
  report.metric("bgp.overlay_ms", "ms", overlay_parts.sim_ms, 1);
  report.metric("bgp.overlay_events", "count",
                static_cast<double>(overlay_parts.sim_events), 1);
}

}  // namespace

void run_pipeline(const Args& args, Report& report) {
  const auto params = anycast::WorldParams::paper_scale(kWorldSeed);

  // Setup: the world, built several times; the last one is kept.
  std::unique_ptr<anycast::World> world;
  time_setup(
      kSetupRepeats,
      [&] {
        world.reset();
        world = anycast::World::create(params);
      },
      report);
  const HostProbe& probe = HostProbe::global();

  const measure::Orchestrator orchestrator(*world);
  const Inputs in = make_inputs(orchestrator, args.seed);
  ThreadPool pool(nproc());

  // Warm-up campaign with the telemetry registry counting work; it also
  // carries the overlay-versus-classic agility check.
  anyopt::telemetry::Registry::global().reset();
  CampaignResult reference;
  with_telemetry([&] {
    reference = run_campaign(orchestrator, in, pool, nullptr, false);
    record_work_counters(report);
  });
  check_campaign(reference, in, report);
  {
    const Defended& d = in.defended.front();
    const agility::MitigationResult classic =
        engine_for(orchestrator, in, d, kIntensities[0], &pool, false)
            .mitigate(d.config);
    const agility::MitigationResult& overlay = reference.mitigations.front();
    report.check(classic.best.playbook.steps == overlay.best.playbook.steps &&
                     classic.best.time_to_mitigate_s ==
                         overlay.best.time_to_mitigate_s &&
                     classic.best.post_mean_rtt_ms ==
                         overlay.best.post_mean_rtt_ms,
                 "overlay mitigation equals the classic path");
  }

  if (args.trace) {
    // One untraced and one traced campaign: the gap is the overhead.
    const CampaignResult plain = run_campaign(orchestrator, in, pool, nullptr, false);
    anyopt::telemetry::Registry::global().reset();
    CampaignResult traced;
    Tracer::global().enable();
    with_telemetry([&] {
      const Span span("pipeline.campaign");
      traced = run_campaign(orchestrator, in, pool, nullptr, true);
    });
    report.check(same_campaign(traced, reference),
                 "traced campaign repeats the reference campaign");
    report.metric("trace.overhead_frac", "ratio",
                  traced.total_s / plain.total_s - 1.0, 1);
    const auto& reg = anyopt::telemetry::Registry::global();
    const auto counter = [&](const char* name) {
      return static_cast<double>(reg.counter_value(name));
    };
    report.metric("bgp.events", "count", counter("bgp.sim.events"), 1);
    report.metric("bgp.runs", "count", counter("bgp.sim.runs"), 1);
    const double hits = counter("bgp.resolve.cache_hit");
    const double misses = counter("bgp.resolve.cache_miss");
    report.metric("bgp.resolve.hit_rate", "ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, 1);
    report.metric("measure.probes", "count", counter("measure.probes.sent"), 1);
    report.metric("measure.shard_bytes", "bytes",
                  static_cast<double>(reg.gauge_max("bytes.census_shards")), 1);
    const double worker_us = counter("pool.worker_us");
    report.metric("measure.pool_busy_frac", "ratio",
                  worker_us > 0 ? counter("pool.busy_us") / worker_us : 0.0,
                  1);
    report.metric("core.configs_evaluated", "count",
                  counter("optimizer.configs_evaluated"), 1);
    report.metric("core.configs_per_s", "1/s",
                  static_cast<double>(
                      traced.outcome.configurations_evaluated) /
                      traced.search_s,
                  1);
    const Tracer& tracer = Tracer::global();
    const auto median_ms = [&](const char* name) {
      return median(tracer.durations_us(name)) / 1e3;
    };
    report.metric("core.provider_level_ms", "ms",
                  median_ms("core.provider_level"), 1);
    report.metric("core.site_level_ms", "ms", median_ms("core.site_level"), 1);
    report.metric("core.predict_full_ms", "ms", median_ms("core.predict_full"),
                  tracer.durations_us("core.predict_full").size());
    report.metric("measure.census_ms", "ms", median_ms("measure.census"),
                  tracer.durations_us("measure.census").size());
    report.metric("core.total_order_us", "us", traced.total_order_us, 1);
    report.metric("agility.mitigate_ms", "ms", median_ms("agility.mitigate"),
                  traced.mitigations.size());
    double candidates = 0;
    double pruned = 0;
    double events = 0;
    for (const agility::MitigationResult& m : traced.mitigations) {
      candidates += static_cast<double>(m.candidates);
      pruned += static_cast<double>(m.pruned);
      events += static_cast<double>(m.total_sim_events);
    }
    report.metric("agility.candidates", "count", candidates,
                  traced.mitigations.size());
    report.metric("agility.prune_frac", "ratio",
                  candidates + pruned > 0 ? pruned / (candidates + pruned) : 0.0,
                  traced.mitigations.size());
    report.metric("agility.sim_events", "count", events,
                  traced.mitigations.size());
    trace_layers(orchestrator, in, traced, report);

    trace_world_build(params, report);
    return;
  }

  // Timed campaigns, telemetry off, until the run's time is up.
  std::vector<CampaignResult> runs;
  const double deadline = now_s() + args.seconds;
  do {
    runs.push_back(run_campaign(orchestrator, in, pool, &probe, false));
    const CampaignResult& c = runs.back();
    std::printf("campaign %zu: %.3f s, cpu %.3f s; scaled %.3f s (discover"
                " %.3f, rtts %.3f, search %.3f, mitigate %.3f, validate %.3f),"
                " cpu %.3f s; host factor %.3f\n",
                runs.size(), c.total_s, c.cpu_s, c.scaled_total_s,
                c.discover_s, c.rtts_s, c.search_s, c.mitigate_s,
                c.validate_s, c.scaled_cpu_s, median(c.factors));
    check_campaign(runs.back(), in, report);
    report.check(same_campaign(runs.back(), reference),
                 "campaign repeats the reference campaign");
  } while (now_s() < deadline);

  const std::size_t n = runs.size();
  report.metric("latency_ms", "ms",
                median_of(runs, &CampaignResult::scaled_total_s) * 1e3, n);
  report.metric("cpu_s", "s", median_of(runs, &CampaignResult::scaled_cpu_s),
                n);
  report.metric("discover_s", "s", median_of(runs, &CampaignResult::discover_s), n);
  report.metric("rtts_s", "s", median_of(runs, &CampaignResult::rtts_s), n);
  report.metric("search_s", "s", median_of(runs, &CampaignResult::search_s), n);
  report.metric("mitigate_s", "s", median_of(runs, &CampaignResult::mitigate_s), n);
  report.metric("validate_s", "s", median_of(runs, &CampaignResult::validate_s), n);
  report.metric("wall_ms", "ms", median_of(runs, &CampaignResult::total_s) * 1e3,
                n);
  report.metric("wall_cpu_s", "s", median_of(runs, &CampaignResult::cpu_s), n);
  std::vector<double> factors;
  for (const CampaignResult& r : runs) {
    factors.insert(factors.end(), r.factors.begin(), r.factors.end());
  }
  report.metric("host_factor", "ratio", median(factors), factors.size());
  report.metric("accuracy", "ratio", reference.accuracy,
                reference.accuracies.size());
}

}  // namespace perfbench
