#include "measure/campaign_runner.h"

#include <array>
#include <optional>
#include <tuple>
#include <utility>

#include "measure/provenance.h"
#include "measure/store.h"
#include "netbase/telemetry.h"

namespace anyopt::measure {

namespace {

/// Pre-resolved campaign metrics (one registry lookup per process).
struct CampaignMetrics {
  telemetry::Counter* batches;
  telemetry::Counter* experiments;
  telemetry::Histogram* experiment_ms;

  static const CampaignMetrics& get() {
    static const CampaignMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return CampaignMetrics{&reg.counter("campaign.batches"),
                             &reg.counter("campaign.experiments"),
                             &reg.histogram("campaign.experiment_ms")};
    }();
    return m;
  }
};

/// One provenance line for a census replayed from the result store: no
/// simulation ran, so only the identity and outcome fields apply.  The
/// orchestrator records every simulated path; store hits bypass it, so the
/// runner is the only place that knows they happened.
void record_store_hit(std::uint64_t nonce, std::size_t ordinal,
                      const Census& census, double t0_us) {
  provenance::ExperimentTrace trace;
  trace.nonce = nonce;
  trace.ordinal = ordinal;
  trace.path = "store-hit";
  trace.targets = census.site_of_target.size();
  trace.reachable = census.reachable_count();
  trace.duration_ms = (telemetry::now_us() - t0_us) / 1e3;
  provenance::FlightLog::global().record(trace);
}

/// The identity of one census a spec yields: what keys it in the store and
/// names it in the flight log.
struct Leg {
  const anycast::AnycastConfig* config;
  std::uint64_t nonce;
  std::size_t ordinal;
};

std::array<Leg, 1> legs_of(const ExperimentSpec& spec) {
  return {{{&spec.config, spec.nonce, spec.ordinal}}};
}

std::array<Leg, 2> legs_of(const OverlayPairSpec& spec) {
  return {{{&spec.config0, spec.nonce0, spec.ordinal0},
           {&spec.config1, spec.nonce1, spec.ordinal1}}};
}

/// Simulates one spec into `out` (one census per leg) through the calling
/// thread's arena.
void simulate(const Orchestrator& orchestrator, const ExperimentSpec& spec,
              std::span<Census> out) {
  const ExperimentAt at{spec.ordinal, spec.attempt};
  out[0] = spec.base == nullptr
               ? orchestrator.measure(spec.config, spec.nonce, at)
               : orchestrator.measure_overlay(*spec.base, spec.config,
                                              spec.delta, spec.nonce,
                                              &Orchestrator::thread_scratch(),
                                              at);
}

void simulate(const Orchestrator& orchestrator, const OverlayPairSpec& spec,
              std::span<Census> out) {
  Orchestrator::OverlayPairCensus pair = orchestrator.measure_overlay_pair(
      *spec.base, spec.config0, spec.config1, spec.delta, spec.reage,
      spec.nonce0, spec.nonce1, &Orchestrator::thread_scratch(),
      {spec.ordinal0, spec.attempt}, {spec.ordinal1, spec.attempt});
  out[0] = std::move(pair.leg0);
  out[1] = std::move(pair.leg1);
}

}  // namespace

CampaignRunner::CampaignRunner(const Orchestrator& orchestrator,
                               CampaignRunnerOptions options)
    : orchestrator_(orchestrator), store_(options.store) {
  if (options.threads != 1) {
    pool_ = std::make_unique<ThreadPool>(options.threads);
  }
}

template <class Spec>
std::vector<Census> CampaignRunner::run_batch(
    std::span<const Spec> specs) const {
  constexpr std::size_t kLegs =
      std::tuple_size_v<decltype(legs_of(std::declval<const Spec&>()))>;
  const bool telem = telemetry::enabled();
  telemetry::ScopedTimer batch_span(
      "campaign.batch", "campaign", nullptr,
      telem && telemetry::tracing()
          ? telemetry::make_args("experiments", specs.size() * kLegs,
                                 "threads", threads())
          : std::string{});
  if (telem) {
    const CampaignMetrics& m = CampaignMetrics::get();
    m.batches->add(1);
    m.experiments->add(specs.size() * kLegs);
  }
  std::vector<Census> censuses(specs.size() * kLegs);
  const auto measure_one = [&](std::size_t i) {
    const Spec& spec = specs[i];
    const std::array<Leg, kLegs> legs = legs_of(spec);
    const std::span<Census> out(censuses.data() + i * kLegs, kLegs);
    std::array<std::uint64_t, kLegs> keys{};
    if (store_ != nullptr) {
      for (std::size_t l = 0; l < kLegs; ++l) {
        keys[l] = ResultStore::census_key(*legs[l].config, legs[l].nonce);
      }
    }
    // Store hits replay persisted censuses without simulating.  A spec
    // simulates as a unit (a pair's leg 1 resumes leg 0's state), so it
    // replays only when every leg is persisted.  Retried specs
    // (attempt > 0) never take this path: a retry exists to replace the
    // stored result, not to re-read it.
    if (store_ != nullptr && spec.attempt == 0) {
      const double t0_us =
          provenance::active() ? telemetry::now_us() : 0.0;
      std::size_t found = 0;
      while (found < kLegs) {
        std::optional<Census> cached = store_->find_census(keys[found]);
        if (!cached.has_value()) break;
        out[found++] = *std::move(cached);
      }
      if (found == kLegs) {
        if (provenance::active()) {
          for (std::size_t l = 0; l < kLegs; ++l) {
            record_store_hit(legs[l].nonce, legs[l].ordinal, out[l], t0_us);
          }
        }
        return;
      }
    }
    telemetry::ScopedTimer span(
        "campaign.experiment", "campaign",
        telemetry::enabled() ? CampaignMetrics::get().experiment_ms : nullptr,
        telemetry::enabled() && telemetry::tracing()
            ? telemetry::make_args("index", i, "nonce", legs[0].nonce)
            : std::string{});
    simulate(orchestrator_, spec, out);
    // Flush the moment the experiment finishes: an interrupted campaign
    // loses at most its in-flight experiments.  A write failure only costs
    // the checkpoint, never the campaign.
    if (store_ != nullptr) {
      for (std::size_t l = 0; l < kLegs; ++l) {
        (void)store_->put_census(keys[l], out[l]);
      }
    }
  };
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < specs.size(); ++i) measure_one(i);
  } else {
    pool_->parallel_for(specs.size(), measure_one);
  }
  return censuses;
}

std::vector<Census> CampaignRunner::run(
    std::span<const ExperimentSpec> specs) const {
  return run_batch(specs);
}

std::vector<Census> CampaignRunner::run_overlay_pairs(
    std::span<const OverlayPairSpec> specs) const {
  return run_batch(specs);
}

}  // namespace anyopt::measure
