#include "agility/engine.h"

#include <algorithm>
#include <optional>

#include "agility/metrics.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"

namespace anyopt::agility {

namespace {

/// Every step legally applicable to `config`, in a deterministic order
/// (per site ascending: withdraw, prepend depths 1..levels, re-announce).
std::vector<PlaybookStep> all_valid_steps(const anycast::AnycastConfig& config,
                                          std::size_t site_count,
                                          std::uint8_t prepend_levels) {
  std::vector<PlaybookStep> steps;
  for (std::size_t s = 0; s < site_count; ++s) {
    const SiteId site{static_cast<SiteId::underlying_type>(s)};
    PlaybookStep withdraw{Knob::kWithdraw, site, 0};
    if (step_valid(config, withdraw)) steps.push_back(withdraw);
    for (std::uint8_t k = 1; k <= prepend_levels; ++k) {
      PlaybookStep prepend{Knob::kPrepend, site, k};
      if (step_valid(config, prepend)) steps.push_back(prepend);
    }
    PlaybookStep reannounce{Knob::kReannounce, site, 0};
    if (step_valid(config, reannounce)) steps.push_back(reannounce);
  }
  return steps;
}

/// Whether `step` can plausibly help against `slo`'s violation: shed load
/// from an overloaded site, or add capacity by enabling a site.
bool helpful(const PlaybookStep& step, const SloState& slo) {
  if (step.knob == Knob::kReannounce) return true;
  return std::find(slo.overloaded.begin(), slo.overloaded.end(), step.site) !=
         slo.overloaded.end();
}

/// mitigated > lower time-to-mitigate > lower residual excess > lower
/// post RTT > fewer steps > lexicographic description — a serial total
/// order, so the winner never depends on evaluation order.
bool better(const PlaybookOutcome& a, const PlaybookOutcome& b) {
  if (a.mitigated != b.mitigated) return a.mitigated;
  if (a.time_to_mitigate_s != b.time_to_mitigate_s) {
    return a.time_to_mitigate_s < b.time_to_mitigate_s;
  }
  const double excess_a = a.steps.empty() ? 0 : a.steps.back().slo.worst_excess;
  const double excess_b = b.steps.empty() ? 0 : b.steps.back().slo.worst_excess;
  if (excess_a != excess_b) return excess_a < excess_b;
  if (a.post_mean_rtt_ms != b.post_mean_rtt_ms) {
    return a.post_mean_rtt_ms < b.post_mean_rtt_ms;
  }
  if (a.playbook.steps.size() != b.playbook.steps.size()) {
    return a.playbook.steps.size() < b.playbook.steps.size();
  }
  return a.playbook.describe() < b.playbook.describe();
}

}  // namespace

AgilityEngine::AgilityEngine(const measure::Orchestrator& orchestrator,
                             DemandModel demand, AgilityOptions options)
    : orchestrator_(orchestrator),
      demand_(std::move(demand)),
      options_(std::move(options)) {}

MitigationResult AgilityEngine::mitigate(
    const anycast::AnycastConfig& deployed) const {
  const bool telem = telemetry::enabled();
  const std::size_t site_count =
      orchestrator_.world().deployment().site_count();
  const anycast::Deployment& deployment = orchestrator_.world().deployment();
  const std::uint64_t base_nonce = mix64(options_.seed, 0xBA5EULL);

  MitigationResult result;

  // The shared base: converged once, forked by every overlay evaluation.
  // The classic path converges an interchangeable private base per run
  // instead (same nonce, bit-identical tables — the converge_base
  // contract), paying the convergence cost every step.
  std::optional<bgp::BaseState> shared;
  if (options_.use_overlays) {
    shared.emplace(orchestrator_.converge_base(deployed, base_nonce));
    result.base_events = shared->events();
    result.total_sim_events += result.base_events;
  }

  /// Runs one playbook prefix's final step: the cumulative delta of
  /// `steps[0..count)` over the deployed base, measured, assessed at the
  /// attack instant.  Pure in (playbook prefix, options) — the nonce is
  /// the prefix's content key.
  const auto run_step = [&](const Playbook& playbook, std::size_t count,
                            const std::vector<std::uint64_t>& keys) {
    const anycast::AnycastConfig config =
        config_after(deployed, playbook, count);
    std::vector<bgp::Injection> delta;
    for (std::size_t i = 0; i < count; ++i) {
      append_step_delta(delta, deployment, playbook.steps[i],
                        (static_cast<double>(i) + 1.0) * options_.knob_delay_s);
    }
    const std::uint64_t nonce =
        count == 0 ? mix64(options_.seed, 0xBA5E11E0ULL) : keys[count - 1];
    bgp::SimScratch* scratch = &measure::Orchestrator::thread_scratch();
    StepOutcome outcome;
    outcome.at_s = static_cast<double>(count) * options_.knob_delay_s;
    std::size_t events = 0;
    measure::Census census;
    if (options_.use_overlays) {
      census = orchestrator_.measure_overlay(*shared, config, delta, nonce,
                                             scratch, {}, &events);
      if (telem) AgilityMetrics::get().overlay_steps->add(1);
    } else {
      const bgp::BaseState priv =
          orchestrator_.converge_base(deployed, base_nonce);
      census = orchestrator_.measure_overlay(priv, config, delta, nonce,
                                             scratch, {}, &events);
      events += priv.events();
      if (telem) AgilityMetrics::get().classic_steps->add(1);
    }
    if (telem) AgilityMetrics::get().evaluations->add(1);
    outcome.sim_events = events;
    outcome.slo = assess(census, demand_, options_.slo, site_count,
                         options_.attack_time_s);
    return outcome;
  };

  // --- Baseline: the deployed configuration under the attack. ---
  const Playbook hold;
  const StepOutcome baseline = run_step(hold, 0, {});
  result.total_sim_events += baseline.sim_events;
  result.baseline = baseline.slo;
  result.slo_violated = !baseline.slo.ok;
  if (telem) {
    const AgilityMetrics& m = AgilityMetrics::get();
    m.overloaded_sites->set(
        static_cast<std::int64_t>(baseline.slo.overloaded.size()));
    m.worst_excess_weight->set(
        static_cast<std::int64_t>(baseline.slo.worst_excess * 1000.0));
    if (result.slo_violated) m.slo_violations->add(1);
  }
  if (!result.slo_violated) {
    // Nothing to mitigate: hold wins with a zero time-to-mitigate.
    result.best.mitigated = true;
    result.best.time_to_mitigate_s = 0;
    result.best.post_mean_rtt_ms = baseline.slo.mean_rtt_ms;
    return result;
  }

  /// Evaluates a batch of candidate playbooks (each extending a shared,
  /// already-evaluated prefix by one step) into indexed slots — parallel
  /// when a pool is configured, bit-identical either way.
  const auto evaluate_batch = [&](std::vector<PlaybookOutcome>& batch) {
    const auto evaluate_one = [&](std::size_t i) {
      PlaybookOutcome& candidate = batch[i];
      const std::size_t depth = candidate.playbook.steps.size();
      const std::vector<std::uint64_t> keys =
          candidate.playbook.prefix_keys(options_.seed);
      StepOutcome step = run_step(candidate.playbook, depth, keys);
      candidate.sim_events += step.sim_events;
      if (step.slo.ok) {
        candidate.mitigated = true;
        candidate.steps_needed = depth;
        candidate.time_to_mitigate_s =
            static_cast<double>(depth) * options_.knob_delay_s +
            options_.settle_s;
      }
      candidate.post_mean_rtt_ms = step.slo.mean_rtt_ms;
      candidate.steps.push_back(std::move(step));
    };
    if (options_.pool != nullptr && options_.pool->size() > 1) {
      options_.pool->parallel_for(batch.size(), evaluate_one);
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) evaluate_one(i);
    }
    for (const PlaybookOutcome& candidate : batch) {
      result.total_sim_events += candidate.steps.back().sim_events;
    }
    result.candidates += batch.size();
  };

  // --- Depth 1: every helpful single step. ---
  std::vector<PlaybookOutcome> scored;
  std::vector<PlaybookOutcome> frontier;
  {
    const std::vector<PlaybookStep> valid =
        all_valid_steps(deployed, site_count, options_.prepend_levels);
    for (const PlaybookStep& step : valid) {
      if (!helpful(step, baseline.slo)) {
        ++result.pruned;
        continue;
      }
      PlaybookOutcome candidate;
      candidate.playbook.steps = {step};
      frontier.push_back(std::move(candidate));
    }
    evaluate_batch(frontier);
    scored.insert(scored.end(), frontier.begin(), frontier.end());
  }

  // --- Deeper only while nothing shallower mitigated (time-to-mitigate is
  // monotone in step count, so a shallow win closes the search). ---
  for (std::size_t depth = 2;
       depth <= options_.max_steps &&
       std::none_of(frontier.begin(), frontier.end(),
                    [](const PlaybookOutcome& c) { return c.mitigated; });
       ++depth) {
    std::vector<PlaybookOutcome> next;
    for (const PlaybookOutcome& parent : frontier) {
      const anycast::AnycastConfig after = config_after(
          deployed, parent.playbook, parent.playbook.steps.size());
      const SloState& after_slo = parent.steps.back().slo;
      for (const PlaybookStep& step :
           all_valid_steps(after, site_count, options_.prepend_levels)) {
        if (!helpful(step, after_slo)) {
          ++result.pruned;
          continue;
        }
        PlaybookOutcome candidate;
        candidate.playbook.steps = parent.playbook.steps;
        candidate.playbook.steps.push_back(step);
        // The prefix's evaluation is reused bit for bit: its nonce is the
        // prefix content key, independent of which candidate carries it.
        candidate.steps = parent.steps;
        candidate.sim_events = parent.sim_events;
        next.push_back(std::move(candidate));
      }
    }
    if (next.empty()) break;
    evaluate_batch(next);
    scored.insert(scored.end(), next.begin(), next.end());
    frontier = std::move(next);
  }

  // --- Serial winner selection over everything evaluated. ---
  if (scored.empty()) {
    result.best.post_mean_rtt_ms = baseline.slo.mean_rtt_ms;
    return result;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < scored.size(); ++i) {
    if (better(scored[i], scored[best])) best = i;
  }
  result.best = std::move(scored[best]);
  if (telem) {
    const AgilityMetrics& m = AgilityMetrics::get();
    m.candidates->add(result.candidates);
    m.pruned->add(result.pruned);
    if (result.best.mitigated) m.mitigations->add(1);
  }
  return result;
}

}  // namespace anyopt::agility
