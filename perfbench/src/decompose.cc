#include "decompose.h"

#include <algorithm>
#include <cmath>

#include "bgp/compact.h"
#include "measure/prober.h"
#include "netbase/rng.h"
#include "topo/builder.h"

namespace perfbench {

using namespace anyopt;

namespace {

double elapsed_ms(double t0) { return (now_s() - t0) * 1e3; }

/// Freeze, resolve and probe a converged state exactly as the
/// orchestrator's census pass does with its default options.
void finish(const measure::Orchestrator& orchestrator,
            std::span<const std::uint32_t> order, bgp::RoutingState& state,
            std::uint64_t nonce, CensusParts& parts) {
  const anycast::World& world = orchestrator.world();
  const anycast::TargetPopulation& targets = world.targets();
  const measure::OrchestratorOptions defaults;
  parts.sim_events = state.events_processed();

  double t0 = now_s();
  bgp::CompactState rib;
  {
    const Span span("bgp.freeze");
    rib = bgp::CompactState::freeze(world.simulator(), state);
  }
  parts.freeze_ms = elapsed_ms(t0);
  parts.rib_bytes = rib.retained_bytes();

  struct Hop {
    bool reachable = false;
    SiteId site;
    bgp::AttachmentIndex attachment = bgp::kNoAttachment;
    double one_way_ms = 0;
  };
  std::vector<Hop> hops(targets.size());
  t0 = now_s();
  {
    const Span span("bgp.resolve");
    for (const std::uint32_t t : order) {
      const anycast::Target& tgt = targets.target(TargetId{t});
      const bgp::ResolvedPath path = rib.resolve(tgt.as, tgt.where, t);
      hops[t] = {path.reachable, path.site, path.attachment, path.one_way_ms};
    }
  }
  parts.resolve_ms = elapsed_ms(t0);
  parts.resolved = order.size();

  measure::Census& census = parts.census;
  census.site_of_target.assign(targets.size(), SiteId{});
  census.attachment_of_target.assign(targets.size(), bgp::kNoAttachment);
  census.rtt_ms.assign(targets.size(), -1.0);
  Rng noise_root{defaults.seed ^ (nonce * 0x9e3779b97f4a7c15ULL)};
  measure::Prober prober{defaults.probe, noise_root.fork("census-probes")};
  t0 = now_s();
  {
    const Span span("measure.probe");
    for (std::size_t t = 0; t < targets.size(); ++t) {
      if (!hops[t].reachable) continue;
      ++parts.probed;
      const double tunnel = orchestrator.tunnel_rtt_ms(hops[t].site);
      const auto sample = prober.measure(tunnel + 2.0 * hops[t].one_way_ms);
      if (!sample.has_value()) continue;
      census.site_of_target[t] = hops[t].site;
      census.attachment_of_target[t] = hops[t].attachment;
      census.rtt_ms[t] = std::max(0.05, *sample - tunnel);
    }
  }
  parts.probe_ms = elapsed_ms(t0);
}

}  // namespace

void CensusParts::add(const CensusParts& other) {
  sim_ms += other.sim_ms;
  freeze_ms += other.freeze_ms;
  resolve_ms += other.resolve_ms;
  probe_ms += other.probe_ms;
  sim_events += other.sim_events;
  rib_bytes = std::max(rib_bytes, other.rib_bytes);
  resolved += other.resolved;
  probed += other.probed;
}

std::vector<std::uint32_t> resolve_order(const anycast::World& world) {
  const anycast::TargetPopulation& targets = world.targets();
  std::vector<std::uint32_t> order(targets.size());
  for (std::size_t t = 0; t < order.size(); ++t) {
    order[t] = static_cast<std::uint32_t>(t);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return targets.target(TargetId{a}).as.value() <
                            targets.target(TargetId{b}).as.value();
                   });
  return order;
}

CensusParts decompose_census(const measure::Orchestrator& orchestrator,
                             std::span<const std::uint32_t> order,
                             const anycast::AnycastConfig& config,
                             std::uint64_t nonce) {
  const anycast::World& world = orchestrator.world();
  CensusParts parts;
  const auto schedule = config.schedule(world.deployment());
  const double t0 = now_s();
  // A per-thread recycled arena, as the orchestrator's `measure` keeps.
  thread_local bgp::SimScratch scratch;
  bgp::RoutingState state = [&] {
    const Span span("bgp.converge");
    return world.simulator().run(schedule, nonce, &scratch);
  }();
  parts.sim_ms = elapsed_ms(t0);
  finish(orchestrator, order, state, nonce, parts);
  return parts;
}

CensusParts decompose_overlay_census(const measure::Orchestrator& orchestrator,
                                     std::span<const std::uint32_t> order,
                                     const bgp::BaseState& base,
                                     std::span<const bgp::Injection> delta,
                                     std::uint64_t nonce) {
  const anycast::World& world = orchestrator.world();
  CensusParts parts;
  const double t0 = now_s();
  thread_local bgp::SimScratch scratch;
  bgp::RoutingState state = [&] {
    const Span span("bgp.overlay");
    return world.simulator().run_overlay(base, delta, nonce, &scratch);
  }();
  parts.sim_ms = elapsed_ms(t0);
  finish(orchestrator, order, state, nonce, parts);
  return parts;
}

void trace_world_build(const anycast::WorldParams& params, Report& report) {
  // The seed derivation of the World constructor.
  Rng master{params.seed};
  topo::InternetParams internet = params.internet;
  internet.seed = master.fork("internet")();
  anycast::TargetParams target_params = params.targets;
  target_params.seed = master.fork("targets")();
  bgp::SimulatorOptions sim_options = params.sim;
  sim_options.seed = master.fork("simulator")();
  std::vector<anycast::SiteSpec> sites = params.sites;
  if (params.peer_scale != 1.0) {
    for (anycast::SiteSpec& s : sites) {
      s.peer_count = static_cast<int>(std::lround(
          params.peer_scale * static_cast<double>(s.peer_count)));
    }
  }

  double t0 = now_s();
  topo::Internet net = [&] {
    const Span span("topo.build");
    return topo::build_internet(internet);
  }();
  report.metric("topo.build_s", "s", now_s() - t0, 1);
  t0 = now_s();
  {
    const Span span("anycast.world");
    const anycast::Deployment deployment =
        anycast::Deployment::realize(net, sites, master.fork("deployment"));
    const anycast::TargetPopulation targets =
        anycast::TargetPopulation::generate(net, target_params);
    const bgp::Simulator simulator(net, deployment.attachments(), sim_options);
    report.metric("anycast.world_s", "s", now_s() - t0, 1);
  }
}

bool same_census(const measure::Census& a, const measure::Census& b) {
  return a.site_of_target == b.site_of_target &&
         a.attachment_of_target == b.attachment_of_target &&
         a.rtt_ms == b.rtt_ms;
}

}  // namespace perfbench
