#include "anycast/world.h"

#include <algorithm>
#include <cmath>

#include "netbase/rng.h"
#include "netbase/telemetry.h"

namespace anyopt::anycast {

namespace {

/// Pre-resolved world-build stage histograms (one registry lookup per
/// process).
struct WorldMetrics {
  telemetry::Histogram* topology_ms;
  telemetry::Histogram* deployment_ms;
  telemetry::Histogram* targets_ms;
  telemetry::Histogram* simulator_ms;

  static const WorldMetrics& get() {
    static const WorldMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return WorldMetrics{&reg.histogram("world.topology_ms"),
                          &reg.histogram("world.deployment_ms"),
                          &reg.histogram("world.targets_ms"),
                          &reg.histogram("world.simulator_ms")};
    }();
    return m;
  }
};

}  // namespace

WorldParams WorldParams::paper_scale(std::uint64_t seed) {
  WorldParams p;
  p.seed = seed;
  p.internet.required_tier1_pops = table1_required_pops();
  p.targets.count = 15300;
  return p;
}

WorldParams WorldParams::at_scale(std::size_t ases, std::uint64_t seed) {
  WorldParams p = paper_scale(seed);
  p.internet = topo::scale_internet_params(ases, std::move(p.internet));
  // Keep the paper's targets-per-AS density (15,300 over 5,456 ASes).
  p.targets.count = std::max(
      1, static_cast<int>(static_cast<double>(ases) * 15300.0 /
                              static_cast<double>(topo::kPaperScaleAses) +
                          0.5));
  return p;
}

WorldParams WorldParams::test_scale(std::uint64_t seed) {
  WorldParams p;
  p.seed = seed;
  p.internet.required_tier1_pops = table1_required_pops();
  p.internet.regional_transit_count = 18;
  p.internet.access_transit_count = 24;
  p.internet.stub_count = 220;
  p.internet.extra_pops_per_tier1_min = 2;
  p.internet.extra_pops_per_tier1_max = 4;
  p.targets.count = 900;
  p.peer_scale = 0.3;
  return p;
}

std::unique_ptr<World> World::create(WorldParams params) {
  return std::unique_ptr<World>(new World(std::move(params)));
}

World::World(WorldParams params) : params_(std::move(params)) {
  Rng master{params_.seed};
  params_.internet.seed = master.fork("internet")();
  params_.targets.seed = master.fork("targets")();
  params_.sim.seed = master.fork("simulator")();

  // One span per build stage, so `--metrics` shows where setup time goes.
  const bool telem = telemetry::enabled();
  {
    const telemetry::ScopedTimer span(
        "world.topology", "world",
        telem ? WorldMetrics::get().topology_ms : nullptr);
    net_ = topo::build_internet(params_.internet);
  }
  {
    const telemetry::ScopedTimer span(
        "world.deployment", "world",
        telem ? WorldMetrics::get().deployment_ms : nullptr);
    std::vector<SiteSpec> sites = params_.sites;
    if (params_.peer_scale != 1.0) {
      for (SiteSpec& s : sites) {
        s.peer_count = static_cast<int>(std::lround(
            params_.peer_scale * static_cast<double>(s.peer_count)));
      }
    }
    deployment_ = Deployment::realize(net_, sites, master.fork("deployment"));
  }
  {
    const telemetry::ScopedTimer span(
        "world.targets", "world",
        telem ? WorldMetrics::get().targets_ms : nullptr);
    targets_ = TargetPopulation::generate(net_, params_.targets);
  }
  const telemetry::ScopedTimer span(
      "world.simulator", "world",
      telem ? WorldMetrics::get().simulator_ms : nullptr);
  sim_ = std::make_unique<bgp::Simulator>(net_, deployment_.attachments(),
                                          params_.sim);
}

}  // namespace anyopt::anycast
