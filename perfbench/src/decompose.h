#pragma once
// Library calls taken apart from outside: the same public calls that
// `Orchestrator::measure` and `World::create` make, each under its own span
// and timer, so a traced run sees the layers separately.  A decomposed
// census must equal the orchestrator's bit for bit.

#include <cstdint>
#include <span>
#include <vector>

#include "anycast/world.h"
#include "harness.h"
#include "measure/orchestrator.h"

namespace perfbench {

struct CensusParts {
  anyopt::measure::Census census;
  double sim_ms = 0;      ///< Simulator::run or run_overlay
  double freeze_ms = 0;   ///< CompactState::freeze
  double resolve_ms = 0;  ///< CompactState::resolve over every target
  double probe_ms = 0;    ///< Prober::measure over every reachable target
  std::size_t sim_events = 0;
  std::size_t rib_bytes = 0;
  std::size_t resolved = 0;  ///< targets resolve was called for
  std::size_t probed = 0;    ///< targets Prober::measure was called for

  [[nodiscard]] double total_ms() const {
    return sim_ms + freeze_ms + resolve_ms + probe_ms;
  }
  /// Sums the timings and counts of another census into this one
  /// (`rib_bytes` keeps the maximum); the census itself is not merged.
  void add(const CensusParts& other);
};

/// Targets grouped by client AS, the order the orchestrator resolves in.
[[nodiscard]] std::vector<std::uint32_t> resolve_order(
    const anyopt::anycast::World& world);

/// `Orchestrator::measure(config, nonce)` for an orchestrator built with
/// default options, decomposed.
[[nodiscard]] CensusParts decompose_census(
    const anyopt::measure::Orchestrator& orchestrator,
    std::span<const std::uint32_t> order,
    const anyopt::anycast::AnycastConfig& config, std::uint64_t nonce);

/// `Orchestrator::measure_overlay(base, config, delta, nonce, ...)`,
/// decomposed the same way.
[[nodiscard]] CensusParts decompose_overlay_census(
    const anyopt::measure::Orchestrator& orchestrator,
    std::span<const std::uint32_t> order, const anyopt::bgp::BaseState& base,
    std::span<const anyopt::bgp::Injection> delta, std::uint64_t nonce);

/// Builds the world's parts the way `World::create(params)` does —
/// topology (span `topo.build`), then deployment, targets and simulator
/// (span `anycast.world`) — and reports `topo.build_s` and
/// `anycast.world_s`.
void trace_world_build(const anyopt::anycast::WorldParams& params,
                       Report& report);

[[nodiscard]] bool same_census(const anyopt::measure::Census& a,
                               const anyopt::measure::Census& b);

}  // namespace perfbench
