// Amortization invariance: the census walk cache in
// `bgp::CompactState::resolve` and the SimScratch allocation reuse must not
// change a single measured bit.  The reference takes the production
// degradation rung instead of a test-only switch: its runs happen under a
// memory budget the process is always over (`--mem-budget-mb`), so every
// census freezes with no walk cache at all, and its censuses are measured
// one by one with no scratch (`measure(..., nullptr, at)`).  Censuses and
// preference tables must be byte-identical to the amortized defaults
// across every thread count, and `explain()` must agree with the census
// resolve it diagnoses.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "anycast/world.h"
#include "bgp/compact.h"
#include "core/discovery.h"
#include "measure/campaign_runner.h"
#include "measure/orchestrator.h"
#include "netbase/resmon.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"

namespace anyopt::measure {
namespace {

struct Env {
  std::unique_ptr<anycast::World> world;
  std::unique_ptr<Orchestrator> orchestrator;
};

/// Shared world (building one costs seconds) and the orchestrator every
/// test in this binary measures with.
Env& env() {
  static Env e = [] {
    Env out;
    out.world = anycast::World::create(anycast::WorldParams::test_scale(21));
    out.orchestrator = std::make_unique<Orchestrator>(*out.world);
    return out;
  }();
  return e;
}

/// Holds a 1-byte memory budget for its lifetime: the process is always
/// over it, so every census takes the degraded rung (uncached frozen walk,
/// no parked arena).  Restores the unlimited budget (0) on exit.
class OverBudget {
 public:
  OverBudget() {
    resmon::set_mem_budget_bytes(1);
    // Without this the reference could silently run the cached path.
    EXPECT_TRUE(resmon::over_mem_budget());
  }
  ~OverBudget() { resmon::set_mem_budget_bytes(0); }
  OverBudget(const OverBudget&) = delete;
  OverBudget& operator=(const OverBudget&) = delete;
};

/// Keeps telemetry state from leaking between suites in this binary.
class CacheInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override { force_off(); }
  void TearDown() override { force_off(); }
  static void force_off() {
    telemetry::set_enabled(false);
    telemetry::set_tracing(false);
    telemetry::Registry::global().reset();
  }
};

std::vector<ExperimentSpec> campaign_specs(const anycast::Deployment& depl) {
  // A pairwise-order batch shaped like a discovery campaign leg.
  std::vector<ExperimentSpec> specs;
  const std::size_t sites = depl.site_count();
  for (std::size_t k = 0; k < 12; ++k) {
    ExperimentSpec spec;
    spec.config.announce_order = {
        SiteId{static_cast<SiteId::underlying_type>(k % sites)},
        SiteId{static_cast<SiteId::underlying_type>((k + 1 + k / sites) %
                                                    sites)}};
    spec.nonce = mix64(0xCAC4E, k);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// The reference censuses: a direct loop with no scratch arena, under the
/// 1-byte budget, so nothing is cached or recycled.
std::vector<Census> reference_censuses(const std::vector<ExperimentSpec>& specs) {
  const OverBudget budget;
  std::vector<Census> out;
  for (const ExperimentSpec& spec : specs) {
    out.push_back(env().orchestrator->measure(spec.config, spec.nonce,
                                              /*scratch=*/nullptr,
                                              {spec.ordinal, spec.attempt}));
  }
  return out;
}

void expect_censuses_identical(const std::vector<Census>& a,
                               const std::vector<Census>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site_of_target, b[i].site_of_target) << "experiment " << i;
    EXPECT_EQ(a[i].attachment_of_target, b[i].attachment_of_target)
        << "experiment " << i;
    ASSERT_EQ(a[i].rtt_ms.size(), b[i].rtt_ms.size());
    for (std::size_t t = 0; t < a[i].rtt_ms.size(); ++t) {
      // operator== on doubles deliberately: bit-identical, not "close".
      ASSERT_EQ(a[i].rtt_ms[t], b[i].rtt_ms[t])
          << "experiment " << i << " target " << t;
    }
  }
}

TEST_F(CacheInvarianceTest, CensusesBitIdenticalAcrossThreadCounts) {
  const auto specs = campaign_specs(env().world->deployment());
  const std::vector<Census> want = reference_censuses(specs);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    CampaignRunnerOptions options;
    options.threads = threads;
    const CampaignRunner runner(*env().orchestrator, options);
    const std::vector<Census> got = runner.run(specs);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_censuses_identical(want, got);
  }
}

TEST_F(CacheInvarianceTest, DiscoveryTablesBitIdentical) {
  core::DiscoveryOptions options;
  options.threads = 2;
  // Same orchestrator; `uncached` runs under the budget, so none of its
  // censuses holds a walk cache or parks an arena.
  const core::Discovery cached(*env().orchestrator, options);
  const core::Discovery uncached(*env().orchestrator, options);

  const core::DiscoveryResult a = cached.run();
  const core::DiscoveryResult b = [&] {
    const OverBudget budget;
    return uncached.run();
  }();

  EXPECT_EQ(a.experiments, b.experiments);
  EXPECT_EQ(a.provider_sites, b.provider_sites);
  EXPECT_EQ(a.provider_prefs.outcome, b.provider_prefs.outcome);
  ASSERT_EQ(a.site_prefs.size(), b.site_prefs.size());
  for (std::size_t p = 0; p < a.site_prefs.size(); ++p) {
    EXPECT_EQ(a.site_prefs[p].outcome, b.site_prefs[p].outcome)
        << "provider " << p;
  }
}

TEST_F(CacheInvarianceTest, ExplainAgreesWithCompactResolve) {
  // A diagnostic must agree with what the census measured: explain() walks
  // the engine RIB, the census resolves through the frozen CompactState
  // with its walk cache warm, and both must land on the same site.
  const anycast::World& world = *env().world;
  const auto& targets = world.targets();
  anycast::AnycastConfig config;
  config.announce_order = {SiteId{0}, SiteId{1}};
  const auto schedule = config.schedule(world.deployment());
  const bgp::RoutingState state =
      world.simulator().run(schedule, mix64(0xE4, 9));
  const bgp::CompactState rib =
      bgp::CompactState::freeze(world.simulator(), state);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const anycast::Target& tgt =
        targets.target(TargetId{static_cast<TargetId::underlying_type>(t)});
    (void)rib.resolve(tgt.as, tgt.where, t);
  }
  ASSERT_GT(rib.cache_hits(), 0u);

  std::size_t reachable = 0;
  const std::size_t step = std::max<std::size_t>(1, targets.size() / 40);
  for (std::size_t t = 0; t < targets.size(); t += step) {
    const anycast::Target& tgt =
        targets.target(TargetId{static_cast<TargetId::underlying_type>(t)});
    const bgp::Explanation why = state.explain(tgt.as, tgt.where, t);
    const bgp::ResolvedPath path = rib.resolve(tgt.as, tgt.where, t);
    EXPECT_EQ(why.reachable, path.reachable) << "target " << t;
    EXPECT_EQ(why.site, path.site) << "target " << t;
    reachable += path.reachable ? 1 : 0;
  }
  EXPECT_GT(reachable, 0u);
}

TEST_F(CacheInvarianceTest, AmortizationActuallyEngages) {
  // Guard against the invariance suite passing vacuously: with telemetry
  // on, the amortized configuration must record cache hits and scratch
  // reuse, and the over-budget, arena-free reference must record neither.
  telemetry::set_enabled(true);
  auto& reg = telemetry::Registry::global();

  const auto specs = campaign_specs(env().world->deployment());
  const CampaignRunner runner(*env().orchestrator, {.threads = 1});
  (void)runner.run(specs);

  EXPECT_GT(reg.counter_value("bgp.resolve.cache_hit"), 0u);
  EXPECT_GT(reg.counter_value("sim.scratch_reuse"), 0u);
  EXPECT_GT(reg.gauge_max("bytes.resolve_cache"), 0);

  reg.reset();
  (void)reference_censuses(specs);

  EXPECT_EQ(reg.counter_value("bgp.resolve.cache_hit"), 0u);
  EXPECT_EQ(reg.counter_value("sim.scratch_reuse"), 0u);
  // Over the budget no census holds a walk cache at any point.
  EXPECT_EQ(reg.gauge_max("bytes.resolve_cache"), 0);
}

}  // namespace
}  // namespace anyopt::measure
