// SimScratch arenas under concurrency.  Every thread — a pool worker or a
// serial caller — owns exactly one recycled-allocation arena
// (`Orchestrator::thread_scratch`), so a pooled campaign must be
// data-race-free — this suite is labelled `tsan` and runs under
// ThreadSanitizer (-DANYOPT_SANITIZE=thread) to prove it — and must still
// produce bit-identical results to censuses measured with no arena.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "anycast/world.h"
#include "measure/campaign_runner.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"

namespace anyopt::measure {
namespace {

const anycast::World& shared_world() {
  static const std::unique_ptr<anycast::World> world =
      anycast::World::create(anycast::WorldParams::test_scale(27));
  return *world;
}

std::vector<ExperimentSpec> specs_for(const anycast::Deployment& depl,
                                      std::size_t count) {
  std::vector<ExperimentSpec> specs;
  const std::size_t sites = depl.site_count();
  for (std::size_t k = 0; k < count; ++k) {
    ExperimentSpec spec;
    spec.config.announce_order = {
        SiteId{static_cast<SiteId::underlying_type>(k % sites)},
        SiteId{static_cast<SiteId::underlying_type>((k * 3 + 1) % sites)}};
    spec.nonce = mix64(0x5C4A, k);
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ScratchConcurrency, PooledScratchReuseMatchesSerialNoReuse) {
  const Orchestrator orchestrator(shared_world());
  const auto specs = specs_for(shared_world().deployment(), 16);

  // The reference recycles nothing: every census allocates afresh.
  std::vector<Census> want;
  for (const ExperimentSpec& spec : specs) {
    want.push_back(orchestrator.measure(spec.config, spec.nonce,
                                        /*scratch=*/nullptr,
                                        {spec.ordinal, spec.attempt}));
  }

  CampaignRunnerOptions pooled_options;
  pooled_options.threads = 4;
  const CampaignRunner pooled(orchestrator, pooled_options);

  // Two batches through the same pool: the second run recycles warm
  // arenas, which is exactly the state TSan needs to observe workers
  // re-touching buffers a (different) experiment wrote earlier.
  for (int round = 0; round < 2; ++round) {
    const std::vector<Census> got = pooled.run(specs);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].site_of_target, got[i].site_of_target)
          << "round " << round << " experiment " << i;
      EXPECT_EQ(want[i].attachment_of_target, got[i].attachment_of_target)
          << "round " << round << " experiment " << i;
      ASSERT_EQ(want[i].rtt_ms.size(), got[i].rtt_ms.size());
      for (std::size_t t = 0; t < want[i].rtt_ms.size(); ++t) {
        ASSERT_EQ(want[i].rtt_ms[t], got[i].rtt_ms[t])
            << "round " << round << " experiment " << i << " target " << t;
      }
    }
  }
}

TEST(ScratchConcurrency, ConcurrentRunnersDoNotShareScratch) {
  // Two pooled runners over the same orchestrator, run back to back: each
  // pool's workers recycle only their own threads' arenas.
  const Orchestrator orchestrator(shared_world());
  const auto specs = specs_for(shared_world().deployment(), 8);

  const CampaignRunner first(orchestrator, {.threads = 2});
  const CampaignRunner second(orchestrator, {.threads = 2});
  const std::vector<Census> a = first.run(specs);
  const std::vector<Census> b = second.run(specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site_of_target, b[i].site_of_target) << "experiment " << i;
    EXPECT_EQ(a[i].rtt_ms, b[i].rtt_ms) << "experiment " << i;
  }
}

TEST(ScratchConcurrency, SerialThreadKeepsOneArenaAcrossCensusKinds) {
  // A serial thread parks ONE arena whatever it measures: an overlay batch
  // that follows a classic batch recycles the classic censuses' buffers
  // instead of allocating an arena of its own.  A fresh thread starts with
  // an empty arena, so only the classic batch can have filled it.
  const Orchestrator orchestrator(shared_world());
  const anycast::Deployment& depl = shared_world().deployment();
  const auto classic = specs_for(depl, 2);
  anycast::AnycastConfig base_config;
  base_config.announce_order = {SiteId{0}};
  const bgp::BaseState base = orchestrator.converge_base(base_config, 0xBA5E);
  ExperimentSpec overlay;
  overlay.base = &base;
  overlay.config.announce_order = {SiteId{0}, SiteId{1}};
  overlay.delta = {bgp::Injection{overlay.config.spacing_s,
                                  depl.transit_attachment(SiteId{1}), false}};
  overlay.nonce = mix64(0x0A4E, 1);

  telemetry::set_enabled(true);
  auto& reg = telemetry::Registry::global();
  std::uint64_t overlay_reuse = 0;
  std::thread fresh([&] {
    const CampaignRunner runner(orchestrator, {.threads = 1});
    (void)runner.run(classic);
    const std::uint64_t before = reg.counter_value("sim.scratch_reuse");
    (void)runner.run({&overlay, 1});
    overlay_reuse = reg.counter_value("sim.scratch_reuse") - before;
  });
  fresh.join();
  telemetry::set_enabled(false);
  telemetry::Registry::global().reset();
  EXPECT_GT(overlay_reuse, 0u);
}

}  // namespace
}  // namespace anyopt::measure
