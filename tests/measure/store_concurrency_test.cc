// Concurrent access to one ResultStore: parallel campaign workers flush
// and replay through a shared store without races (run under
// -DANYOPT_SANITIZE=thread via the `tsan` ctest label) and without
// changing a single result bit.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "anycast/world.h"
#include "core/discovery.h"
#include "core/peers.h"
#include "measure/campaign_runner.h"
#include "measure/store.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"
#include "topo/serialize.h"

namespace anyopt::measure {
namespace {

const anycast::World& world() {
  static auto w = anycast::World::create(anycast::WorldParams::test_scale(47));
  return *w;
}

std::uint64_t world_fingerprint() {
  static const std::uint64_t fp =
      topo::topology_fingerprint(world().internet());
  return fp;
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + "anyopt_store_conc_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
};

std::vector<ExperimentSpec> make_specs(std::uint64_t salt,
                                       std::size_t count) {
  std::vector<ExperimentSpec> specs;
  const std::size_t sites = world().deployment().site_count();
  for (std::size_t i = 0; i < count; ++i) {
    ExperimentSpec spec;
    spec.config.announce_order = {
        SiteId{static_cast<SiteId::underlying_type>(i % sites)},
        SiteId{static_cast<SiteId::underlying_type>((i + 1 + i / sites) %
                                                    sites)}};
    if (spec.config.announce_order[0] == spec.config.announce_order[1]) {
      spec.config.announce_order.pop_back();
    }
    spec.config.spacing_s = (i % 2 == 0) ? 360.0 : 0.0;
    spec.nonce = mix64(salt, i);
    spec.ordinal = i;
    specs.push_back(std::move(spec));
  }
  return specs;
}

void expect_batches_eq(const std::vector<Census>& a,
                       const std::vector<Census>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site_of_target, b[i].site_of_target) << "spec " << i;
    EXPECT_EQ(a[i].attachment_of_target, b[i].attachment_of_target);
    EXPECT_EQ(a[i].rtt_ms, b[i].rtt_ms);
  }
}

TEST(StoreConcurrency, ParallelWorkersShareOneStoreBitIdentically) {
  TempFile f("parallel");
  const Orchestrator orchestrator(world());
  const auto specs = make_specs(0x5703E, 16);
  const CampaignRunner serial(orchestrator, {.threads = 1});
  const std::vector<Census> reference = serial.run(specs);

  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok()) << store.error().message;
  const CampaignRunner parallel_cold(
      orchestrator, {.threads = 4, .store = store.value().get()});
  expect_batches_eq(parallel_cold.run(specs), reference);
  EXPECT_EQ(store.value()->size(), specs.size());

  // Reopen and replay on four workers: concurrent hits, no simulations.
  store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok()) << store.error().message;
  const CampaignRunner parallel_warm(
      orchestrator, {.threads = 4, .store = store.value().get()});
  expect_batches_eq(parallel_warm.run(specs), reference);
  EXPECT_EQ(store.value()->size(), specs.size());
}

TEST(StoreConcurrency, MixedHitsAndMissesStayExact) {
  // Warm half the keys, then run the full batch in parallel: workers mix
  // store replays and fresh simulations (with concurrent appends).
  TempFile f("mixed");
  const Orchestrator orchestrator(world());
  const auto specs = make_specs(0x417ED, 14);
  const CampaignRunner serial(orchestrator, {.threads = 1});
  const std::vector<Census> reference = serial.run(specs);

  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  const std::vector<ExperimentSpec> first_half(specs.begin(),
                                               specs.begin() + 7);
  const CampaignRunner warmup(orchestrator,
                              {.threads = 2, .store = store.value().get()});
  (void)warmup.run(first_half);
  EXPECT_EQ(store.value()->size(), first_half.size());

  const CampaignRunner full(orchestrator,
                            {.threads = 4, .store = store.value().get()});
  expect_batches_eq(full.run(specs), reference);
  EXPECT_EQ(store.value()->size(), specs.size());
}

TEST(StoreConcurrency, IndependentRunnersAppendConcurrently) {
  // Two campaign engines (each with its own worker pool) write disjoint
  // batches into one store from two host threads at once.
  TempFile f("two_runners");
  const Orchestrator orchestrator(world());
  const auto batch_a = make_specs(0xAAAA, 10);
  const auto batch_b = make_specs(0xBBBB, 10);
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());

  std::vector<Census> got_a;
  std::vector<Census> got_b;
  {
    const CampaignRunner runner_a(orchestrator,
                                  {.threads = 2, .store = store.value().get()});
    const CampaignRunner runner_b(orchestrator,
                                  {.threads = 2, .store = store.value().get()});
    std::thread ta([&] { got_a = runner_a.run(batch_a); });
    std::thread tb([&] { got_b = runner_b.run(batch_b); });
    ta.join();
    tb.join();
  }
  EXPECT_EQ(store.value()->size(), batch_a.size() + batch_b.size());

  const CampaignRunner serial(orchestrator, {.threads = 1});
  expect_batches_eq(got_a, serial.run(batch_a));
  expect_batches_eq(got_b, serial.run(batch_b));

  // Everything both runners flushed is replayable after a reopen.
  store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  for (const auto& specs : {batch_a, batch_b}) {
    for (const ExperimentSpec& spec : specs) {
      const std::uint64_t key =
          ResultStore::census_key(spec.config, spec.nonce);
      EXPECT_TRUE(store.value()->find_census(key).has_value());
    }
  }
}

TEST(StoreConcurrency, PooledIncrementalDiscoveryReplaysFromStore) {
  // Overlay pairs replay through a shared store on four workers: the
  // second run of one Discovery (bases cached) simulates nothing.
  TempFile f("incremental_discovery");
  const Orchestrator orchestrator(world());
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  core::DiscoveryOptions options;
  options.threads = 4;
  options.incremental = true;
  options.store = store.value().get();
  const core::Discovery discovery(orchestrator, options);
  const core::DiscoveryResult cold = discovery.run();

  telemetry::set_enabled(true);
  auto& reg = telemetry::Registry::global();
  const std::uint64_t events_before = reg.counter_value("bgp.sim.events");
  const std::uint64_t hits_before = reg.counter_value("store.hits");
  const core::DiscoveryResult warm = discovery.run();
  EXPECT_EQ(reg.counter_value("bgp.sim.events") - events_before, 0u);
  EXPECT_EQ(reg.counter_value("store.hits") - hits_before, cold.experiments);
  telemetry::set_enabled(false);
  EXPECT_EQ(warm.experiments, cold.experiments);
  EXPECT_EQ(warm.provider_prefs.outcome, cold.provider_prefs.outcome);
  ASSERT_EQ(warm.site_prefs.size(), cold.site_prefs.size());
  for (std::size_t p = 0; p < warm.site_prefs.size(); ++p) {
    EXPECT_EQ(warm.site_prefs[p].outcome, cold.site_prefs[p].outcome)
        << "provider " << p;
  }
}

TEST(StoreConcurrency, PooledIncrementalOnePassReplaysFromStore) {
  TempFile f("incremental_onepass");
  const Orchestrator orchestrator(world());
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  core::OnePassOptions options;
  options.threads = 4;
  options.incremental = true;
  options.store = store.value().get();
  const core::OnePassPeerSelector selector(orchestrator, options);
  anycast::AnycastConfig baseline;
  baseline.announce_order = {SiteId{0}, SiteId{1}};
  const core::OnePassResult cold = selector.run(baseline);

  telemetry::set_enabled(true);
  auto& reg = telemetry::Registry::global();
  const std::uint64_t hits_before = reg.counter_value("store.hits");
  const core::OnePassResult warm = selector.run(baseline);
  EXPECT_EQ(reg.counter_value("store.hits") - hits_before,
            cold.experiments + 1);
  telemetry::set_enabled(false);
  EXPECT_EQ(warm.baseline_mean_rtt, cold.baseline_mean_rtt);
  EXPECT_EQ(warm.chosen, cold.chosen);
  ASSERT_EQ(warm.peers.size(), cold.peers.size());
  for (std::size_t k = 0; k < warm.peers.size(); ++k) {
    EXPECT_EQ(warm.peers[k].mean_rtt_ms, cold.peers[k].mean_rtt_ms);
  }
}

}  // namespace
}  // namespace anyopt::measure
