// SoA RIB correctness (bgp/compact.h): the frozen structure-of-arrays
// layout must resolve bit-identically to the engine's array-of-structs
// state, round-trip through the store codec byte-exactly across randomized
// worlds and configurations, stay robust to sparse Internet-scale client
// ids, and keep the `--mem-budget-mb` cache-capacity degradation purely a
// memory knob.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anycast/config.h"
#include "anycast/world.h"
#include "bgp/compact.h"
#include "bgp/simulator.h"
#include "measure/store.h"
#include "netbase/codec.h"
#include "netbase/rng.h"
#include "topo/serialize.h"

namespace anyopt::bgp {
namespace {

/// Shared reduced world (building one costs seconds; every test reuses it).
const anycast::World& shared_world() {
  static const std::unique_ptr<anycast::World> world =
      anycast::World::create(anycast::WorldParams::test_scale(29));
  return *world;
}

/// Converges a `k`-site configuration drawn from `rng` and returns the
/// engine-layout state.
RoutingState converge(const anycast::World& world, Rng& rng,
                      std::uint64_t nonce) {
  const std::size_t sites = world.deployment().site_count();
  const std::size_t k = 1 + rng.below(sites);
  std::vector<std::size_t> ids(sites);
  for (std::size_t s = 0; s < sites; ++s) ids[s] = s;
  rng.shuffle(ids);
  anycast::AnycastConfig config;
  for (std::size_t s = 0; s < k; ++s) {
    config.announce_order.push_back(
        SiteId{static_cast<SiteId::underlying_type>(ids[s])});
  }
  return world.simulator().run(config.schedule(world.deployment()), nonce);
}

void expect_paths_equal(const ResolvedPath& want, const ResolvedPath& got,
                        std::size_t t) {
  EXPECT_EQ(want.reachable, got.reachable) << "target " << t;
  EXPECT_EQ(want.site, got.site) << "target " << t;
  EXPECT_EQ(want.attachment, got.attachment) << "target " << t;
  EXPECT_EQ(want.as_path, got.as_path) << "target " << t;
  // operator== on doubles deliberately: bit-identical, not "close".
  ASSERT_EQ(want.one_way_ms, got.one_way_ms) << "target " << t;
}

TEST(CompactRib, ResolveBitIdenticalToEngineLayout) {
  const anycast::World& world = shared_world();
  const auto& targets = world.targets();
  Rng rng{0xF2EE2E};
  for (std::uint64_t round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const RoutingState state = converge(world, rng, mix64(0x51D, round));
    const CompactState compact =
        CompactState::freeze(world.simulator(), state);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const anycast::Target& tgt =
          targets.target(TargetId{static_cast<TargetId::underlying_type>(t)});
      const ResolvedPath want = state.resolve(tgt.as, tgt.where, t);
      const ResolvedPath got = compact.resolve(tgt.as, tgt.where, t);
      expect_paths_equal(want, got, t);
    }
    // Both layouts memoize per client AS; a second pass replays from each
    // cache and must still agree (the replay path, not just the walk).
    for (std::size_t t = 0; t < targets.size(); t += 7) {
      const anycast::Target& tgt =
          targets.target(TargetId{static_cast<TargetId::underlying_type>(t)});
      expect_paths_equal(state.resolve(tgt.as, tgt.where, t),
                         compact.resolve(tgt.as, tgt.where, t), t);
    }
    EXPECT_GT(compact.cache_hits() + compact.cache_misses(), 0u);
  }
}

TEST(CompactRib, CodecRoundTripIsBitExactAcrossRandomizedRuns) {
  const anycast::World& world = shared_world();
  Rng rng{0xC0DEC};
  for (std::uint64_t round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const RoutingState state = converge(world, rng, mix64(0xE17C, round));
    const CompactState frozen =
        CompactState::freeze(world.simulator(), state);

    codec::Writer encoded;
    frozen.encode(encoded);
    Result<CompactState> decoded = CompactState::decode(encoded.bytes());
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_TRUE(frozen.rib_equals(decoded.value()));
    EXPECT_EQ(frozen.as_count(), decoded.value().as_count());
    EXPECT_EQ(frozen.slot_count(), decoded.value().slot_count());
    EXPECT_EQ(frozen.unique_paths(), decoded.value().unique_paths());
    EXPECT_EQ(frozen.prefix_key(), decoded.value().prefix_key());

    // Encoding the decoded state reproduces the exact bytes: the codec is
    // a bijection over everything it persists.
    codec::Writer re_encoded;
    decoded.value().encode(re_encoded);
    ASSERT_EQ(encoded.size(), re_encoded.size());
    EXPECT_TRUE(std::equal(encoded.bytes().begin(), encoded.bytes().end(),
                           re_encoded.bytes().begin()));
  }
}

TEST(CompactRib, DecodedStateIsATableArtifact) {
  const anycast::World& world = shared_world();
  Rng rng{0xDEC0};
  const RoutingState state = converge(world, rng, 0xA11);
  const CompactState frozen = CompactState::freeze(world.simulator(), state);
  codec::Writer encoded;
  frozen.encode(encoded);
  Result<CompactState> decoded = CompactState::decode(encoded.bytes());
  ASSERT_TRUE(decoded.ok());
  // No topology binding: a decoded state compares and persists, but any
  // resolve is unreachable rather than a wild pointer chase.
  const ResolvedPath path =
      decoded.value().resolve(AsId{0}, geo::Coordinates{0, 0}, 0);
  EXPECT_FALSE(path.reachable);
}

TEST(CompactRib, DecodeRejectsTruncation) {
  const anycast::World& world = shared_world();
  Rng rng{0x7255};
  const RoutingState state = converge(world, rng, 0xB22);
  const CompactState frozen = CompactState::freeze(world.simulator(), state);
  codec::Writer encoded;
  frozen.encode(encoded);
  EXPECT_FALSE(CompactState::decode({}).ok());
  const auto bytes = encoded.bytes();
  for (const std::size_t keep :
       {std::size_t{1}, bytes.size() / 3, bytes.size() - 1}) {
    EXPECT_FALSE(CompactState::decode(bytes.subspan(0, keep)).ok())
        << "truncated to " << keep << " of " << bytes.size();
  }
}

TEST(CompactRib, StoreRoundTripsRibRecordsKeyedLikeCensuses) {
  const anycast::World& world = shared_world();
  Rng rng{0x5708E};
  const RoutingState state = converge(world, rng, 0xC33);
  const CompactState frozen = CompactState::freeze(world.simulator(), state);

  const std::string path = ::testing::TempDir() + "compact_rib_store.aopt";
  std::remove(path.c_str());
  const std::uint64_t fingerprint =
      topo::topology_fingerprint(world.internet());
  Result<std::unique_ptr<measure::ResultStore>> opened =
      measure::ResultStore::open(path, fingerprint);
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  std::unique_ptr<measure::ResultStore> store = std::move(opened).value();

  EXPECT_FALSE(store->find_rib(0x9E).has_value());
  ASSERT_TRUE(store->put_rib(0x9E, frozen).ok());
  std::optional<CompactState> loaded = store->find_rib(0x9E);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(frozen.rib_equals(*loaded));

  // The record survives a close/reopen cycle like any other store kind.
  store.reset();
  Result<std::unique_ptr<measure::ResultStore>> reopened =
      measure::ResultStore::open(path, fingerprint);
  ASSERT_TRUE(reopened.ok());
  std::optional<CompactState> warm = reopened.value()->find_rib(0x9E);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(frozen.rib_equals(*warm));
  std::remove(path.c_str());
}

TEST(CompactRib, SparseClientIdsResolveUnreachableOnBothLayouts) {
  // Regression: the per-client-AS walk caches are dense vectors indexed by
  // AsId; at 75k-scale (or with external/invalid ids) a client id beyond
  // the dense range must resolve as unreachable instead of indexing out of
  // bounds — on the engine layout AND the frozen one.
  const anycast::World& world = shared_world();
  Rng rng{0x5BA25E};
  const RoutingState state = converge(world, rng, 0xD44);
  const CompactState compact = CompactState::freeze(world.simulator(), state);
  const geo::Coordinates where{10.0, 20.0};
  for (const AsId from :
       {AsId{static_cast<AsId::underlying_type>(
            world.internet().graph.as_count())},
        AsId{1u << 20}, AsId{}}) {
    SCOPED_TRACE("client AS " + std::to_string(from.value()));
    const ResolvedPath via_engine = state.resolve(from, where, 0);
    const ResolvedPath via_compact = compact.resolve(from, where, 0);
    EXPECT_FALSE(via_engine.reachable);
    EXPECT_FALSE(via_compact.reachable);
  }
}

TEST(CompactRib, CacheCapacityIsAMemoryKnobNotACorrectnessKnob) {
  const anycast::World& world = shared_world();
  const auto& targets = world.targets();
  Rng rng{0xCA9};
  const RoutingState state = converge(world, rng, 0xE55);
  const CompactState reference =
      CompactState::freeze(world.simulator(), state);
  for (const std::size_t capacity :
       {std::size_t{0}, reference.as_count() / 2}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    const CompactState capped =
        CompactState::freeze(world.simulator(), state, capacity);
    EXPECT_LE(capped.resolve_cache_bytes(), reference.resolve_cache_bytes());
    for (std::size_t t = 0; t < targets.size(); t += 3) {
      const anycast::Target& tgt =
          targets.target(TargetId{static_cast<TargetId::underlying_type>(t)});
      expect_paths_equal(reference.resolve(tgt.as, tgt.where, t),
                         capped.resolve(tgt.as, tgt.where, t), t);
    }
    // No cache is ever allocated at capacity 0, not even lazily.
    if (capacity == 0) {
      EXPECT_EQ(capped.resolve_cache_bytes(), 0u);
    }
  }
}

TEST(CompactRib, PathInterningActuallyCompresses) {
  // Guard against the compression story passing vacuously: a converged
  // Internet shares route tails heavily, so the interned pool must hold
  // strictly fewer unique paths than there are present slots.
  const anycast::World& world = shared_world();
  Rng rng{0x1A7E2};
  const RoutingState state = converge(world, rng, 0xF66);
  const CompactState frozen = CompactState::freeze(world.simulator(), state);
  EXPECT_GT(frozen.unique_paths(), 0u);
  EXPECT_LT(frozen.unique_paths(), frozen.slot_count());
  EXPECT_GT(frozen.retained_bytes(), 0u);
}

}  // namespace
}  // namespace anyopt::bgp
