// Layout invariance: every census resolves against the frozen
// structure-of-arrays `bgp::CompactState`.  Censuses, discovery preference
// tables and serve-layer query responses are pinned to golden values that
// were recorded while this layout was still compared byte for byte against
// the engine's array-of-structs resolve path, so the census path cannot
// drift from that reference.  The parallel resolve pass must reproduce the
// serial one bit for bit, and a guard proves the compact path engaged.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "anycast/world.h"
#include "core/discovery.h"
#include "measure/orchestrator.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"
#include "netbase/thread_pool.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace anyopt::measure {
namespace {

struct LayoutEnv {
  std::unique_ptr<anycast::World> world;
  std::unique_ptr<Orchestrator> orchestrator;
};

/// One shared world and a default orchestrator.
LayoutEnv& env() {
  static LayoutEnv e = [] {
    LayoutEnv out;
    out.world = anycast::World::create(anycast::WorldParams::test_scale(23));
    out.orchestrator = std::make_unique<Orchestrator>(*out.world);
    return out;
  }();
  return e;
}

/// Keeps telemetry state from leaking between suites in this binary.
class LayoutInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override { force_off(); }
  void TearDown() override { force_off(); }
  static void force_off() {
    telemetry::set_enabled(false);
    telemetry::set_tracing(false);
    telemetry::Registry::global().reset();
  }
};

/// FNV-1a over raw bytes: the golden digests below pin exact bit patterns.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void census(const Census& c) {
    u64(c.site_of_target.size());
    for (const SiteId s : c.site_of_target) u64(s.value());
    for (const bgp::AttachmentIndex a : c.attachment_of_target) u64(a);
    for (const double r : c.rtt_ms) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &r, sizeof bits);
      u64(bits);
    }
  }
  void table(const core::PairwiseTable& t) {
    u64(t.outcome.size());
    for (const auto& row : t.outcome) {
      u64(row.size());
      bytes(row.data(), row.size() * sizeof(row[0]));
    }
  }
};

// Golden values on test_scale(23), recorded while both resolve layouts
// were still compared against each other.  Never re-pin them: a change
// here means a measured bit moved.
constexpr std::uint64_t kCensusesGolden = 7078436356614171925ULL;
constexpr std::uint64_t kDiscoveryGolden = 7484426303278099995ULL;
constexpr std::size_t kDiscoveryExperimentsGolden = 56;
const char* const kServeGolden[] = {
    R"({"ok":true,"snapshot":0,"op":"info","seed":23,"scale":"test","sites":15,"providers":6,"targets":900,"retained_bytes":133932,"store_records":0,"experiments":71,"site_load":[63,113,131,0,93,0,0,0,49,111,107,12,135,0,0],"site_capacity":[102.5,177.5,204.5,8,147.5,8,8,8,81.5,174.5,168.5,26,210.5,8,8],"slo_ok":true})",
    R"({"ok":true,"snapshot":0,"op":"predict","clients":900,"predicted":827,"mean_rtt_ms":119.96754991111523,"median_rtt_ms":95.596188065693653})",
    R"({"ok":true,"snapshot":0,"op":"predict","clients":3,"predicted":3,"mean_rtt_ms":168.0423343708583,"median_rtt_ms":164.70356965933476,"catchment":[2,2,0],"rtt_ms":[164.70356965933476,297.12107991525545,42.302353537984715]})",
    R"({"ok":true,"snapshot":0,"op":"score","predicted_mean_rtt_ms":181.87230591953411,"predictable_mean_rtt_ms":179.75167081958671,"fraction_ordered":0.98111111111111116})",
    R"({"ok":true,"snapshot":0,"op":"score","predicted_mean_rtt_ms":179.31489745185669,"predictable_mean_rtt_ms":176.95750896922257,"fraction_ordered":0.91888888888888887})",
};

void expect_census_identical(const Census& a, const Census& b) {
  EXPECT_EQ(a.site_of_target, b.site_of_target);
  EXPECT_EQ(a.attachment_of_target, b.attachment_of_target);
  ASSERT_EQ(a.rtt_ms.size(), b.rtt_ms.size());
  for (std::size_t t = 0; t < a.rtt_ms.size(); ++t) {
    // operator== on doubles deliberately: bit-identical, not "close".
    ASSERT_EQ(a.rtt_ms[t], b.rtt_ms[t]) << "target " << t;
  }
}

TEST_F(LayoutInvarianceTest, CensusesBitIdenticalAcrossRandomConfigs) {
  const std::size_t sites = env().world->deployment().site_count();
  Rng rng{0x50A};
  Digest digest;
  for (std::uint64_t round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    anycast::AnycastConfig config;
    const std::size_t k = 1 + rng.below(sites);
    std::vector<std::size_t> ids(sites);
    for (std::size_t s = 0; s < sites; ++s) ids[s] = s;
    rng.shuffle(ids);
    for (std::size_t s = 0; s < k; ++s) {
      config.announce_order.push_back(
          SiteId{static_cast<SiteId::underlying_type>(ids[s])});
    }
    const std::uint64_t nonce = mix64(0x1A40, round);
    digest.census(env().orchestrator->measure(config, nonce));
  }
  EXPECT_EQ(digest.h, kCensusesGolden);
}

TEST_F(LayoutInvarianceTest, DiscoveryTablesBitIdentical) {
  core::DiscoveryOptions options;
  options.threads = 2;
  const core::DiscoveryResult a =
      core::Discovery(*env().orchestrator, options).run();

  Digest digest;
  digest.table(a.provider_prefs);
  for (const core::PairwiseTable& t : a.site_prefs) digest.table(t);
  EXPECT_EQ(digest.h, kDiscoveryGolden);
  EXPECT_EQ(a.experiments, kDiscoveryExperimentsGolden);
}

TEST_F(LayoutInvarianceTest, ServeResponsesBitIdentical) {
  // A snapshot built over the census path must answer every query with
  // the pinned bytes.  `Service::execute` is the pure request core, so the
  // comparison sees no socket or threading noise.
  serve::SnapshotOptions options;
  options.test_scale = true;
  options.seed = 23;
  Result<std::shared_ptr<serve::Snapshot>> snapshot =
      serve::Snapshot::build(options);
  ASSERT_TRUE(snapshot.ok()) << snapshot.error().message;

  const std::vector<std::string> requests = {
      R"({"op":"info"})",
      R"({"op":"predict","sites":[0,1]})",
      R"({"op":"predict","sites":[2,0,1],"clients":[0,5,17],"detail":true})",
      R"({"op":"score","sites":[1,2]})",
      R"({"op":"score","sites":[0]})",
  };
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::string& line = requests[i];
    Result<serve::Request> request = serve::parse_request(line);
    ASSERT_TRUE(request.ok()) << line;
    EXPECT_EQ(serve::Service::execute(*snapshot.value(), request.value()),
              kServeGolden[i])
        << line;
  }
}

TEST_F(LayoutInvarianceTest, ParallelResolveBitIdenticalToSerial) {
  // The resolve_pool knob is a pure scheduling change: censuses AND the
  // frozen RIB's cache hit/miss tallies must be bit-identical to the
  // serial pass at any pool size.  (Chunk boundaries never split a
  // client-AS run, so the per-AS miss-then-replay pattern is preserved
  // exactly; the planes merge order-invariantly.)
  telemetry::set_enabled(true);
  auto& reg = telemetry::Registry::global();

  anycast::AnycastConfig config;
  config.announce_order = {SiteId{0}, SiteId{2}, SiteId{4}, SiteId{7}};
  const std::uint64_t nonce = 0x9A7A11E1;

  const Census serial = env().orchestrator->measure(config, nonce);
  const std::uint64_t serial_hits = reg.counter_value("bgp.resolve.cache_hit");
  const std::uint64_t serial_misses =
      reg.counter_value("bgp.resolve.cache_miss");
  EXPECT_GT(serial_hits + serial_misses, 0u);

  for (const std::size_t workers : {2u, 5u}) {
    SCOPED_TRACE("pool size " + std::to_string(workers));
    ThreadPool pool(workers);
    OrchestratorOptions options;
    options.resolve_pool = &pool;
    const Orchestrator parallel(*env().world, options);
    reg.reset();
    const Census census = parallel.measure(config, nonce);
    expect_census_identical(serial, census);
    EXPECT_EQ(reg.counter_value("bgp.resolve.cache_hit"), serial_hits);
    EXPECT_EQ(reg.counter_value("bgp.resolve.cache_miss"), serial_misses);
  }
}

TEST_F(LayoutInvarianceTest, CompactPathActuallyEngages) {
  // Guard against the suite passing vacuously: with telemetry on, a census
  // must freeze a RIB (bytes.rib high-water > 0) and stream its
  // aggregation through shards.
  telemetry::set_enabled(true);
  auto& reg = telemetry::Registry::global();

  anycast::AnycastConfig config;
  config.announce_order = {SiteId{0}, SiteId{1}};
  (void)env().orchestrator->measure(config, 0xE6A6E);
  EXPECT_GT(reg.gauge_max("bytes.rib"), 0);
  EXPECT_GT(reg.gauge_max("bytes.census_shards"), 0);
}

}  // namespace
}  // namespace anyopt::measure
