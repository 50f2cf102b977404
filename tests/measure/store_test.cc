#include "measure/store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "anycast/world.h"
#include "core/anyopt.h"
#include "core/discovery.h"
#include "core/peers.h"
#include "core/rtt_matrix.h"
#include "core/store_io.h"
#include "measure/campaign_runner.h"
#include "measure/provenance.h"
#include "netbase/fault.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"
#include "topo/serialize.h"

#include <unistd.h>

#ifdef ANYOPT_STORE_CLI
#include <cstdlib>
#include <sys/wait.h>
#endif

namespace anyopt::measure {
namespace {

// ---------------------------------------------------------------- fixtures

const anycast::World& world() {
  static auto w = anycast::World::create(anycast::WorldParams::test_scale(71));
  return *w;
}

std::uint64_t world_fingerprint() {
  static const std::uint64_t fp =
      topo::topology_fingerprint(world().internet());
  return fp;
}

const Orchestrator& orchestrator() {
  static const Orchestrator orch(world());
  return orch;
}

/// Self-cleaning store path under the test temp dir.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + "anyopt_store_test_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t store_hits() {
  return telemetry::Registry::global().counter_value("store.hits");
}

/// A deterministic synthetic census: mixed reachable/unreachable targets.
Census make_census(std::uint64_t seed, std::size_t targets) {
  Rng rng(seed);
  Census c;
  c.site_of_target.reserve(targets);
  c.attachment_of_target.reserve(targets);
  c.rtt_ms.reserve(targets);
  for (std::size_t t = 0; t < targets; ++t) {
    if (rng.below(8) == 0) {  // unreachable target
      c.site_of_target.push_back(SiteId{});
      c.attachment_of_target.push_back(bgp::kNoAttachment);
      c.rtt_ms.push_back(-1.0);
    } else {
      c.site_of_target.push_back(
          SiteId{static_cast<SiteId::underlying_type>(rng.below(6))});
      c.attachment_of_target.push_back(
          static_cast<bgp::AttachmentIndex>(rng.below(4)));
      c.rtt_ms.push_back(
          static_cast<double>(rng.uniform_int(1000, 300000)) / 1000.0);
    }
  }
  return c;
}

/// find_census that degrades to an empty census (and a test failure)
/// instead of UB when the key is missing.
Census fetch(const ResultStore& store, std::uint64_t key) {
  const auto found = store.find_census(key);
  EXPECT_TRUE(found.has_value()) << "store miss for key " << key;
  return found.value_or(Census{});
}

void expect_census_eq(const Census& a, const Census& b,
                      const std::string& what) {
  EXPECT_EQ(a.site_of_target, b.site_of_target) << what;
  EXPECT_EQ(a.attachment_of_target, b.attachment_of_target) << what;
  EXPECT_EQ(a.rtt_ms, b.rtt_ms) << what;  // exact double equality intended
}

void expect_tables_eq(const core::PairwiseTable& a,
                      const core::PairwiseTable& b, const std::string& what) {
  EXPECT_EQ(a.item_count, b.item_count) << what;
  EXPECT_EQ(a.target_count, b.target_count) << what;
  EXPECT_EQ(a.outcome, b.outcome) << what;
}

void expect_discovery_eq(const core::DiscoveryResult& a,
                         const core::DiscoveryResult& b,
                         const std::string& what) {
  expect_tables_eq(a.provider_prefs, b.provider_prefs, what + " providers");
  ASSERT_EQ(a.site_prefs.size(), b.site_prefs.size()) << what;
  for (std::size_t p = 0; p < a.site_prefs.size(); ++p) {
    expect_tables_eq(a.site_prefs[p], b.site_prefs[p],
                     what + " provider " + std::to_string(p));
  }
  EXPECT_EQ(a.provider_sites, b.provider_sites) << what;
}

// ----------------------------------------------------------- round trips

TEST(ResultStore, CensusRoundTripAcrossReopen) {
  TempFile f("roundtrip");
  const Census a = make_census(1, 60);
  const Census b = make_census(2, 60);
  Census empty;  // a lost round: zero targets measured
  empty.site_of_target.assign(60, SiteId{});
  empty.attachment_of_target.assign(60, bgp::kNoAttachment);
  empty.rtt_ms.assign(60, -1.0);
  {
    auto store = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(store.ok()) << store.error().message;
    ASSERT_TRUE(store.value()->put_census(10, a).ok());
    ASSERT_TRUE(store.value()->put_census(20, b).ok());
    ASSERT_TRUE(store.value()->put_census(30, empty).ok());
    // Same-session lookups come from the in-memory mirror.
    const auto found = store.value()->find_census(20);
    ASSERT_TRUE(found.has_value());
    expect_census_eq(*found, b, "same session");
  }
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok()) << store.error().message;
  EXPECT_EQ(store.value()->size(), 3u);
  EXPECT_EQ(store.value()->recovered_tail_bytes(), 0u);
  const auto ra = store.value()->find_census(10);
  const auto rb = store.value()->find_census(20);
  const auto re = store.value()->find_census(30);
  ASSERT_TRUE(ra.has_value() && rb.has_value() && re.has_value());
  expect_census_eq(*ra, a, "census a");
  expect_census_eq(*rb, b, "census b");
  expect_census_eq(*re, empty, "empty census");
  EXPECT_FALSE(store.value()->find_census(99).has_value());
}

TEST(ResultStore, RttRowAndOpaquePayloadRoundTrip) {
  TempFile f("rows");
  const std::vector<double> row = {1.5, -1.0, 203.25, 0.125};
  codec::Writer body;
  body.put_varint(42);
  body.put_string("opaque table bytes");
  {
    auto store = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->put_rtt_row(7, row).ok());
    ASSERT_TRUE(store.value()->put_payload(RecordKind::kTable, 8, body).ok());
  }
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  const auto got_row = store.value()->find_rtt_row(7);
  ASSERT_TRUE(got_row.has_value());
  EXPECT_EQ(*got_row, row);
  const auto got_body = store.value()->find_payload(RecordKind::kTable, 8);
  ASSERT_TRUE(got_body.has_value());
  EXPECT_EQ(*got_body, std::vector<std::uint8_t>(body.bytes().begin(),
                                                 body.bytes().end()));
  // Keys are per-kind: the rtt-row key does not alias the table key.
  EXPECT_FALSE(store.value()->find_payload(RecordKind::kTable, 7).has_value());
  EXPECT_FALSE(store.value()->find_rtt_row(8).has_value());
}

TEST(ResultStore, RePutSupersedesAndLatestWins) {
  TempFile f("supersede");
  const Census first = make_census(3, 40);
  const Census second = make_census(4, 40);
  {
    auto store = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->put_census(5, first).ok());
    ASSERT_TRUE(store.value()->put_census(5, second).ok());
    EXPECT_EQ(store.value()->size(), 1u);          // one live key
    EXPECT_EQ(store.value()->records().size(), 2u);  // both in the log
  }
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  const auto found = store.value()->find_census(5);
  ASSERT_TRUE(found.has_value());
  expect_census_eq(*found, second, "latest record wins");
}

TEST(ResultStore, DeltaEncodingShrinksSimilarCensuses) {
  TempFile f("delta");
  const std::size_t targets = 200;
  const Census base = make_census(10, targets);
  Census similar = base;  // catchments barely move between experiments
  similar.site_of_target[3] = SiteId{5};
  similar.site_of_target[90] = SiteId{0};
  for (double& rtt : similar.rtt_ms) {
    if (rtt >= 0) rtt += 0.001;  // probe noise always differs
  }
  Census reshuffled = base;  // every catchment changed: delta cannot pay
  for (auto& site : reshuffled.site_of_target) {
    site = SiteId{static_cast<SiteId::underlying_type>(
        site.valid() ? site.value() + 1 : 2)};
  }
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->put_census(1, base).ok());
  ASSERT_TRUE(store.value()->put_census(2, similar).ok());
  ASSERT_TRUE(store.value()->put_census(3, reshuffled).ok());
  const auto records = store.value()->records();
  ASSERT_EQ(records.size(), 3u);
  // The similar census persists only its two catchment changes (plus its
  // RTTs); the base and the fully reshuffled census pay full price.
  EXPECT_LT(records[1].payload_bytes, records[0].payload_bytes - targets / 2);
  EXPECT_GT(records[2].payload_bytes, records[1].payload_bytes);
  // Compression never costs fidelity — all three decode bit-exactly,
  // including after a reopen (which re-derives the delta base from the log).
  store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  expect_census_eq(fetch(*store.value(), 1), base, "base");
  expect_census_eq(fetch(*store.value(), 2), similar, "delta");
  expect_census_eq(fetch(*store.value(), 3), reshuffled, "full");
}

// ------------------------------------------------------ corruption safety

TEST(ResultStore, FingerprintMismatchIsAnError) {
  TempFile f("fingerprint");
  {
    auto store = ResultStore::open(f.path, 0x1111);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->put_census(1, make_census(1, 10)).ok());
  }
  const auto wrong = ResultStore::open(f.path, 0x2222);
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.error().message.find("fingerprint"), std::string::npos)
      << wrong.error().message;
  // The CLI's open mode adopts whatever the header says.
  const auto adopted = ResultStore::open_existing(f.path);
  ASSERT_TRUE(adopted.ok()) << adopted.error().message;
  EXPECT_EQ(adopted.value()->fingerprint(), 0x1111u);
}

TEST(ResultStore, TornTailIsRecoveredKeepingCompleteRecords) {
  TempFile f("torn");
  std::vector<std::size_t> offsets;
  {
    auto store = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    for (std::uint64_t k = 1; k <= 3; ++k) {
      ASSERT_TRUE(store.value()->put_census(k, make_census(k, 30)).ok());
    }
    for (const RecordInfo& info : store.value()->records()) {
      offsets.push_back(info.offset);
    }
  }
  // Crash mid-append: cut into the third record's frame.
  std::filesystem::resize_file(f.path, offsets[2] + 3);
  // verify reports the damage rather than repairing it...
  const auto report = ResultStore::verify_file(f.path);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_FALSE(report.value().clean());
  EXPECT_EQ(report.value().records, 2u);
  EXPECT_EQ(report.value().torn_tail_bytes, 3u);
  // ...while open truncates the torn tail and keeps every complete record.
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok()) << store.error().message;
  EXPECT_EQ(store.value()->recovered_tail_bytes(), 3u);
  EXPECT_EQ(store.value()->size(), 2u);
  expect_census_eq(fetch(*store.value(), 1), make_census(1, 30),
                   "survivor 1");
  expect_census_eq(fetch(*store.value(), 2), make_census(2, 30),
                   "survivor 2");
  EXPECT_FALSE(store.value()->find_census(3).has_value());
  // Recovery rewrote the file on a record boundary: appending still works
  // and the file now verifies clean.
  ASSERT_TRUE(store.value()->put_census(4, make_census(4, 30)).ok());
  const auto after = ResultStore::verify_file(f.path);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().clean());
  EXPECT_EQ(after.value().records, 3u);
}

TEST(ResultStore, MidFileCorruptionFailsOpenWithDiagnostics) {
  TempFile f("midfile");
  std::vector<std::size_t> offsets;
  {
    auto store = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    for (std::uint64_t k = 1; k <= 3; ++k) {
      ASSERT_TRUE(store.value()->put_census(k, make_census(k, 30)).ok());
    }
    for (const RecordInfo& info : store.value()->records()) {
      offsets.push_back(info.offset);
    }
  }
  auto bytes = read_file(f.path);
  bytes[offsets[1] + 8] ^= 0x40;  // flip a bit inside the second record
  write_file(f.path, bytes);
  // A bad CRC before the tail is corruption, not a torn append — open must
  // refuse rather than silently drop trailing records.
  const auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.error().message.find("CRC"), std::string::npos)
      << store.error().message;
  const auto report = ResultStore::verify_file(f.path);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().clean());
  EXPECT_GE(report.value().bad_crc, 1u);
}

TEST(ResultStore, BitFlipFuzzNeverServesWrongData) {
  TempFile f("fuzz");
  const Census a = make_census(21, 25);
  const Census b = make_census(22, 25);
  const std::vector<double> row = {5.0, -1.0, 17.5};
  {
    auto store = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->put_census(1, a).ok());
    ASSERT_TRUE(store.value()->put_census(2, b).ok());
    ASSERT_TRUE(store.value()->put_rtt_row(3, row).ok());
  }
  const auto pristine = read_file(f.path);
  ASSERT_FALSE(pristine.empty());
  TempFile damaged("fuzz_damaged");
  std::size_t opens_survived = 0;
  for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
    for (std::size_t i = 0; i < pristine.size(); ++i) {
      auto bytes = pristine;
      bytes[i] ^= mask;
      write_file(damaged.path, bytes);
      // Every single-bit flip is detected: the file never verifies clean.
      const auto report = ResultStore::verify_file(damaged.path);
      if (report.ok()) {
        EXPECT_FALSE(report.value().clean())
            << "flip of byte " << i << " mask " << int(mask)
            << " went undetected";
      }
      // And if open still succeeds (a flip in the tail record reads as a
      // torn append and is truncated away), whatever it serves is exactly
      // what was written — detected loss, never wrong data.
      const auto store = ResultStore::open(damaged.path, world_fingerprint());
      if (!store.ok()) continue;
      ++opens_survived;
      const auto ra = store.value()->find_census(1);
      const auto rb = store.value()->find_census(2);
      const auto rr = store.value()->find_rtt_row(3);
      if (ra.has_value()) expect_census_eq(*ra, a, "fuzz census 1");
      if (rb.has_value()) expect_census_eq(*rb, b, "fuzz census 2");
      if (rr.has_value()) EXPECT_EQ(*rr, row);
    }
  }
  // Sanity: the loop exercised both failing and surviving opens.
  EXPECT_GT(opens_survived, 0u);
  EXPECT_LT(opens_survived, 2 * pristine.size());
}

#ifdef ANYOPT_STORE_CLI
int run_cli(const std::string& args) {
  const std::string command = std::string(ANYOPT_STORE_CLI) + " " + args +
                              " > /dev/null 2> /dev/null";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ResultStore, CliVerifyExitsNonzeroOnDamage) {
  TempFile f("cli");
  {
    auto store = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->put_census(1, make_census(1, 20)).ok());
    ASSERT_TRUE(store.value()->put_census(2, make_census(2, 20)).ok());
  }
  EXPECT_EQ(run_cli("verify " + f.path), 0);
  EXPECT_EQ(run_cli("inspect " + f.path), 0);
  auto bytes = read_file(f.path);
  bytes[bytes.size() / 2] ^= 0x20;
  write_file(f.path, bytes);
  EXPECT_EQ(run_cli("verify " + f.path), 1);
}
#endif  // ANYOPT_STORE_CLI

// ------------------------------------------------- campaign integration

std::vector<ExperimentSpec> sample_specs() {
  std::vector<ExperimentSpec> specs;
  const std::size_t sites = world().deployment().site_count();
  for (std::size_t a = 0; a + 1 < sites && specs.size() < 8; ++a) {
    ExperimentSpec spec;
    spec.config.announce_order = {
        SiteId{static_cast<SiteId::underlying_type>(a)},
        SiteId{static_cast<SiteId::underlying_type>(a + 1)}};
    spec.config.spacing_s = (a % 2 == 0) ? 360.0 : 0.0;
    spec.nonce = mix64(0x57EED, a);
    spec.ordinal = specs.size();
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ResultStoreCampaign, WarmRunReplaysEveryExperiment) {
  telemetry::set_enabled(true);
  TempFile f("warm");
  const auto specs = sample_specs();
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  const CampaignRunner cold(orchestrator(),
                            {.threads = 1, .store = store.value().get()});
  const std::vector<Census> reference = cold.run(specs);
  EXPECT_EQ(store.value()->size(), specs.size());

  store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  const std::uint64_t hits_before = store_hits();
  const CampaignRunner warm(orchestrator(),
                            {.threads = 1, .store = store.value().get()});
  const std::vector<Census> replayed = warm.run(specs);
  EXPECT_EQ(store_hits() - hits_before, specs.size());
  ASSERT_EQ(replayed.size(), reference.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    expect_census_eq(replayed[i], reference[i],
                     "spec " + std::to_string(i));
  }
}

TEST(ResultStoreCampaign, RetriesBypassTheStoreLookup) {
  telemetry::set_enabled(true);
  TempFile f("retries");
  auto specs = sample_specs();
  specs.resize(2);
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  const CampaignRunner runner(orchestrator(),
                              {.threads = 1, .store = store.value().get()});
  (void)runner.run(specs);
  // A requeued experiment must re-run — replaying the very census that
  // failed would defeat the retry.  attempt > 0 skips the lookup.
  for (auto& spec : specs) spec.attempt = 1;
  const std::uint64_t hits_before = store_hits();
  (void)runner.run(specs);
  EXPECT_EQ(store_hits() - hits_before, 0u);
}

// --------------------------------------------- checkpoint/resume contract

core::DiscoveryOptions discovery_options(ResultStore* store,
                                         std::size_t threads = 1) {
  core::DiscoveryOptions options;
  options.threads = threads;
  options.store = store;
  return options;
}

TEST(ResultStoreCheckpoint, ResumeAfterKillIsBitIdentical) {
  telemetry::set_enabled(true);
  const core::DiscoveryResult reference =
      core::Discovery(orchestrator(), discovery_options(nullptr)).run();

  // Uninterrupted campaign into a store — results must be unchanged.
  TempFile full("ckpt_full");
  std::vector<RecordInfo> log;
  {
    auto store = ResultStore::open(full.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    const core::DiscoveryResult with_store =
        core::Discovery(orchestrator(),
                        discovery_options(store.value().get()))
            .run();
    expect_discovery_eq(with_store, reference, "store on vs off");
    log = store.value()->records();
  }
  const std::size_t n = log.size();
  ASSERT_GT(n, 4u);
  {  // every experiment has a distinct content-derived key
    std::set<std::uint64_t> keys;
    for (const RecordInfo& info : log) keys.insert(info.key);
    ASSERT_EQ(keys.size(), n);
  }

  // Kill the campaign after K persisted experiments (clean cut and torn
  // cut), reopen, re-run: K replays, n-K re-run, tables bit-identical.
  struct Cut {
    std::size_t keep;
    std::size_t extra_bytes;  // partial frame left by the "crash"
    std::size_t threads;
  };
  const Cut cuts[] = {
      {0, 0, 1},          // killed before the first flush: plain cold run
      {n / 3, 0, 1},      // killed between appends
      {n / 3, 5, 1},      // killed mid-append: torn tail
      {2 * n / 3, 0, 2},  // resumed on a parallel runner
      {2 * n / 3, 0, 4},
  };
  const auto pristine = read_file(full.path);
  for (const Cut& cut : cuts) {
    const std::string what = "keep " + std::to_string(cut.keep) + "+" +
                             std::to_string(cut.extra_bytes) + " threads " +
                             std::to_string(cut.threads);
    TempFile partial("ckpt_partial");
    const std::size_t end = cut.keep < n
                                ? log[cut.keep].offset + cut.extra_bytes
                                : pristine.size();
    write_file(partial.path,
               {pristine.begin(), pristine.begin() + std::ptrdiff_t(end)});
    auto store = ResultStore::open(partial.path, world_fingerprint());
    ASSERT_TRUE(store.ok()) << what << ": " << store.error().message;
    EXPECT_EQ(store.value()->size(), cut.keep) << what;
    const std::uint64_t hits_before = store_hits();
    const core::DiscoveryResult resumed =
        core::Discovery(
            orchestrator(),
            discovery_options(store.value().get(), cut.threads))
            .run();
    EXPECT_EQ(store_hits() - hits_before, cut.keep) << what;
    expect_discovery_eq(resumed, reference, what);
    // The resumed store is complete: a further run replays everything.
    EXPECT_EQ(store.value()->size(), n) << what;
  }
}

TEST(ResultStoreCheckpoint, ResumeUnderFaultInjectionConverges) {
  telemetry::set_enabled(true);
  fault::FaultPlan plan;
  plan.experiment_failure_prob = 0.25;
  const fault::FaultInjector injector{plan};
  OrchestratorOptions orch_options;
  orch_options.faults = &injector;
  const Orchestrator faulted(world(), orch_options);

  auto options = discovery_options(nullptr);
  options.retry_rounds = 3;
  const core::DiscoveryResult reference =
      core::Discovery(faulted, options).run();

  TempFile full("fault_full");
  std::vector<RecordInfo> log;
  {
    auto store = ResultStore::open(full.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    auto store_options = discovery_options(store.value().get());
    store_options.retry_rounds = 3;
    const core::DiscoveryResult with_store =
        core::Discovery(faulted, store_options).run();
    expect_discovery_eq(with_store, reference, "faulted store on vs off");
    log = store.value()->records();
  }
  // Retries re-put their key, so the log can carry superseded records;
  // cut at an arbitrary record boundary and resume.
  ASSERT_GT(log.size(), 4u);
  const auto pristine = read_file(full.path);
  for (const std::size_t keep : {log.size() / 4, log.size() / 2}) {
    TempFile partial("fault_partial");
    write_file(partial.path, {pristine.begin(),
                              pristine.begin() +
                                  std::ptrdiff_t(log[keep].offset)});
    auto store = ResultStore::open(partial.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    auto resume_options = discovery_options(store.value().get());
    resume_options.retry_rounds = 3;
    const core::DiscoveryResult resumed =
        core::Discovery(faulted, resume_options).run();
    expect_discovery_eq(resumed, reference,
                        "faulted resume at " + std::to_string(keep));
  }
}

TEST(ResultStoreCheckpoint, RttMatrixWarmStartIsBitIdentical) {
  telemetry::set_enabled(true);
  TempFile f("rtt_matrix");
  const core::RttMatrix reference = core::RttMatrix::measure(orchestrator());
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  const core::RttMatrix cold =
      core::RttMatrix::measure(orchestrator(), 0x5111, store.value().get());
  EXPECT_EQ(store.value()->size(), reference.site_count());
  const std::uint64_t hits_before = store_hits();
  const core::RttMatrix warm =
      core::RttMatrix::measure(orchestrator(), 0x5111, store.value().get());
  EXPECT_EQ(store_hits() - hits_before, reference.site_count());
  ASSERT_EQ(cold.site_count(), reference.site_count());
  ASSERT_EQ(warm.site_count(), reference.site_count());
  for (std::size_t s = 0; s < reference.site_count(); ++s) {
    for (std::size_t t = 0; t < reference.target_count(); ++t) {
      const SiteId site{static_cast<SiteId::underlying_type>(s)};
      const TargetId target{static_cast<TargetId::underlying_type>(t)};
      ASSERT_EQ(cold.rtt(site, target), reference.rtt(site, target));
      ASSERT_EQ(warm.rtt(site, target), reference.rtt(site, target));
    }
  }
}

TEST(ResultStoreCheckpoint, PipelineWarmStartPredictsIdentically) {
  telemetry::set_enabled(true);
  TempFile f("pipeline");
  const auto config = anycast::AnycastConfig::all_sites(world().deployment());
  double cold_mean = 0;
  {
    auto store = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    core::PipelineOptions options;
    options.store = store.value().get();
    core::AnyOptPipeline pipeline(orchestrator(), options);
    pipeline.discover();
    pipeline.measure_rtts();
    cold_mean = pipeline.predict(config).mean_rtt();
  }
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  const std::uint64_t hits_before = store_hits();
  core::PipelineOptions options;
  options.store = store.value().get();
  core::AnyOptPipeline pipeline(orchestrator(), options);
  pipeline.discover();
  pipeline.measure_rtts();
  EXPECT_EQ(pipeline.predict(config).mean_rtt(), cold_mean);
  EXPECT_GT(store_hits() - hits_before, 0u);
}

// -------------------------------------------------- overlay batches
//
// Overlay censuses follow the same store policy as classic ones: replay
// what is persisted, flush what is measured, never serve a retry.

std::uint64_t sim_events() {
  return telemetry::Registry::global().counter_value("bgp.sim.events");
}

/// The flight-log lines recorded while `fn` runs.  ctest runs each test
/// of this binary as its own process, so the log path is per-process.
template <class F>
std::vector<std::string> provenance_lines(F&& fn) {
  const std::string path = ::testing::TempDir() + "anyopt_store_test_log_" +
                           std::to_string(getpid()) + ".jsonl";
  EXPECT_TRUE(provenance::FlightLog::global().open(path));
  fn();
  provenance::FlightLog::global().close();
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  std::remove(path.c_str());
  return lines;
}

bool is_store_hit(const std::string& line) {
  return line.find("\"path\":\"store-hit\"") != std::string::npos;
}

/// The single-site base every overlay spec below forks: site 0 announced.
const bgp::BaseState& site0_base() {
  static const bgp::BaseState base = [] {
    anycast::AnycastConfig config;
    config.announce_order = {SiteId{0}};
    return orchestrator().converge_base(config, 0xBA5E0);
  }();
  return base;
}

/// Overlay pairs (site 0, site s) over `site0_base()`: leg 0 announces s
/// one spacing after the base, leg 1 re-ages site 0's session.
std::vector<OverlayPairSpec> site0_pair_specs() {
  const auto& depl = world().deployment();
  std::vector<OverlayPairSpec> specs;
  for (SiteId::underlying_type s = 1; s <= 3; ++s) {
    OverlayPairSpec spec;
    spec.base = &site0_base();
    spec.config0.announce_order = {SiteId{0}, SiteId{s}};
    spec.config1.announce_order = {SiteId{s}, SiteId{0}};
    spec.delta = {bgp::Injection{spec.config0.spacing_s,
                                 depl.transit_attachment(SiteId{s}), false}};
    spec.reage = {depl.transit_attachment(SiteId{0})};
    spec.nonce0 = mix64(0x9A125, s);
    spec.nonce1 = mix64(0x9A126, s);
    spec.ordinal0 = 2 * specs.size();
    spec.ordinal1 = 2 * specs.size() + 1;
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ResultStoreOverlay, IncrementalDiscoveryRunTwiceReplaysFromStore) {
  telemetry::set_enabled(true);
  TempFile f("incremental_discovery");
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  auto options = discovery_options(store.value().get());
  options.incremental = true;
  const core::Discovery discovery(orchestrator(), options);
  const core::DiscoveryResult cold = discovery.run();
  ASSERT_GT(cold.experiments, 0u);

  // The bases are cached on the Discovery, so a fully persisted second
  // run simulates nothing at all.
  const std::uint64_t events_before = sim_events();
  core::DiscoveryResult warm;
  const std::vector<std::string> lines =
      provenance_lines([&] { warm = discovery.run(); });
  EXPECT_EQ(sim_events() - events_before, 0u);
  EXPECT_EQ(warm.experiments, cold.experiments);
  expect_discovery_eq(warm, cold, "warm vs cold");
  EXPECT_EQ(lines.size(), cold.experiments);
  for (const std::string& line : lines) {
    EXPECT_TRUE(is_store_hit(line)) << line;
  }
}

TEST(ResultStoreOverlay, PairWithOnlyLegZeroPersistedReSimulates) {
  telemetry::set_enabled(true);
  const std::vector<OverlayPairSpec> specs = site0_pair_specs();
  const CampaignRunner plain(orchestrator(), {.threads = 1});
  const std::vector<Census> reference = plain.run_overlay_pairs(specs);

  TempFile f("pair_leg0");
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    ASSERT_TRUE(store.value()
                    ->put_census(ResultStore::census_key(specs[k].config0,
                                                         specs[k].nonce0),
                                 reference[2 * k])
                    .ok());
  }
  // A pair simulates as a unit (leg 1 resumes leg 0), so one missing leg
  // re-runs the whole pair and both censuses come back unchanged.
  const CampaignRunner runner(orchestrator(),
                              {.threads = 1, .store = store.value().get()});
  const std::uint64_t events_before = sim_events();
  std::vector<Census> got;
  const std::vector<std::string> lines =
      provenance_lines([&] { got = runner.run_overlay_pairs(specs); });
  EXPECT_GT(sim_events() - events_before, 0u);
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_census_eq(got[i], reference[i], "census " + std::to_string(i));
  }
  EXPECT_EQ(lines.size(), 2 * specs.size());
  for (const std::string& line : lines) {
    EXPECT_FALSE(is_store_hit(line)) << line;
  }
  EXPECT_EQ(store.value()->size(), 2 * specs.size());
}

TEST(ResultStoreOverlay, RetriedOverlaySpecsBypassTheStoreLookup) {
  telemetry::set_enabled(true);
  const auto& depl = world().deployment();
  std::vector<ExperimentSpec> singles;
  for (SiteId::underlying_type s = 1; s <= 2; ++s) {
    ExperimentSpec spec;
    spec.base = &site0_base();
    spec.config.announce_order = {SiteId{0}, SiteId{s}};
    spec.delta = {bgp::Injection{spec.config.spacing_s,
                                 depl.transit_attachment(SiteId{s}), false}};
    spec.nonce = mix64(0x9A127, s);
    spec.ordinal = singles.size();
    singles.push_back(std::move(spec));
  }
  std::vector<OverlayPairSpec> pairs = site0_pair_specs();

  TempFile f("overlay_retries");
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  const CampaignRunner runner(orchestrator(),
                              {.threads = 1, .store = store.value().get()});
  (void)runner.run(singles);
  (void)runner.run_overlay_pairs(pairs);
  EXPECT_EQ(store.value()->size(), singles.size() + 2 * pairs.size());

  // Every census is persisted now, yet a retry must re-run: replaying the
  // very census that failed would defeat it.
  for (ExperimentSpec& spec : singles) spec.attempt = 1;
  for (OverlayPairSpec& spec : pairs) spec.attempt = 1;
  const std::uint64_t hits_before = store_hits();
  const std::uint64_t events_before = sim_events();
  (void)runner.run(singles);
  (void)runner.run_overlay_pairs(pairs);
  EXPECT_EQ(store_hits() - hits_before, 0u);
  EXPECT_GT(sim_events() - events_before, 0u);
}

TEST(ResultStoreOverlay, IncrementalOnePassReplaysFromStore) {
  telemetry::set_enabled(true);
  TempFile f("incremental_onepass");
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  core::OnePassOptions options;
  options.incremental = true;
  options.store = store.value().get();
  const core::OnePassPeerSelector selector(orchestrator(), options);
  anycast::AnycastConfig baseline;
  baseline.announce_order = {SiteId{0}, SiteId{1}};
  const core::OnePassResult cold = selector.run(baseline);
  ASSERT_GT(cold.experiments, 0u);

  const std::uint64_t hits_before = store_hits();
  core::OnePassResult warm;
  const std::vector<std::string> lines =
      provenance_lines([&] { warm = selector.run(baseline); });
  // The baseline census plus one per peer, all replayed.
  EXPECT_EQ(store_hits() - hits_before, cold.experiments + 1);
  EXPECT_EQ(lines.size(), cold.experiments + 1);
  for (const std::string& line : lines) {
    EXPECT_TRUE(is_store_hit(line)) << line;
  }
  EXPECT_EQ(warm.baseline_mean_rtt, cold.baseline_mean_rtt);
  EXPECT_EQ(warm.predicted_mean_rtt, cold.predicted_mean_rtt);
  EXPECT_EQ(warm.chosen, cold.chosen);
  ASSERT_EQ(warm.peers.size(), cold.peers.size());
  for (std::size_t k = 0; k < warm.peers.size(); ++k) {
    EXPECT_EQ(warm.peers[k].mean_rtt_ms, cold.peers[k].mean_rtt_ms);
    EXPECT_EQ(warm.peers[k].catchment_size, cold.peers[k].catchment_size);
  }
}

// ------------------------------------------------------- store_io glue

TEST(StoreIo, PairwiseTableRoundTrip) {
  TempFile f("table_io");
  Rng rng(0x7AB1E);
  core::PairwiseTable table;
  table.init(5, 37);
  for (auto& pair : table.outcome) {
    for (auto& kind : pair) {
      kind = static_cast<core::PrefKind>(rng.below(5));
    }
  }
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(core::save_table(*store.value(), 0xAB, table).ok());
  const auto loaded = core::load_table(*store.value(), 0xAB);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  expect_tables_eq(loaded.value(), table, "store_io table");
  const auto missing = core::load_table(*store.value(), 0xAC);
  ASSERT_FALSE(missing.ok());
}

TEST(StoreIo, DiscoveryResultRoundTripAcrossReopen) {
  TempFile f("discovery_io");
  const core::DiscoveryResult result =
      core::Discovery(orchestrator(), discovery_options(nullptr)).run();
  const std::uint64_t key = core::discovery_key(0xD15C0, true);
  EXPECT_NE(key, core::discovery_key(0xD15C0, false));
  {
    auto store = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(core::save_discovery(*store.value(), key, result).ok());
  }
  auto store = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(store.ok());
  const auto loaded = core::load_discovery(*store.value(), key);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  expect_discovery_eq(loaded.value(), result, "store_io discovery");
  EXPECT_EQ(loaded.value().experiments, result.experiments);
  ASSERT_FALSE(core::load_discovery(*store.value(), key + 1).ok());
}

// ------------------------------------------------------- read-only opens

TEST(ResultStore, ReadOnlyOpenReadsEverythingAndRefusesWrites) {
  TempFile f("readonly");
  const Census a = make_census(1, 40);
  {
    auto writer = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->put_census(11, a).ok());
  }
  auto reader = ResultStore::open_read_only(f.path);
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  EXPECT_TRUE(reader.value()->read_only());
  EXPECT_EQ(reader.value()->fingerprint(), world_fingerprint());
  EXPECT_EQ(reader.value()->size(), 1u);
  expect_census_eq(fetch(*reader.value(), 11), a, "read-only census");
  // Writes must fail with a state error, not crash or silently drop.
  const Status put = reader.value()->put_census(12, make_census(2, 40));
  ASSERT_FALSE(put.ok());
  EXPECT_NE(put.error().message.find("not writable"), std::string::npos)
      << put.error().message;
  EXPECT_EQ(reader.value()->size(), 1u);
}

TEST(ResultStore, ReadOnlyOpenNeverCreatesOrRepairsTheFile) {
  // Missing or empty files are errors (a read-only open never creates
  // one)...
  TempFile missing("readonly_missing");
  EXPECT_FALSE(ResultStore::open_read_only(missing.path).ok());
  std::ofstream(missing.path).close();  // now exists, zero bytes
  EXPECT_FALSE(ResultStore::open_read_only(missing.path).ok());

  // ...and a torn tail is dropped in memory only: the writer that is
  // mid-append owns the file, so the reader must leave the bytes on disk
  // exactly as found.
  TempFile f("readonly_torn");
  std::vector<std::size_t> offsets;
  {
    auto writer = ResultStore::open(f.path, world_fingerprint());
    ASSERT_TRUE(writer.ok());
    for (std::uint64_t k = 1; k <= 3; ++k) {
      ASSERT_TRUE(writer.value()->put_census(k, make_census(k, 30)).ok());
    }
    for (const RecordInfo& info : writer.value()->records()) {
      offsets.push_back(info.offset);
    }
  }
  std::filesystem::resize_file(f.path, offsets[2] + 3);
  const auto size_before = std::filesystem::file_size(f.path);
  {
    auto reader = ResultStore::open_read_only(f.path);
    ASSERT_TRUE(reader.ok()) << reader.error().message;
    EXPECT_EQ(reader.value()->recovered_tail_bytes(), 3u);
    EXPECT_EQ(reader.value()->size(), 2u);
    expect_census_eq(fetch(*reader.value(), 2), make_census(2, 30),
                     "read-only survivor");
  }
  EXPECT_EQ(std::filesystem::file_size(f.path), size_before)
      << "read-only open must not rewrite the file";
  // A writable open afterwards still recovers normally.
  auto writer = ResultStore::open(f.path, world_fingerprint());
  ASSERT_TRUE(writer.ok()) << writer.error().message;
  EXPECT_EQ(writer.value()->size(), 2u);
}

}  // namespace
}  // namespace anyopt::measure
