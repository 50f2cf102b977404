#include "serve/snapshot.h"

#include <utility>

#include "core/anyopt.h"
#include "measure/orchestrator.h"
#include "netbase/telemetry.h"
#include "topo/serialize.h"

namespace anyopt::serve {

namespace {

/// Retained-bytes estimate of the query-path data: the two-level preference
/// tables plus the RTT matrix (the optimizer's per-target rankings are
/// derived from the same tables and of the same order).
std::size_t estimate_bytes(const core::Predictor& predictor) {
  const core::DiscoveryResult& discovery = predictor.discovery();
  std::size_t bytes = discovery.provider_prefs.retained_bytes();
  for (const core::PairwiseTable& table : discovery.site_prefs) {
    bytes += table.retained_bytes();
  }
  for (const auto& sites : discovery.provider_sites) {
    bytes += sites.capacity() * sizeof(SiteId);
  }
  bytes += predictor.rtts().site_count() * predictor.rtts().target_count() *
           sizeof(double);
  return bytes;
}

}  // namespace

Result<std::shared_ptr<Snapshot>> Snapshot::build(
    const SnapshotOptions& options) {
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot());
  snapshot->options_ = options;
  snapshot->world_ = anycast::World::create(
      options.ases > 0
          ? anycast::WorldParams::at_scale(options.ases, options.seed)
      : options.test_scale ? anycast::WorldParams::test_scale(options.seed)
                           : anycast::WorldParams::paper_scale(options.seed));

  // The orchestrator, pipeline and store are build-time machinery only:
  // they die with this scope, and the snapshot keeps just the immutable
  // products (predictor tables, RTT matrix) plus the world they reference.
  measure::Orchestrator orchestrator(*snapshot->world_);
  std::unique_ptr<measure::ResultStore> store;
  if (!options.store_path.empty()) {
    const std::uint64_t fingerprint =
        topo::topology_fingerprint(snapshot->world_->internet());
    Result<std::unique_ptr<measure::ResultStore>> opened =
        options.store_read_only
            ? measure::ResultStore::open_read_only(options.store_path)
            : measure::ResultStore::open(options.store_path, fingerprint);
    if (!opened.ok()) return opened.error();
    store = std::move(opened).value();
    // A read-only open adopts the file's fingerprint; serving another
    // topology's results would be silent lies, so check it ourselves.
    if (store->fingerprint() != fingerprint) {
      return Error::state(options.store_path +
                          ": topology fingerprint mismatch (store " +
                          std::to_string(store->fingerprint()) + ", world " +
                          std::to_string(fingerprint) + ")");
    }
    snapshot->store_records_ = store->size();
  }

  core::PipelineOptions pipeline_options;
  pipeline_options.discovery.threads = options.threads;
  pipeline_options.site_pref_mode = options.site_pref_mode;
  pipeline_options.store = store.get();
  core::AnyOptPipeline pipeline(orchestrator, pipeline_options);
  const core::DiscoveryResult& discovery = pipeline.discover();
  const core::RttMatrix& rtts = pipeline.measure_rtts();
  snapshot->experiments_ = pipeline.experiments_run();
  if (store != nullptr) snapshot->store_records_ = store->size();

  snapshot->predictor_ = std::make_unique<core::Predictor>(
      snapshot->world_->deployment(), discovery, rtts,
      options.site_pref_mode);
  snapshot->optimizer_ =
      std::make_unique<core::Optimizer>(*snapshot->predictor_);

  // The all-sites baseline load (predicted catchment size per site, uniform
  // target weight) and the modeled capacity the mitigate op defends: load
  // plus 50% headroom plus a flat floor, so the quiet deployment passes the
  // Eq. 7 gate by construction and an attack's overload budget is defined.
  const std::size_t sites = snapshot->site_count();
  const core::Prediction baseline = snapshot->predictor_->predict(
      anycast::AnycastConfig::all_sites(snapshot->world_->deployment()));
  snapshot->site_load_.assign(sites, 0.0);
  for (const SiteId s : baseline.site_of_target) {
    if (s.valid()) snapshot->site_load_[s.value()] += 1.0;
  }
  snapshot->site_capacity_.resize(sites);
  snapshot->slo_ok_ = true;
  for (std::size_t s = 0; s < sites; ++s) {
    snapshot->site_capacity_[s] = snapshot->site_load_[s] * 1.5 + 8.0;
    if (snapshot->site_load_[s] > snapshot->site_capacity_[s]) {
      snapshot->slo_ok_ = false;
    }
  }

  snapshot->retained_bytes_ = estimate_bytes(*snapshot->predictor_);
  if (telemetry::enabled()) {
    telemetry::Registry::global()
        .gauge("bytes.snapshot")
        .add(static_cast<std::int64_t>(snapshot->retained_bytes_));
    snapshot->bytes_accounted_ = true;
  }
  snapshot->loaded_at_us_ = telemetry::now_us();
  return snapshot;
}

Snapshot::~Snapshot() {
  if (bytes_accounted_) {
    telemetry::Registry::global()
        .gauge("bytes.snapshot")
        .add(-static_cast<std::int64_t>(retained_bytes_));
  }
}

}  // namespace anyopt::serve
