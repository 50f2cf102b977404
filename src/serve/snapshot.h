#pragma once
// Immutable what-if query snapshot: everything a prediction query needs,
// loaded once, then never mutated.
//
// A snapshot bundles the world (the predictor holds a reference into its
// deployment), a Predictor built from copies of the pipeline's discovery
// tables and RTT matrix, and an Optimizer for configuration scoring.  After
// `build` returns, every byte of it is immutable: queries run exclusively
// through const methods documented as concurrently callable
// (Predictor::predict/predict_subset, Optimizer::evaluate), so any
// number of reader threads share one snapshot with no locking at all.  The
// serve invariant — "a query never observes a partially-loaded snapshot" —
// holds because a snapshot becomes reachable (via Service::publish) only
// after `build` has fully constructed it.
//
// Warm starts: with `store_path` set, the build threads the persistent
// ResultStore through every measurement stage, so a store populated by an
// earlier run (or another process) replays each experiment instead of
// re-simulating — a daemon restart over a warm store rebuilds the exact
// same tables bit for bit.  With `store_read_only` the file is never
// written (many daemons may share one store; see measure/store.h).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anycast/world.h"
#include "core/optimizer.h"
#include "core/predictor.h"
#include "measure/store.h"
#include "netbase/result.h"

namespace anyopt::serve {

/// \brief Build parameters of one snapshot.
struct SnapshotOptions {
  std::uint64_t seed = 1897;  ///< world seed (1897 = the paper environment)
  bool test_scale = false;    ///< reduced world for tests/quick runs
  /// When nonzero, serve an `at_scale` world of approximately this many
  /// ASes (the daemon's `--ases=N` knob; exercised up to 75,000) instead
  /// of the paper/test world.  Overrides `test_scale`.
  std::size_t ases = 0;
  /// Worker threads for the build's discovery campaigns (1 = serial,
  /// 0 = hardware concurrency); tables are bit-identical at any setting.
  std::size_t threads = 1;
  /// Persistent result store: warm-start every measurement stage from it
  /// and (unless read-only) flush fresh results back.  Empty = cold build.
  std::string store_path;
  /// Never write the store file (daemons sharing one store).  Missing
  /// results are then recomputed per build and not persisted.
  bool store_read_only = false;
  /// How intra-provider site preferences are resolved (§4.3).
  core::SitePrefMode site_pref_mode = core::SitePrefMode::kExperiments;
};

/// \brief One immutable, refcounted query snapshot.
class Snapshot {
 public:
  /// \brief Builds a snapshot: world, discovery (store-warmed when
  ///        available), RTT matrix, predictor, optimizer.
  ///
  /// Feeds the `bytes.snapshot` gauge with the snapshot's retained-bytes
  /// estimate (byte-accounting idiom: added here, subtracted by the
  /// destructor, so the gauge's value is the live total across overlapping
  /// snapshots and its max the swap high-water mark).
  /// \param options build parameters; see `SnapshotOptions`.
  /// \return the snapshot, or the store/build error.
  [[nodiscard]] static Result<std::shared_ptr<Snapshot>> build(
      const SnapshotOptions& options);

  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// \brief The catchment/RTT predictor (const methods only; see
  ///        core/predictor.h for the concurrency contract).
  [[nodiscard]] const core::Predictor& predictor() const {
    return *predictor_;
  }
  /// \brief The configuration scorer (`evaluate` is pure and safe for
  ///        concurrent queries; see core/optimizer.h).
  [[nodiscard]] const core::Optimizer& optimizer() const {
    return *optimizer_;
  }
  [[nodiscard]] const anycast::Deployment& deployment() const {
    return world_->deployment();
  }
  /// \brief The immutable world the tables were measured on.  The mitigate
  ///        op builds a request-local measurement orchestrator over it
  ///        (the world itself is const and concurrently shareable).
  [[nodiscard]] const anycast::World& world() const { return *world_; }
  [[nodiscard]] std::size_t site_count() const {
    return deployment().site_count();
  }
  [[nodiscard]] std::size_t target_count() const {
    return predictor_->discovery().provider_prefs.target_count;
  }

  /// \brief Publish version (0 until `Service::publish` assigns one).
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] std::uint64_t seed() const { return options_.seed; }
  [[nodiscard]] const SnapshotOptions& options() const { return options_; }
  /// \brief `telemetry::now_us()` when the build completed (feeds the
  ///        `serve.snapshot_age_us` gauge).
  [[nodiscard]] double loaded_at_us() const { return loaded_at_us_; }
  /// \brief Retained-bytes estimate (preference tables + RTT matrix).
  [[nodiscard]] std::size_t retained_bytes() const { return retained_bytes_; }
  /// \brief Records in the backing store when the snapshot loaded (0
  ///        without a store).
  [[nodiscard]] std::size_t store_records() const { return store_records_; }
  /// \brief BGP experiments the build issued.  A warm (store-backed) build
  ///        issues the same count but answers them from the store instead
  ///        of re-simulating — `store.hits` is the replay evidence.
  [[nodiscard]] std::size_t experiments_run() const { return experiments_; }

  /// \brief Predicted per-site load of the all-sites deployment (uniform
  ///        target weight — each site's predicted catchment size).  The
  ///        `info` op reports it so operators see where demand lands.
  [[nodiscard]] const std::vector<double>& site_load() const {
    return site_load_;
  }
  /// \brief The modeled per-site capacity the mitigate op defends (Eq. 7
  ///        units): baseline load plus headroom, so the quiet deployment is
  ///        compliant by construction and attacks have a defined budget.
  [[nodiscard]] const std::vector<double>& site_capacity() const {
    return site_capacity_;
  }
  /// \brief Whether the all-sites baseline meets the modeled capacity SLO
  ///        (Eq. 7 strict comparison; true by construction unless a build
  ///        ever ships tighter capacities).
  [[nodiscard]] bool slo_ok() const { return slo_ok_; }

 private:
  friend class Service;  // publish assigns the version
  Snapshot() = default;

  SnapshotOptions options_;
  std::unique_ptr<anycast::World> world_;
  std::unique_ptr<core::Predictor> predictor_;
  std::unique_ptr<core::Optimizer> optimizer_;
  std::uint64_t version_ = 0;
  std::vector<double> site_load_;      ///< predicted all-sites catchment load
  std::vector<double> site_capacity_;  ///< modeled capacity (load + headroom)
  bool slo_ok_ = true;                 ///< baseline Eq. 7 verdict
  double loaded_at_us_ = 0;
  std::size_t retained_bytes_ = 0;
  std::size_t store_records_ = 0;
  std::size_t experiments_ = 0;
  bool bytes_accounted_ = false;  ///< gauge delta to undo at destruction
};

}  // namespace anyopt::serve
