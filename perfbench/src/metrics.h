#pragma once
// The metric catalogue: the names and units a result line carries.  It must
// match BENCHMARK.json's `end_to_end` and `per_layer` lists; run.py checks
// every result line against that file.

#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every workload with telemetry off (`--trace 0`).
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kList = {
      {"setup_s", "s"},
      {"latency_ms", "ms"},
      {"cpu_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kList;
}

/// Reported by the traced run (`--trace 1`).  A layer a workload never
/// calls reads 0.
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kList = {
      {"topo.build_s", "s"},
      {"anycast.world_s", "s"},
      {"bgp.converge_ms", "ms"},
      {"bgp.events", "count"},
      {"bgp.runs", "count"},
      {"bgp.overlay_ms", "ms"},
      {"bgp.overlay_events", "count"},
      {"bgp.freeze_ms", "ms"},
      {"bgp.rib_bytes", "bytes"},
      {"bgp.resolve_us", "us"},
      {"bgp.resolve.hit_rate", "ratio"},
      {"measure.census_ms", "ms"},
      {"measure.overlay_census_ms", "ms"},
      {"measure.probe_us", "us"},
      {"measure.probes", "count"},
      {"measure.pool_busy_frac", "ratio"},
      {"measure.census_coverage", "ratio"},
      {"measure.shard_bytes", "bytes"},
      {"core.provider_level_ms", "ms"},
      {"core.site_level_ms", "ms"},
      {"core.total_order_us", "us"},
      {"core.predict_full_ms", "ms"},
      {"core.predict_subset_us", "us"},
      {"core.evaluate_ms", "ms"},
      {"core.configs_per_s", "1/s"},
      {"core.configs_evaluated", "count"},
      {"agility.mitigate_ms", "ms"},
      {"agility.candidates", "count"},
      {"agility.prune_frac", "ratio"},
      {"agility.sim_events", "count"},
      {"serve.parse_us", "us"},
      {"serve.execute_us.predict", "us"},
      {"serve.execute_us.predict_full", "us"},
      {"serve.execute_us.score", "us"},
      {"serve.execute_us.info", "us"},
      {"serve.wire_us", "us"},
      {"serve.gen_late_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return kList;
}

}  // namespace perfbench
