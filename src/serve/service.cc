#include "serve/service.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "agility/engine.h"
#include "measure/orchestrator.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"

namespace anyopt::serve {

namespace {

/// Pre-resolved serve metrics (one registry lookup per process).
struct ServeMetrics {
  telemetry::Counter* queries;
  telemetry::Counter* errors;
  telemetry::Counter* reloads;
  telemetry::Histogram* query_ms;
  telemetry::Gauge* snapshot_age_us;

  static const ServeMetrics& get() {
    static const ServeMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return ServeMetrics{&reg.counter("serve.queries"),
                          &reg.counter("serve.errors"),
                          &reg.counter("serve.reloads"),
                          &reg.histogram("serve.query_ms"),
                          &reg.gauge("serve.snapshot_age_us")};
    }();
    return m;
  }
};

/// The reader-side epoch cache: steady state re-validates with one version
/// load and returns the cached shared_ptr without touching the
/// mutex-guarded slot or its refcount.
struct Epoch {
  std::uint64_t owner = 0;  ///< Service id (0 = empty; see Service::id_)
  std::uint64_t version = 0;
  std::shared_ptr<const Snapshot> snapshot;
};
thread_local Epoch t_epoch;

void append_common(std::string& out, const Snapshot& snapshot,
                   const char* op) {
  out += "{\"ok\":true,\"snapshot\":";
  out += std::to_string(snapshot.version());
  out += ",\"op\":\"";
  out += op;
  out += "\"";
}

std::string execute_info(const Snapshot& snapshot) {
  std::string out;
  append_common(out, snapshot, "info");
  out += ",\"seed\":" + std::to_string(snapshot.seed());
  out += ",\"scale\":\"";
  out += snapshot.options().test_scale ? "test" : "paper";
  out += "\",\"sites\":" + std::to_string(snapshot.site_count());
  out += ",\"providers\":" +
         std::to_string(snapshot.deployment().provider_count());
  out += ",\"targets\":" + std::to_string(snapshot.target_count());
  out += ",\"retained_bytes\":" + std::to_string(snapshot.retained_bytes());
  out += ",\"store_records\":" + std::to_string(snapshot.store_records());
  out += ",\"experiments\":" + std::to_string(snapshot.experiments_run());
  // The agility baseline: predicted per-site load of the all-sites
  // deployment, the modeled capacities the mitigate op defends, and the
  // Eq. 7 verdict over them.
  out += ",\"site_load\":[";
  for (std::size_t s = 0; s < snapshot.site_load().size(); ++s) {
    if (s > 0) out += ",";
    append_double(out, snapshot.site_load()[s]);
  }
  out += "],\"site_capacity\":[";
  for (std::size_t s = 0; s < snapshot.site_capacity().size(); ++s) {
    if (s > 0) out += ",";
    append_double(out, snapshot.site_capacity()[s]);
  }
  out += "],\"slo_ok\":";
  out += snapshot.slo_ok() ? "true" : "false";
  out += "}";
  return out;
}

/// Validates the request's site ids and builds the announcement order.
Result<anycast::AnycastConfig> config_of(const Snapshot& snapshot,
                                         const Request& request) {
  std::vector<SiteId> order;
  order.reserve(request.sites.size());
  for (const std::uint32_t s : request.sites) {
    if (s >= snapshot.site_count()) {
      return Error::invalid("site " + std::to_string(s) +
                            " out of range (deployment has " +
                            std::to_string(snapshot.site_count()) +
                            " sites)");
    }
    order.push_back(SiteId{s});
  }
  return anycast::AnycastConfig::of_sites(std::move(order));
}

std::string execute_predict(const Snapshot& snapshot,
                            const Request& request) {
  Result<anycast::AnycastConfig> config = config_of(snapshot, request);
  if (!config.ok()) return render_error(config.error().message);
  for (const std::uint32_t c : request.clients) {
    if (c >= snapshot.target_count()) {
      return render_error("client " + std::to_string(c) +
                          " out of range (population has " +
                          std::to_string(snapshot.target_count()) +
                          " targets)");
    }
  }

  // Full-population queries walk every target; subset queries reuse the
  // same per-client preference walk but only over the requested clients.
  core::Prediction prediction;
  std::vector<std::uint32_t> considered;
  if (request.clients.empty()) {
    prediction = snapshot.predictor().predict(config.value());
    considered.resize(snapshot.target_count());
    for (std::uint32_t t = 0; t < considered.size(); ++t) considered[t] = t;
  } else {
    std::vector<TargetId> clients;
    clients.reserve(request.clients.size());
    for (const std::uint32_t c : request.clients) clients.push_back(TargetId{c});
    prediction = snapshot.predictor().predict_subset(config.value(), clients);
    considered = request.clients;
  }

  std::size_t predicted = 0;
  std::vector<double> rtts;
  for (const std::uint32_t t : considered) {
    if (prediction.site_of_target[t].valid()) ++predicted;
    if (prediction.rtt_ms[t] >= 0) rtts.push_back(prediction.rtt_ms[t]);
  }
  double sum = 0;
  for (const double r : rtts) sum += r;
  const double mean = rtts.empty() ? 0.0 : sum / static_cast<double>(rtts.size());

  std::string out;
  append_common(out, snapshot, "predict");
  out += ",\"clients\":" + std::to_string(considered.size());
  out += ",\"predicted\":" + std::to_string(predicted);
  out += ",\"mean_rtt_ms\":";
  append_double(out, mean);
  out += ",\"median_rtt_ms\":";
  append_double(out, median(std::move(rtts)));
  if (request.detail) {
    out += ",\"catchment\":[";
    for (std::size_t i = 0; i < considered.size(); ++i) {
      if (i > 0) out += ",";
      const SiteId site = prediction.site_of_target[considered[i]];
      out += site.valid() ? std::to_string(site.value()) : std::string("-1");
    }
    out += "],\"rtt_ms\":[";
    for (std::size_t i = 0; i < considered.size(); ++i) {
      if (i > 0) out += ",";
      append_double(out, prediction.rtt_ms[considered[i]]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string execute_score(const Snapshot& snapshot, const Request& request) {
  Result<anycast::AnycastConfig> config = config_of(snapshot, request);
  if (!config.ok()) return render_error(config.error().message);
  // Optimizer::evaluate is pure, so concurrent queries need no locking
  // (core/optimizer.h).
  const core::EvaluatedConfig scored =
      snapshot.optimizer().evaluate(config.value());
  std::string out;
  append_common(out, snapshot, "score");
  out += ",\"predicted_mean_rtt_ms\":";
  append_double(out, scored.predicted_mean_rtt);
  out += ",\"predictable_mean_rtt_ms\":";
  append_double(out, scored.predictable_mean_rtt);
  out += ",\"fraction_ordered\":";
  append_double(out, scored.fraction_ordered);
  out += "}";
  return out;
}

std::string execute_mitigate(const Snapshot& snapshot,
                             const Request& request) {
  // Deployed configuration: the requested sites, or every site.
  anycast::AnycastConfig deployed;
  if (request.sites.empty()) {
    deployed = anycast::AnycastConfig::all_sites(snapshot.deployment());
  } else {
    Result<anycast::AnycastConfig> config = config_of(snapshot, request);
    if (!config.ok()) return render_error(config.error().message);
    deployed = std::move(config).value();
  }

  // The what-if attack: a sustained pulse of `intensity` on the predicted
  // catchment of the busiest site under `deployed` (ties break to the
  // lowest site id) — the worst single-site volumetric scenario the
  // predictor can name without running an experiment.
  const core::Prediction prediction = snapshot.predictor().predict(deployed);
  std::vector<double> load(snapshot.site_count(), 0.0);
  for (const SiteId s : prediction.site_of_target) {
    if (s.valid()) load[s.value()] += 1.0;
  }
  std::size_t attacked = 0;
  for (std::size_t s = 1; s < load.size(); ++s) {
    if (load[s] > load[attacked]) attacked = s;
  }
  if (load[attacked] <= 0.0) {
    return render_error("no predictable clients to attack");
  }
  agility::DemandModel demand;
  agility::AttackPulse pulse;
  pulse.intensity = request.intensity;
  for (std::uint32_t t = 0; t < prediction.site_of_target.size(); ++t) {
    if (prediction.site_of_target[t].valid() &&
        prediction.site_of_target[t].value() == attacked) {
      pulse.targets.push_back(t);
    }
  }
  demand.pulses = {pulse};

  // Capacities: the snapshot's modeled (all-sites) capacity, raised where
  // the requested deployment concentrates more load than the all-sites
  // baseline — so the quiet deployment is compliant by construction and
  // the attack's overload budget is the modeled headroom.
  agility::AgilityOptions options;
  options.slo.site_capacity.resize(load.size());
  for (std::size_t s = 0; s < load.size(); ++s) {
    options.slo.site_capacity[s] =
        std::max(snapshot.site_capacity()[s], load[s] * 1.5 + 8.0);
  }
  options.seed = mix64(snapshot.seed(), 0xA617ULL);

  // Request-local measurement plane over the snapshot's immutable world:
  // queries stay lock-free (nothing on the snapshot mutates) at the cost
  // of simulating per mitigate call — this op is an operator what-if, not
  // a hot-path prediction.
  const measure::Orchestrator orchestrator(snapshot.world());
  const agility::AgilityEngine engine(orchestrator, std::move(demand),
                                      std::move(options));
  const agility::MitigationResult result = engine.mitigate(deployed);

  std::string out;
  append_common(out, snapshot, "mitigate");
  out += ",\"intensity\":";
  append_double(out, request.intensity);
  out += ",\"attacked_site\":" + std::to_string(attacked);
  out += ",\"attacked_clients\":" + std::to_string(pulse.targets.size());
  out += ",\"slo_violated\":";
  out += result.slo_violated ? "true" : "false";
  out += ",\"overloaded_sites\":[";
  for (std::size_t i = 0; i < result.baseline.overloaded.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(result.baseline.overloaded[i].value());
  }
  out += "],\"mitigated\":";
  out += result.best.mitigated ? "true" : "false";
  // -1 = the search found no SLO-restoring playbook (never infinity: the
  // response line must stay valid JSON).
  out += ",\"time_to_mitigate_s\":";
  append_double(out,
                result.best.mitigated ? result.best.time_to_mitigate_s : -1.0);
  out += ",\"post_mean_rtt_ms\":";
  append_double(out, result.best.post_mean_rtt_ms);
  out += ",\"playbook\":\"" + result.best.playbook.describe() + "\"";
  out += ",\"steps\":" + std::to_string(result.best.playbook.steps.size());
  out += ",\"candidates\":" + std::to_string(result.candidates);
  out += ",\"pruned\":" + std::to_string(result.pruned);
  out += ",\"sim_events\":" + std::to_string(result.total_sim_events);
  out += "}";
  return out;
}

}  // namespace

std::uint64_t Service::next_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t Service::publish(std::shared_ptr<Snapshot> snapshot) {
  // Versions are assigned here (not taken from the caller) so they are
  // monotone across every publisher.  The relaxed add is safe: the number
  // only becomes meaningful to readers via the release bump below.
  const std::uint64_t version =
      next_version_.fetch_add(1, std::memory_order_relaxed) + 1;
  snapshot->version_ = version;
  // Order matters: the fully built snapshot must land in the slot before
  // any reader can observe its version — see the publication protocol in
  // the header comment.  Both writes sit under the swap mutex so a stale
  // reader taking it always finds a slot at least as new as the version
  // that sent it here.
  {
    const std::lock_guard<std::mutex> lock(swap_mutex_);
    snapshot_ = std::shared_ptr<const Snapshot>(std::move(snapshot));
    version_.store(version, std::memory_order_release);
  }
  return version;
}

std::shared_ptr<const Snapshot> Service::current() const {
  const std::uint64_t version = version_.load(std::memory_order_acquire);
  Epoch& epoch = t_epoch;
  if (epoch.owner == id_ && epoch.version == version) {
    return epoch.snapshot;  // steady state: one atomic load, nothing else
  }
  // Version moved (or first query on this thread): take the cold path
  // through the mutex-guarded slot.  A publish racing us may already have
  // bumped past `version`; caching the newer snapshot under the newer
  // number it was published with keeps the pair consistent — both
  // snapshots are fully built, and the next query re-validates.
  {
    const std::lock_guard<std::mutex> lock(swap_mutex_);
    epoch.snapshot = snapshot_;
    epoch.version = version_.load(std::memory_order_relaxed);
  }
  epoch.owner = id_;
  return epoch.snapshot;
}

std::string Service::handle_line(std::string_view line) {
  const bool telem = telemetry::enabled();
  if (telem) ServeMetrics::get().queries->add(1);

  Result<Request> request = parse_request(line);
  if (!request.ok()) {
    if (telem) ServeMetrics::get().errors->add(1);
    return render_error(request.error().message);
  }

  if (request.value().op == Op::kReload) {
    if (!reloader_) {
      if (telem) ServeMetrics::get().errors->add(1);
      return render_error("this endpoint cannot reload");
    }
    Result<std::shared_ptr<Snapshot>> rebuilt = reloader_();
    if (!rebuilt.ok()) {
      if (telem) ServeMetrics::get().errors->add(1);
      return render_error("reload failed: " + rebuilt.error().message);
    }
    const std::uint64_t version = publish(std::move(rebuilt).value());
    if (telem) ServeMetrics::get().reloads->add(1);
    return "{\"ok\":true,\"snapshot\":" + std::to_string(version) +
           ",\"op\":\"reload\"}";
  }

  const std::shared_ptr<const Snapshot> snapshot = current();
  if (snapshot == nullptr) {
    if (telem) ServeMetrics::get().errors->add(1);
    return render_error("no snapshot published yet");
  }
  if (telem) {
    ServeMetrics::get().snapshot_age_us->set(static_cast<std::int64_t>(
        telemetry::now_us() - snapshot->loaded_at_us()));
  }
  telemetry::ScopedTimer timer("serve.query", "serve",
                               telem ? ServeMetrics::get().query_ms : nullptr);
  std::string response = execute(*snapshot, request.value());
  timer.finish();
  if (telem && response.compare(0, 11, "{\"ok\":false") == 0) {
    ServeMetrics::get().errors->add(1);
  }
  return response;
}

std::string Service::execute(const Snapshot& snapshot,
                             const Request& request) {
  switch (request.op) {
    case Op::kInfo:
      return execute_info(snapshot);
    case Op::kPredict:
      return execute_predict(snapshot, request);
    case Op::kScore:
      return execute_score(snapshot, request);
    case Op::kMitigate:
      return execute_mitigate(snapshot, request);
    case Op::kReload:
      return render_error("reload is not executable against a snapshot");
  }
  return render_error("unreachable");
}

}  // namespace anyopt::serve
