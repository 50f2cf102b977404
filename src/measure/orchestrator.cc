#include "measure/orchestrator.h"

#include <algorithm>

#include "bgp/compact.h"
#include "bgp/flap.h"
#include "measure/census_shards.h"
#include "netbase/resmon.h"
#include "netbase/stats.h"
#include "netbase/telemetry.h"
#include "netbase/thread_pool.h"

namespace anyopt::measure {

namespace {

/// Pre-resolved census metrics (one registry lookup per process).
struct CensusMetrics {
  telemetry::Counter* censuses;
  telemetry::Counter* probes_sent;
  telemetry::Counter* probes_lost;
  telemetry::Counter* probe_retries;
  telemetry::Counter* targets_unreachable;
  telemetry::Histogram* census_ms;

  static const CensusMetrics& get() {
    static const CensusMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return CensusMetrics{&reg.counter("measure.censuses"),
                           &reg.counter("measure.probes.sent"),
                           &reg.counter("measure.probes.lost"),
                           &reg.counter("probe.retries"),
                           &reg.counter("measure.targets_unreachable"),
                           &reg.histogram("measure.census_ms")};
    }();
    return m;
  }
};

/// Pre-resolved fault-injection metrics (one registry lookup per process).
struct FaultMetrics {
  telemetry::Counter* round_failures;
  telemetry::Counter* announce_suppressed;
  telemetry::Counter* flaps;
  telemetry::Counter* degraded_rounds;
  telemetry::Counter* targets_dropped;
  telemetry::Counter* storm_rounds;

  static const FaultMetrics& get() {
    static const FaultMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return FaultMetrics{&reg.counter("fault.injected.round_failures"),
                          &reg.counter("fault.injected.announce_suppressed"),
                          &reg.counter("fault.injected.flaps"),
                          &reg.counter("fault.injected.degraded_rounds"),
                          &reg.counter("fault.injected.targets_dropped"),
                          &reg.counter("fault.injected.storm_rounds")};
    }();
    return m;
  }
};

/// The `measure.census` span every census path times itself with.
telemetry::ScopedTimer census_span(std::uint64_t experiment_nonce) {
  const bool telem = telemetry::enabled();
  return telemetry::ScopedTimer(
      "measure.census", "measure",
      telem ? CensusMetrics::get().census_ms : nullptr,
      telem && telemetry::tracing()
          ? telemetry::make_args("nonce", experiment_nonce)
          : std::string{});
}

}  // namespace

std::size_t Census::reachable_count() const {
  std::size_t n = 0;
  for (const SiteId s : site_of_target) {
    if (s.valid()) ++n;
  }
  return n;
}

double Census::mean_rtt() const {
  stats::Online acc;
  for (const double r : rtt_ms) {
    if (r >= 0) acc.add(r);
  }
  // Empty-census contract: 0.0 when nothing was measured (acc.mean() and
  // stats::median both honour it, but the contract lives HERE — callers
  // rely on this header's promise, not on the accumulator's internals).
  return acc.count() == 0 ? 0.0 : acc.mean();
}

double Census::median_rtt() const {
  std::vector<double> valid = valid_rtts();
  return valid.empty() ? 0.0 : stats::median(std::move(valid));
}

std::size_t Census::catchment_size(SiteId site) const {
  std::size_t n = 0;
  for (const SiteId s : site_of_target) {
    if (s == site) ++n;
  }
  return n;
}

std::size_t Census::attachment_catchment_size(bgp::AttachmentIndex at) const {
  std::size_t n = 0;
  for (const bgp::AttachmentIndex a : attachment_of_target) {
    if (a == at) ++n;
  }
  return n;
}

std::vector<double> Census::valid_rtts() const {
  std::vector<double> out;
  out.reserve(rtt_ms.size());
  for (const double r : rtt_ms) {
    if (r >= 0) out.push_back(r);
  }
  return out;
}

Orchestrator::Orchestrator(const anycast::World& world,
                           OrchestratorOptions options)
    : world_(world), options_(options) {
  const auto& targets = world_.targets();
  resolve_order_.resize(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    resolve_order_[t] = static_cast<std::uint32_t>(t);
  }
  std::stable_sort(resolve_order_.begin(), resolve_order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return targets.target(TargetId{a}).as.value() <
                            targets.target(TargetId{b}).as.value();
                   });
}

double Orchestrator::tunnel_rtt_ms(SiteId site) const {
  const anycast::Site& s = world_.deployment().site(site);
  // GRE adds encapsulation and the tunnel is pinned through the CDN
  // backbone; a small constant overhead on top of geodesic propagation.
  return 2.0 * geo::one_way_latency_ms(options_.location, s.where) + 1.5;
}

Census Orchestrator::measure(const anycast::AnycastConfig& config,
                             std::uint64_t experiment_nonce,
                             ExperimentAt at) const {
  return measure(config, experiment_nonce, &thread_scratch(), at);
}

bgp::SimScratch& Orchestrator::thread_scratch() {
  // One arena per thread: `measure` is const and may be called from
  // several campaign workers at once, but each call runs on one thread and
  // consecutive censuses on that thread recycle the same buffers.
  thread_local bgp::SimScratch scratch;
  return scratch;
}

Orchestrator::Round Orchestrator::begin_round(std::uint64_t experiment_nonce,
                                              ExperimentAt at,
                                              const char* path) const {
  Round round;
  round.tracing = provenance::active();
  round.t0_us = round.tracing ? telemetry::now_us() : 0.0;
  round.trace.nonce = experiment_nonce;
  round.trace.ordinal = at.ordinal;
  round.trace.attempt = at.attempt;
  round.trace.path = path;
  // --- Fault layer (off when no injector is configured). ---
  const fault::FaultInjector* faults = options_.faults;
  if (faults == nullptr) return round;
  round.faults = faults->round(at.ordinal, at.attempt);
  round.trace.degraded = round.faults.degraded;
  round.trace.storm = round.faults.extra_loss_rate > 0.0;
  if (round.faults.fail_round) {
    // The whole round is lost (orchestrator outage / withdrawn
    // measurement prefix): an entirely empty census, the same shape an
    // unreachable deployment produces.  Callers detect it via
    // reachable_count() == 0 and may re-enqueue with attempt + 1.
    if (telemetry::enabled()) FaultMetrics::get().round_failures->add(1);
    round.trace.round_failed = true;
    round.trace.targets = world_.targets().size();
    end_round(round);
  }
  return round;
}

void Orchestrator::end_round(Round& round) {
  if (!round.tracing) return;
  round.trace.duration_ms = (telemetry::now_us() - round.t0_us) / 1e3;
  provenance::FlightLog::global().record(round.trace);
}

Census Orchestrator::measure(const anycast::AnycastConfig& config,
                             std::uint64_t experiment_nonce,
                             bgp::SimScratch* scratch, ExperimentAt at) const {
  const telemetry::ScopedTimer span = census_span(experiment_nonce);
  Round round = begin_round(experiment_nonce, at, "classic");
  if (round.faults.fail_round) return empty_census();

  auto schedule = config.schedule(world_.deployment());
  if (const fault::FaultInjector* faults = options_.faults; faults != nullptr) {
    const bool telem = telemetry::enabled();
    // Hard site failures: a failed site's announcement never happens.
    std::size_t suppressed = 0;
    std::erase_if(schedule, [&](const bgp::Injection& inj) {
      if (inj.withdraw) return false;
      const SiteId site =
          world_.deployment().attachments()[inj.attachment].site;
      if (!faults->site_failed(site, at.ordinal)) return false;
      ++suppressed;
      return true;
    });
    // Session flaps: withdraw + re-advertise cycles merged into the
    // schedule; the re-advertisement arrives with a fresh arrival_seq, so
    // the oldest-route tie-break can flip permanently (§4.2).
    if (!faults->flaps().empty()) {
      const std::size_t before = schedule.size();
      schedule = bgp::apply_flaps(std::move(schedule), faults->flaps());
      const std::size_t flap_events = (schedule.size() - before) / 2;
      if (telem && flap_events != 0) {
        FaultMetrics::get().flaps->add(flap_events);
      }
      round.trace.flap_events = flap_events;
    }
    if (telem) {
      const FaultMetrics& m = FaultMetrics::get();
      if (suppressed != 0) m.announce_suppressed->add(suppressed);
      if (round.faults.degraded) m.degraded_rounds->add(1);
      if (round.faults.extra_loss_rate > 0.0) m.storm_rounds->add(1);
    }
    round.trace.announce_suppressed = suppressed;
  }
  bgp::RoutingState state =
      world_.simulator().run(schedule, experiment_nonce, scratch);
  Census census = census_from_state(state, experiment_nonce, round.faults, at,
                                    round.sink(), scratch);
  end_round(round);
  return census;
}

Census Orchestrator::empty_census() const {
  const auto& targets = world_.targets();
  Census census;
  census.site_of_target.assign(targets.size(), SiteId{});
  census.attachment_of_target.assign(targets.size(), bgp::kNoAttachment);
  census.rtt_ms.assign(targets.size(), -1.0);
  return census;
}

Census Orchestrator::census_from_state(bgp::RoutingState& state,
                                       std::uint64_t experiment_nonce,
                                       const fault::RoundFaults& round_faults,
                                       ExperimentAt at,
                                       provenance::ExperimentTrace* trace,
                                       bgp::SimScratch* scratch) const {
  const bool telem = telemetry::enabled();
  const fault::FaultInjector* faults = options_.faults;
  const auto& targets = world_.targets();
  Census census = empty_census();

  // Engine-side stats, captured before the state may recycle below.
  const std::size_t sim_events = state.events_processed();
  const std::size_t overlay_copied = state.overlay_copied_bytes();

  // Freeze the converged state into the SoA resolve layout.  The engine
  // layout is dead from here on: recycle its arena before the resolve pass,
  // so at Internet scale the two layouts never coexist.  Over the memory
  // budget the arena must not be PARKED either — skip the recycle and let
  // the caller's state free on scope exit instead — and the frozen state
  // carries no walk cache at all (results are bit-identical at any cache
  // capacity).  The budget is read once, before the freeze: each read is a
  // procfs read, and a cache sized first would only be dropped.
  const bool over_budget = resmon::over_mem_budget();
  bgp::CompactState rib = bgp::CompactState::freeze(
      world_.simulator(), state,
      over_budget ? 0 : bgp::CompactState::kFullCache);
  if (!over_budget && scratch != nullptr) {
    scratch->recycle(std::move(state));
  }

  // Pass 1 — resolve every target's forwarding path into the sharded
  // aggregation plane, visiting targets grouped by client AS so each AS's
  // memoized walk is built once and replayed while hot.  Resolution is a
  // pure function of the converged state, so visiting order cannot change
  // any result; only reachable targets write (unwritten = unreachable).
  CensusShards resolved(targets.size());
  ThreadPool* pool = options_.resolve_pool;
  if (pool != nullptr && pool->size() > 1 && !resolve_order_.empty()) {
    // Parallel resolve (the ROADMAP item-2 headroom): workers take
    // contiguous chunks of the AS-grouped order, each chunk's end pushed
    // forward so a client AS's run never splits.  That gives every AS
    // exactly one resolving worker — the frozen walk cache's per-AS slots
    // have a single writer, and the serial pass's hit/miss pattern (one
    // miss then hot replays per AS) is reproduced exactly.  Workers write
    // private CensusShards planes (chunk targets are scattered in id
    // space, so planes interleave within shards entry-disjointly) and the
    // planes merge order-invariantly — censuses are bit-identical to the
    // serial pass at any pool size.
    const std::size_t n = resolve_order_.size();
    const std::size_t workers = pool->size();
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::size_t begin = 0;
    for (std::size_t w = 0; w < workers && begin < n; ++w) {
      std::size_t end =
          w + 1 == workers ? n : begin + (n - begin) / (workers - w);
      if (end <= begin) end = begin + 1;
      while (end < n && targets.target(TargetId{resolve_order_[end]}).as ==
                            targets.target(TargetId{resolve_order_[end - 1]})
                                .as) {
        ++end;
      }
      ranges.emplace_back(begin, std::min(end, n));
      begin = end;
    }
    std::vector<CensusShards> planes;
    planes.reserve(ranges.size());
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      planes.emplace_back(targets.size());
    }
    pool->parallel_for(ranges.size(), [&](std::size_t r) {
      for (std::size_t i = ranges[r].first; i < ranges[r].second; ++i) {
        const std::uint32_t t = resolve_order_[i];
        const anycast::Target& tgt = targets.target(TargetId{t});
        const bgp::ResolvedPath path = rib.resolve(tgt.as, tgt.where, t);
        if (path.reachable) {
          planes[r].set(t, path.site, path.attachment, path.one_way_ms);
        }
      }
    });
    for (CensusShards& plane : planes) resolved.merge(std::move(plane));
  } else {
    for (const std::uint32_t t : resolve_order_) {
      const anycast::Target& tgt = targets.target(TargetId{t});
      const bgp::ResolvedPath path = rib.resolve(tgt.as, tgt.where, t);
      if (path.reachable) {
        resolved.set(t, path.site, path.attachment, path.one_way_ms);
      }
    }
  }
  const std::uint64_t cache_hits = rib.cache_hits();
  const std::uint64_t cache_misses = rib.cache_misses();
  const std::size_t rib_bytes = rib.retained_bytes();
  const std::size_t cache_bytes = rib.resolve_cache_bytes();
  const std::size_t shard_bytes = resolved.retained_bytes();

  // Pass 2 — probe in target order.  The prober draws its noise stream in
  // this exact order, so the census is bit-identical to the historical
  // single-pass implementation.  The cursor releases each aggregation
  // shard as it drains (streaming: census memory peaks at pass 1's
  // footprint, not pass 1's plus the census under construction).
  Rng noise_root{options_.seed ^ (experiment_nonce * 0x9e3779b97f4a7c15ULL)};
  Prober prober{options_.probe, noise_root.fork("census-probes")};

  std::size_t faulted_drops = 0;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    if (t != 0 && t % CensusShards::kShardWidth == 0) {
      resolved.release_through(t - 1);
    }
    if (!resolved.written(t)) continue;
    if (round_faults.degraded &&
        faults->target_dropped(at.ordinal, at.attempt,
                               static_cast<std::uint32_t>(t))) {
      // Degraded round: this target's measurement silently never arrives
      // (the partial-census failure mode real measurement rounds exhibit).
      ++faulted_drops;
      continue;
    }

    // The reply's tunnel identifies the catchment (site + session).
    const SiteId site = resolved.site(t);
    const double true_rtt = 2.0 * resolved.one_way_ms(t);
    const auto sample = prober.measure(tunnel_rtt_ms(site) + true_rtt,
                                       round_faults.extra_loss_rate);
    // nullopt = fewer than ProbeModel::min_valid of the probes answered
    // (after any configured retries) — NOT necessarily "every probe lost".
    // The target stays unmeasured and the census honours the empty-census
    // contract documented at Census::mean_rtt(): downstream consumers see
    // rtt_ms[t] < 0 and an invalid site, and must never treat a fully
    // empty census's 0.0 mean as a latency.
    if (!sample.has_value()) continue;
    census.site_of_target[t] = site;
    census.attachment_of_target[t] = resolved.attachment(t);
    census.rtt_ms[t] = std::max(0.05, *sample - tunnel_rtt_ms(site));
  }
  if (telem) {
    const CensusMetrics& m = CensusMetrics::get();
    m.censuses->add(1);
    m.probes_sent->add(prober.probes_sent());
    m.probes_lost->add(prober.probes_lost());
    if (prober.retries() != 0) m.probe_retries->add(prober.retries());
    m.targets_unreachable->add(targets.size() - census.reachable_count());
    if (faulted_drops != 0) {
      FaultMetrics::get().targets_dropped->add(faulted_drops);
    }
    // Per-subsystem retained-bytes gauges the resmon sampler exports
    // (`last` = this census, `peak` = campaign high-water mark).
    static telemetry::Gauge& cache_bytes_gauge =
        telemetry::Registry::global().gauge("bytes.resolve_cache");
    static telemetry::Gauge& overlay_bytes_gauge =
        telemetry::Registry::global().gauge("bytes.overlay_pages");
    static telemetry::Gauge& rib_bytes_gauge =
        telemetry::Registry::global().gauge("bytes.rib");
    static telemetry::Gauge& shard_bytes_gauge =
        telemetry::Registry::global().gauge("bytes.census_shards");
    cache_bytes_gauge.set(static_cast<std::int64_t>(cache_bytes));
    shard_bytes_gauge.set(static_cast<std::int64_t>(shard_bytes));
    rib_bytes_gauge.set(static_cast<std::int64_t>(rib_bytes));
    if (overlay_copied != 0) {
      overlay_bytes_gauge.set(static_cast<std::int64_t>(overlay_copied));
    }
  }
  if (trace != nullptr) {
    trace->sim_events = sim_events;
    trace->cache_hits = cache_hits;
    trace->cache_misses = cache_misses;
    trace->probes_sent = prober.probes_sent();
    trace->probes_lost = prober.probes_lost();
    trace->retries = prober.retries();
    trace->targets = targets.size();
    trace->reachable = census.reachable_count();
    trace->targets_dropped = faulted_drops;
  }
  return census;
}

bgp::BaseState Orchestrator::converge_base(const anycast::AnycastConfig& config,
                                           std::uint64_t base_nonce) const {
  const auto schedule = config.schedule(world_.deployment());
  return world_.simulator().converge_base(schedule, base_nonce);
}

bool Orchestrator::schedule_faults_apply(const anycast::AnycastConfig& config,
                                         std::size_t ordinal) const {
  const fault::FaultInjector* faults = options_.faults;
  if (faults == nullptr) return false;
  // Any planned flap rewrites schedules wholesale; be conservative and
  // treat it as incompatible with the base + delta decomposition.
  if (!faults->flaps().empty()) return true;
  for (const bgp::Injection& inj : config.schedule(world_.deployment())) {
    if (inj.withdraw) continue;
    const SiteId site = world_.deployment().attachments()[inj.attachment].site;
    if (faults->site_failed(site, ordinal)) return true;
  }
  return false;
}

Census Orchestrator::measure_overlay(const bgp::BaseState& base,
                                     const anycast::AnycastConfig& config,
                                     std::span<const bgp::Injection> delta,
                                     std::uint64_t experiment_nonce,
                                     bgp::SimScratch* scratch,
                                     ExperimentAt at,
                                     std::size_t* sim_events) const {
  // Fallback/failed-round contract: 0, never a stale count (header doc).
  if (sim_events != nullptr) *sim_events = 0;
  if (schedule_faults_apply(config, at.ordinal)) {
    // The classic fallback records its own provenance line (path
    // "classic"), which is exactly the truth of what ran.
    return measure(config, experiment_nonce, scratch, at);
  }
  Round round = begin_round(experiment_nonce, at, "overlay");
  if (round.faults.fail_round) return empty_census();
  const telemetry::ScopedTimer span = census_span(experiment_nonce);
  bgp::RoutingState state =
      world_.simulator().run_overlay(base, delta, experiment_nonce, scratch);
  // Captured here, not inside census_from_state: the census pass may
  // consume the state (arena recycle) before returning.
  if (sim_events != nullptr) *sim_events = state.events_processed();
  Census census = census_from_state(state, experiment_nonce, round.faults, at,
                                    round.sink(), scratch);
  end_round(round);
  return census;
}

Orchestrator::OverlayPairCensus Orchestrator::measure_overlay_pair(
    const bgp::BaseState& base, const anycast::AnycastConfig& config0,
    const anycast::AnycastConfig& config1,
    std::span<const bgp::Injection> delta,
    std::span<const bgp::AttachmentIndex> reage, std::uint64_t nonce0,
    std::uint64_t nonce1, bgp::SimScratch* scratch, ExperimentAt at0,
    ExperimentAt at1) const {
  OverlayPairCensus out;
  if (schedule_faults_apply(config0, at0.ordinal) ||
      schedule_faults_apply(config1, at1.ordinal)) {
    // The injected faults rewrite at least one leg's schedule, so the
    // base + delta decomposition no longer describes the experiment pair;
    // run both legs classically (classic handles every fault kind).
    out.leg0 = measure(config0, nonce0, scratch, at0);
    out.leg1 = measure(config1, nonce1, scratch, at1);
    return out;
  }
  // A failed round loses the CENSUS, not the announcements: leg 0's routes
  // still converge (leg 1 resumes that state normally), the measurement
  // round just comes back empty.  A later retry of the pair therefore
  // reproduces the fault-free legs bit for bit.
  Round round0 = begin_round(nonce0, at0, "overlay");
  bgp::RoutingState leg0;
  {
    const telemetry::ScopedTimer span = census_span(nonce0);
    leg0 = world_.simulator().run_overlay(base, delta, nonce0, scratch, {},
                                          /*keep_continuation=*/true);
    if (round0.faults.fail_round) {
      out.leg0 = empty_census();
    } else {
      // No scratch: leg 0's state must survive the census — leg 1 resumes
      // it below.
      out.leg0 = census_from_state(leg0, nonce0, round0.faults, at0,
                                   round0.sink(), nullptr);
      end_round(round0);
    }
  }
  Round round1 = begin_round(nonce1, at1, "overlay-resume");
  if (round1.faults.fail_round) {
    out.leg1 = empty_census();
    if (scratch != nullptr) scratch->recycle(std::move(leg0));
    return out;
  }
  const telemetry::ScopedTimer span = census_span(nonce1);
  bgp::RoutingState leg1 = world_.simulator().resume_overlay(
      std::move(leg0), {}, nonce1, scratch, reage);
  out.leg1 = census_from_state(leg1, nonce1, round1.faults, at1,
                               round1.sink(), scratch);
  end_round(round1);
  return out;
}

std::vector<double> Orchestrator::unicast_rtts(
    SiteId site, std::uint64_t experiment_nonce) const {
  anycast::AnycastConfig single;
  single.announce_order = {site};
  const Census census = measure(single, experiment_nonce);
  return census.rtt_ms;
}

}  // namespace anyopt::measure
