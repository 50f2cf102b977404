// Engine micro-benchmarks (google-benchmark): the hot paths that make the
// offline methodology practical, plus the DESIGN.md ablation of the
// arrival-order decision step.

#include <benchmark/benchmark.h>

#include "anycast/world.h"
#include "bgp/compact.h"
#include "bgp/decision.h"
#include "bgp/simulator.h"
#include "core/anyopt.h"
#include "measure/campaign_runner.h"
#include "measure/orchestrator.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"
#include "support/bench_common.h"

namespace {

using namespace anyopt;

/// Small world shared by all micro benches (paper scale would melt the
/// repetition counts).
anycast::World& world() {
  static auto w = anycast::World::create(anycast::WorldParams::test_scale(99));
  return *w;
}

measure::Orchestrator& orchestrator() {
  static measure::Orchestrator orch(world());
  return orch;
}

core::AnyOptPipeline& pipeline() {
  static core::AnyOptPipeline pipe(orchestrator());
  static bool primed = [] {
    pipe.discover();
    pipe.measure_rtts();
    return true;
  }();
  (void)primed;
  return pipe;
}

bgp::RibEntry make_entry(int lp, std::size_t len, std::uint64_t arrival,
                         std::uint32_t rid) {
  bgp::RibEntry e;
  e.present = true;
  e.neighbor = AsId{rid};
  e.local_pref = lp;
  e.as_path.assign(len, AsId{7});
  e.arrival_seq = arrival;
  e.neighbor_router_id = rid;
  return e;
}

void BM_DecisionProcess(benchmark::State& state) {
  // Ablation: arg 0 = without the vendor arrival-order step, 1 = with.
  bgp::DecisionOptions opts;
  opts.prefer_oldest = state.range(0) != 0;
  Rng rng{1};
  std::vector<bgp::RibEntry> entries;
  for (int i = 0; i < 64; ++i) {
    entries.push_back(make_entry(100 + 100 * static_cast<int>(rng.below(2)),
                                 1 + rng.below(4), rng.below(1000),
                                 static_cast<std::uint32_t>(rng.below(1 << 30))));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = entries[i % entries.size()];
    const auto& b = entries[(i * 31 + 7) % entries.size()];
    benchmark::DoNotOptimize(bgp::compare_routes(a, b, opts));
    ++i;
  }
}
BENCHMARK(BM_DecisionProcess)->Arg(0)->Arg(1);

void BM_BgpPropagation(benchmark::State& state) {
  // Full clean-state propagation of `arg` announcements, 360s apart.
  const auto sites = static_cast<std::size_t>(state.range(0));
  std::vector<bgp::Injection> schedule;
  for (std::size_t s = 0; s < sites; ++s) {
    schedule.push_back(
        {static_cast<double>(s) * 360.0,
         world().deployment().transit_attachment(
             SiteId{static_cast<SiteId::underlying_type>(s)}),
         false});
  }
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    const bgp::RoutingState result =
        world().simulator().run(schedule, nonce++);
    benchmark::DoNotOptimize(result.events_processed());
  }
  state.counters["ases"] =
      static_cast<double>(world().internet().graph.as_count());
}
BENCHMARK(BM_BgpPropagation)->Arg(1)->Arg(4)->Arg(15);

void BM_BuildInternet(benchmark::State& state) {
  // Paper-scale topology generation (the first stage of every World).
  const topo::InternetParams params =
      anycast::WorldParams::paper_scale().internet;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::build_internet(params));
  }
  state.counters["ases"] = static_cast<double>(topo::kPaperScaleAses);
}
BENCHMARK(BM_BuildInternet)->Unit(benchmark::kMillisecond);

void BM_ForwardingResolve(benchmark::State& state) {
  // The census resolve path: a frozen CompactState and its walk cache.
  const auto cfg = anycast::AnycastConfig::all_sites(world().deployment());
  const auto schedule = cfg.schedule(world().deployment());
  const bgp::CompactState rib = bgp::CompactState::freeze(
      world().simulator(), world().simulator().run(schedule, 1));
  const auto& targets = world().targets();
  std::size_t t = 0;
  for (auto _ : state) {
    const auto& target = targets.target(
        TargetId{static_cast<TargetId::underlying_type>(t % targets.size())});
    benchmark::DoNotOptimize(rib.resolve(target.as, target.where, t));
    ++t;
  }
}
BENCHMARK(BM_ForwardingResolve);

void BM_CatchmentCensus(benchmark::State& state) {
  const auto cfg = anycast::AnycastConfig::all_sites(world().deployment());
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(orchestrator().measure(cfg, nonce++));
  }
  state.counters["targets"] = static_cast<double>(world().targets().size());
}
BENCHMARK(BM_CatchmentCensus);

void BM_CampaignBatch(benchmark::State& state) {
  // One provider-level-sized campaign batch (16 pairwise experiments) run
  // through the CampaignRunner with `arg` worker threads.  Thread counts
  // beyond the default list come from --threads (see main below).
  const auto threads = static_cast<std::size_t>(state.range(0));
  const measure::CampaignRunner runner(orchestrator(), {.threads = threads});
  const std::size_t sites = world().deployment().site_count();
  std::vector<measure::ExperimentSpec> specs;
  for (std::size_t k = 0; k < 16; ++k) {
    measure::ExperimentSpec spec;
    spec.config.announce_order = {
        SiteId{static_cast<SiteId::underlying_type>(k % sites)},
        SiteId{static_cast<SiteId::underlying_type>((k + 1 + k / sites) % sites)}};
    spec.nonce = mix64(0xBE7C, k);
    specs.push_back(std::move(spec));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(specs));
  }
  state.counters["experiments"] = static_cast<double>(specs.size());
}
BENCHMARK(BM_CampaignBatch)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_PredictConfiguration(benchmark::State& state) {
  auto& pipe = pipeline();
  Rng rng{3};
  const auto cfg = core::Optimizer::random_config(world().deployment(),
                                                  3, 2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.predict(cfg));
  }
}
BENCHMARK(BM_PredictConfiguration);

void BM_OptimizerSubsetSearch(benchmark::State& state) {
  auto& pipe = pipeline();
  core::OptimizerOptions opts;
  opts.time_budget_s = 3600;  // never hit in the test world
  opts.order_candidates = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.optimize(opts).configurations_evaluated);
  }
}
BENCHMARK(BM_OptimizerSubsetSearch)->Unit(benchmark::kMillisecond);

void BM_TotalOrderConstruction(benchmark::State& state) {
  auto& pipe = pipeline();
  const auto& table = pipe.discover().provider_prefs;
  const std::vector<std::size_t> items{0, 1, 2, 3, 4, 5};
  const std::vector<std::size_t> arrival{0, 1, 2, 3, 4, 5};
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::target_total_order(table, t % table.target_count, items,
                                 arrival));
    ++t;
  }
}
BENCHMARK(BM_TotalOrderConstruction);

void BM_SplpoEvaluate(benchmark::State& state) {
  auto& pipe = pipeline();
  const auto order = anycast::AnycastConfig::all_sites(world().deployment());
  const core::SplpoInstance inst = pipe.splpo_instance(order);
  const std::vector<std::uint32_t> open{0, 2, 4, 6, 8, 10};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_open_set(inst, open));
  }
  state.counters["clients"] = static_cast<double>(inst.client_count);
}
BENCHMARK(BM_SplpoEvaluate);

/// Restores the global telemetry switches when a benchmark exits.
struct TelemetryFlagGuard {
  bool enabled = telemetry::enabled();
  bool tracing = telemetry::tracing();
  ~TelemetryFlagGuard() {
    telemetry::set_enabled(enabled);
    telemetry::set_tracing(tracing);
  }
};

void BM_TelemetryCounterDisabled(benchmark::State& state) {
  // The advertised disabled-path cost: one relaxed load, nothing else.
  const TelemetryFlagGuard guard;
  telemetry::set_enabled(false);
  auto& c = telemetry::Registry::global().counter("micro.overhead.counter");
  for (auto _ : state) {
    if (telemetry::enabled()) c.add(1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TelemetryCounterDisabled);

void BM_TelemetryCounterEnabled(benchmark::State& state) {
  const TelemetryFlagGuard guard;
  telemetry::set_enabled(true);
  auto& c = telemetry::Registry::global().counter("micro.overhead.counter");
  for (auto _ : state) {
    if (telemetry::enabled()) c.add(1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TelemetryCounterEnabled);

void BM_TelemetryHistogramRecord(benchmark::State& state) {
  const TelemetryFlagGuard guard;
  telemetry::set_enabled(true);
  auto& h =
      telemetry::Registry::global().histogram("micro.overhead.histogram");
  double v = 0.1;
  for (auto _ : state) {
    if (telemetry::enabled()) h.record(v);
    v += 0.1;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TelemetryHistogramRecord);

void BM_TelemetryScopedTimerDisabled(benchmark::State& state) {
  const TelemetryFlagGuard guard;
  telemetry::set_enabled(false);
  auto& h = telemetry::Registry::global().histogram("micro.overhead.span_ms");
  for (auto _ : state) {
    const telemetry::ScopedTimer span("micro.span", "micro", &h);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TelemetryScopedTimerDisabled);

void BM_TelemetryScopedTimerEnabled(benchmark::State& state) {
  // Two clock reads plus a histogram record; tracing stays off, as in a
  // plain --metrics run.
  const TelemetryFlagGuard guard;
  telemetry::set_enabled(true);
  telemetry::set_tracing(false);
  auto& h = telemetry::Registry::global().histogram("micro.overhead.span_ms");
  for (auto _ : state) {
    const telemetry::ScopedTimer span("micro.span", "micro", &h);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TelemetryScopedTimerEnabled);

void BM_SimulatorRunTelemetry(benchmark::State& state) {
  // End-to-end overhead check on the real hot path: one 4-announcement
  // propagation with telemetry off (arg 0) vs on (arg 1).
  const TelemetryFlagGuard guard;
  telemetry::set_enabled(state.range(0) != 0);
  std::vector<bgp::Injection> schedule;
  for (std::size_t s = 0; s < 4; ++s) {
    schedule.push_back(
        {static_cast<double>(s) * 360.0,
         world().deployment().transit_attachment(
             SiteId{static_cast<SiteId::underlying_type>(s)}),
         false});
  }
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    const bgp::RoutingState result =
        world().simulator().run(schedule, nonce++);
    benchmark::DoNotOptimize(result.events_processed());
  }
}
BENCHMARK(BM_SimulatorRunTelemetry)->Arg(0)->Arg(1);

}  // namespace

// Custom main: `--threads N` (stripped before google-benchmark sees the
// argument list) registers an extra BM_CampaignBatch run at N workers on
// top of the static 1/2/4 sweep.
int main(int argc, char** argv) {
  const anyopt::bench::TelemetryScope telemetry_scope("micro", argc, argv);
  const std::size_t threads = anyopt::bench::parse_threads(argc, argv, 0);
  if (threads != 0 && threads != 1 && threads != 2 && threads != 4) {
    benchmark::RegisterBenchmark("BM_CampaignBatch", BM_CampaignBatch)
        ->Arg(static_cast<std::int64_t>(threads))
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
