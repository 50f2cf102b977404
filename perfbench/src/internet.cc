// Workload `internet`: censuses on a 35k-AS world.
//
// Setup builds `WorldParams::at_scale(35000)` (seed 1897), about 98k
// targets.  The run seed picks a census set — every site plus a few random
// site subsets, each with its own nonce — which an orchestrator with
// default options measures over and over until the run's time is up.  Each
// census is one large convergence followed by ~98k resolves and probes over
// a working set far larger than the CPU caches.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "anycast/world.h"
#include "decompose.h"
#include "harness.h"
#include "measure/orchestrator.h"
#include "netbase/rng.h"

namespace perfbench {

using namespace anyopt;

namespace {

constexpr std::uint64_t kWorldSeed = 1897;
constexpr std::size_t kAses = 35000;
constexpr int kSetupRepeats = 2;
constexpr std::size_t kSubsets = 7;

struct Experiment {
  anycast::AnycastConfig config;
  std::uint64_t nonce = 0;
};

std::vector<Experiment> make_census_set(const anycast::Deployment& deployment,
                                        std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Experiment> set;
  set.push_back({anycast::AnycastConfig::all_sites(deployment), rng()});
  const std::size_t sites = deployment.site_count();
  for (std::size_t i = 0; i < kSubsets; ++i) {
    std::vector<std::size_t> ids(sites);
    for (std::size_t s = 0; s < sites; ++s) ids[s] = s;
    rng.shuffle(ids);
    std::vector<SiteId> order;
    for (std::size_t s = 0; s < sites / 2; ++s) {
      order.push_back(SiteId{static_cast<SiteId::underlying_type>(ids[s])});
    }
    set.push_back({anycast::AnycastConfig::of_sites(std::move(order)), rng()});
  }
  return set;
}

}  // namespace

void run_internet(const Args& args, Report& report) {
  const auto params = anycast::WorldParams::at_scale(kAses, kWorldSeed);

  std::unique_ptr<anycast::World> world;
  time_setup(
      kSetupRepeats,
      [&] {
        world.reset();
        world = anycast::World::create(params);
      },
      report);
  const HostProbe& probe = HostProbe::global();
  report.note("targets", std::to_string(world->targets().size()));

  const measure::Orchestrator orchestrator(*world);
  const std::vector<Experiment> set =
      make_census_set(world->deployment(), args.seed);
  const std::size_t targets = world->targets().size();

  // Reference pass with the registry counting work.
  anyopt::telemetry::Registry::global().reset();
  std::vector<measure::Census> reference;
  with_telemetry([&] {
    for (const Experiment& e : set) {
      reference.push_back(orchestrator.measure(e.config, e.nonce));
    }
    record_work_counters(report);
  });
  for (std::size_t i = 0; i < set.size(); ++i) {
    report.check(reference[i].reachable_count() == targets,
                 "census " + std::to_string(i) + " reaches every target");
  }

  if (args.trace) {
    const auto& reg = anyopt::telemetry::Registry::global();
    report.metric("measure.shard_bytes", "bytes",
                  static_cast<double>(reg.gauge_max("bytes.census_shards")), 1);
    const auto counter = [&](const char* name) {
      return static_cast<double>(reg.counter_value(name));
    };
    report.metric("bgp.events", "count", counter("bgp.sim.events"), 1);
    report.metric("bgp.runs", "count", counter("bgp.sim.runs"), 1);
    const double hits = counter("bgp.resolve.cache_hit");
    const double misses = counter("bgp.resolve.cache_miss");
    report.metric("bgp.resolve.hit_rate", "ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, 1);
    report.metric("measure.probes", "count", counter("measure.probes.sent"), 1);

    // Each census untraced, then with telemetry on traced whole and in
    // parts: the first gap is the tracing overhead, the parts' share of the
    // whole their coverage.
    Tracer::global().enable();
    const std::vector<std::uint32_t> order = resolve_order(*world);
    double plain_ms = 0;
    double whole_ms = 0;
    CensusParts sum;
    for (std::size_t i = 0; i < set.size(); ++i) {
      double t0 = now_s();
      (void)orchestrator.measure(set[i].config, set[i].nonce);
      plain_ms += (now_s() - t0) * 1e3;
      CensusParts parts;
      with_telemetry([&] {
        t0 = now_s();
        {
          const Span span("measure.census", i);
          report.check(
              same_census(orchestrator.measure(set[i].config, set[i].nonce),
                          reference[i]),
              "traced census repeats the reference");
        }
        whole_ms += (now_s() - t0) * 1e3;
        const Span span("census.decomposed", i);
        parts = decompose_census(orchestrator, order, set[i].config,
                                 set[i].nonce);
      });
      report.check(same_census(parts.census, reference[i]),
                   "decomposed census equals Orchestrator::measure");
      sum.add(parts);
    }
    const std::size_t k = set.size();
    const auto n = static_cast<double>(k);
    report.metric("trace.overhead_frac", "ratio", whole_ms / plain_ms - 1.0, k);
    report.metric("measure.census_ms", "ms", whole_ms / n, k);
    report.metric("measure.census_coverage", "ratio", sum.total_ms() / whole_ms,
                  k);
    report.metric("bgp.converge_ms", "ms", sum.sim_ms / n, k);
    report.metric("bgp.freeze_ms", "ms", sum.freeze_ms / n, k);
    report.metric("bgp.rib_bytes", "bytes", static_cast<double>(sum.rib_bytes),
                  k);
    report.metric("bgp.resolve_us", "us",
                  sum.resolve_ms * 1e3 / static_cast<double>(sum.resolved),
                  sum.resolved);
    report.metric("measure.probe_us", "us",
                  sum.probe_ms * 1e3 / static_cast<double>(sum.probed),
                  sum.probed);

    trace_world_build(params, report);
    return;
  }

  // Timed cycles over the census set, telemetry off, each census between
  // host probes.  Each census of the set keeps the median of its scaled
  // times; the run reports the mean over the set.
  std::vector<std::vector<double>> scaled_ms(set.size());
  std::vector<std::vector<double>> scaled_cpu(set.size());
  std::vector<double> cycle_ms;
  std::vector<double> factors;
  ProbedTimer timer(&probe);
  const double deadline = now_s() + args.seconds;
  do {
    cycle_ms.push_back(0);
    for (std::size_t i = 0; i < set.size(); ++i) {
      measure::Census census;
      const Timed t = timer.time(
          [&] { census = orchestrator.measure(set[i].config, set[i].nonce); });
      report.check(same_census(census, reference[i]),
                   "repeated census " + std::to_string(i) + " is identical");
      scaled_ms[i].push_back(t.scaled_wall_s() * 1e3);
      scaled_cpu[i].push_back(t.scaled_cpu_s());
      factors.push_back(t.factor);
      cycle_ms.back() += t.wall_s * 1e3 / static_cast<double>(set.size());
    }
    std::printf("cycle %zu: %.1f ms per census, host factor %.3f\n",
                cycle_ms.size(), cycle_ms.back(), factors.back());
  } while (now_s() < deadline);

  const auto mean_of_medians = [](const std::vector<std::vector<double>>& v) {
    double sum = 0;
    for (const std::vector<double>& x : v) sum += median(x);
    return sum / static_cast<double>(v.size());
  };
  const std::size_t n = cycle_ms.size();
  const double latency_ms = mean_of_medians(scaled_ms);
  report.metric("latency_ms", "ms", latency_ms, n);
  report.metric("census_s", "s", latency_ms / 1e3, n);
  report.metric("cpu_s", "s", mean_of_medians(scaled_cpu), n);
  report.metric("wall_ms", "ms", median(cycle_ms), n);
  report.metric("host_factor", "ratio", median(factors), factors.size());
}

}  // namespace perfbench
