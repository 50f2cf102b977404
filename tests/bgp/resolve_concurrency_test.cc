// Concurrent reads of one converged RoutingState.  `resolve()` and
// `explain()` never mutate the state, so any number of threads may query
// one const state at once.  Labelled `tsan` (it rides in parallel_test) so
// ThreadSanitizer proves the reads race-free; every thread's answers must
// also equal a serial pass bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anycast/config.h"
#include "anycast/world.h"
#include "bgp/simulator.h"
#include "netbase/rng.h"

namespace anyopt::bgp {
namespace {

/// Everything one pass over the targets produces.
struct Pass {
  std::vector<ResolvedPath> paths;       ///< one per target
  std::vector<std::string> explanations; ///< one per sampled target
};

Pass run_pass(const RoutingState& state, const anycast::World& world) {
  const auto& targets = world.targets();
  Pass out;
  out.paths.reserve(targets.size());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const anycast::Target& tgt =
        targets.target(TargetId{static_cast<TargetId::underlying_type>(t)});
    out.paths.push_back(state.resolve(tgt.as, tgt.where, t));
  }
  const std::size_t step = std::max<std::size_t>(1, targets.size() / 50);
  for (std::size_t t = 0; t < targets.size(); t += step) {
    const anycast::Target& tgt =
        targets.target(TargetId{static_cast<TargetId::underlying_type>(t)});
    out.explanations.push_back(
        state.explain(tgt.as, tgt.where, t).to_string(world.internet()));
  }
  return out;
}

TEST(ResolveConcurrency, ConstStateServesFourThreadsLikeOne) {
  const std::unique_ptr<anycast::World> world =
      anycast::World::create(anycast::WorldParams::test_scale(31));
  const auto config = anycast::AnycastConfig::all_sites(world->deployment());
  const RoutingState state = world->simulator().run(
      config.schedule(world->deployment()), mix64(0xC0, 4));

  const Pass want = run_pass(state, *world);
  const std::size_t reachable = static_cast<std::size_t>(std::count_if(
      want.paths.begin(), want.paths.end(),
      [](const ResolvedPath& p) { return p.reachable; }));
  ASSERT_GT(reachable, 0u);

  std::vector<Pass> got(4);
  std::vector<std::thread> threads;
  for (Pass& pass : got) {
    threads.emplace_back([&] { pass = run_pass(state, *world); });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t w = 0; w < got.size(); ++w) {
    SCOPED_TRACE("thread " + std::to_string(w));
    ASSERT_EQ(got[w].paths.size(), want.paths.size());
    for (std::size_t t = 0; t < want.paths.size(); ++t) {
      const ResolvedPath& a = want.paths[t];
      const ResolvedPath& b = got[w].paths[t];
      EXPECT_EQ(a.reachable, b.reachable) << "target " << t;
      EXPECT_EQ(a.site, b.site) << "target " << t;
      EXPECT_EQ(a.attachment, b.attachment) << "target " << t;
      EXPECT_EQ(a.as_path, b.as_path) << "target " << t;
      // operator== on doubles deliberately: bit-identical, not "close".
      ASSERT_EQ(a.one_way_ms, b.one_way_ms) << "target " << t;
    }
    EXPECT_EQ(got[w].explanations, want.explanations);
  }
}

}  // namespace
}  // namespace anyopt::bgp
