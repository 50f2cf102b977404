// Optimizer::evaluate is pure: several threads scoring configurations on
// one const Optimizer get exactly the single-threaded answers, and the
// ThreadSanitizer build proves no shared state is written.

#include <gtest/gtest.h>

#include <bit>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "netbase/telemetry.h"
#include "support/core_fixture.h"

namespace anyopt::core {
namespace {

using anyopt::testing::default_env;

TEST(OptimizerConcurrency, ConcurrentEvaluateMatchesSerial) {
  const Predictor& predictor = default_env().pipeline->predictor();
  const Optimizer optimizer(predictor);

  std::vector<anycast::AnycastConfig> configs;
  for (std::size_t k = 1; k <= 15; k += 2) {
    configs.push_back(Optimizer::greedy_unicast(predictor.rtts(), k));
  }
  Rng rng{17};
  for (int i = 0; i < 8; ++i) {
    configs.push_back(Optimizer::random_config(predictor.deployment(),
                                               1 + i % 4, 1 + i % 2, rng));
  }
  std::vector<EvaluatedConfig> serial;
  for (const auto& config : configs) {
    serial.push_back(optimizer.evaluate(config));
  }

  // Telemetry on, so the table counters are bumped concurrently too.
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::vector<EvaluatedConfig>> got(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Each thread walks the configs from a different offset, so
      // different provider subsets are built at the same time.
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::size_t c = (i + static_cast<std::size_t>(w) * 5) %
                              configs.size();
        got[w].push_back(optimizer.evaluate(configs[c]));
      }
    });
  }
  for (auto& t : threads) t.join();
  telemetry::set_enabled(was_enabled);

  for (int w = 0; w < kThreads; ++w) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const std::size_t c =
          (i + static_cast<std::size_t>(w) * 5) % configs.size();
      const EvaluatedConfig& a = serial[c];
      const EvaluatedConfig& b = got[w][i];
      EXPECT_EQ(a.config.announce_order, b.config.announce_order);
      // Bit-identical, not merely close.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.predicted_mean_rtt),
                std::bit_cast<std::uint64_t>(b.predicted_mean_rtt));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.predictable_mean_rtt),
                std::bit_cast<std::uint64_t>(b.predictable_mean_rtt));
      EXPECT_EQ(a.fraction_ordered, b.fraction_ordered);
    }
  }
}

}  // namespace
}  // namespace anyopt::core
