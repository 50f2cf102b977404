// Self-test of the benchmark's own arithmetic: the supported-tail rule,
// self time of nested spans, open-loop latency and metric names.  Exits
// non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.h"
#include "stats.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void tail_rule() {
  // 1000 samples: p99 leaves exactly ten beyond it, p99.9 only one.
  const Tail t1000 = supported_tail(one_to(1000));
  expect(t1000.percentile == 99 && near(t1000.value, 990),
         "1000 samples support p99 = 990");
  // 999 samples: p99 leaves nine beyond it, so p95 is the highest.
  const Tail t999 = supported_tail(one_to(999));
  expect(t999.percentile == 95, "999 samples support only p95");
  // 10000 samples: p99.9 leaves ten beyond it.
  expect(supported_tail(one_to(10000)).percentile == 99.9,
         "10000 samples support p99.9");
  // 19 samples: even the median leaves only nine beyond it.
  expect(supported_tail(one_to(19)).percentile == 0,
         "19 samples support no percentile");
  expect(supported_tail(one_to(20)).percentile == 50,
         "20 samples support the median");
  expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
         "median of odd and even counts");
}

void self_time() {
  // root [0,100] has children a [10,40] and b [30,60] (overlapping) and
  // c [90,120] (clipped at the root's end); a has a child d [15,20].
  std::vector<SpanRecord> spans = {
      {"root", 0, 100, -1, 0},  {"a", 10, 40, 0, 0}, {"b", 30, 60, 0, 0},
      {"c", 90, 120, 0, 0},     {"d", 15, 20, 1, 0},
  };
  const std::vector<double> self = self_times_us(spans);
  expect(near(self[0], 100 - 50 - 10), "root self time nets overlapping children");
  expect(near(self[1], 30 - 5), "a nets its child");
  expect(near(self[2], 30) && near(self[3], 30) && near(self[4], 5),
         "leaves keep their whole duration");
}

void open_loop() {
  // The generator stalled: due at 1.0, sent at 1.5, answered at 1.6.
  const OpenLoopRequest stalled{1.0, 1.5, 1.6};
  expect(near(latency_from_due_s(stalled), 0.6),
         "latency counts the wait before sending");
  expect(near(generator_lateness_s(stalled), 0.5), "generator lateness");
  const OpenLoopRequest prompt{2.0, 2.0, 2.01};
  expect(near(latency_from_due_s(prompt), 0.01), "prompt request latency");
}

void metric_names() {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *list) {
      expect(valid_metric_name(m.name), std::string("metric name ") + m.name);
    }
  }
  expect(!valid_metric_name(""), "empty name rejected");
  expect(!valid_metric_name(".lead"), "leading dot rejected");
  expect(!valid_metric_name("a b"), "space rejected");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters rejected");
  expect(valid_metric_name("serve.execute_us.predict_full"), "dotted name");
}

}  // namespace

int main() {
  tail_rule();
  self_time();
  open_loop();
  metric_names();
  if (failures != 0) {
    std::printf("%d self-test failures\n", failures);
    return 1;
  }
  std::printf("self-test passed\n");
  return 0;
}
