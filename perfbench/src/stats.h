#pragma once
// Sample statistics, span arithmetic and open-loop timing used by every
// workload.  Pure functions of their inputs, so the self-test can pin them.

#include <cstddef>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for even counts); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile `q` in [0, 1] of the values; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The tail a sample supports: the highest percentile from the ladder
/// 50, 90, 95, 99, 99.9, 99.99 that leaves at least ten samples beyond it.
/// `percentile` is 0 when even the median has fewer than ten beyond it.
struct Tail {
  double percentile = 0;
  double value = 0;
};
[[nodiscard]] Tail supported_tail(const std::vector<double>& values);

/// One recorded span.  `parent` is the index of the enclosing span in the
/// same vector, or -1 for a root.
struct SpanRecord {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  long parent = -1;
  std::size_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
[[nodiscard]] std::vector<double> self_times_us(
    const std::vector<SpanRecord>& spans);

/// One open-loop request: when the schedule said to send it, when the
/// generator actually sent it, and when its response arrived.
struct OpenLoopRequest {
  double due_s = 0;
  double sent_s = 0;
  double done_s = 0;
};
/// Latency as the user sees it: from the due time, so a stall that delays
/// later sends is charged to them.
[[nodiscard]] double latency_from_due_s(const OpenLoopRequest& r);
/// How late the generator itself sent the request.
[[nodiscard]] double generator_lateness_s(const OpenLoopRequest& r);

/// True when `name` is a legal metric name: 1-64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

}  // namespace perfbench
