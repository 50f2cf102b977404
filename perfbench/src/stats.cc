#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {
/// 1-based nearest rank of quantile `q` among `n` samples; the epsilon
/// keeps q * n from rounding up past an exact integer (0.999 * 10000).
std::size_t nearest_rank(double q, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
}
}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo = *std::max_element(values.begin(), values.begin() + mid);
  return (lo + hi) / 2.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = nearest_rank(std::clamp(q, 0.0, 1.0), values.size());
  return values[rank == 0 ? 0 : rank - 1];
}

Tail supported_tail(const std::vector<double>& values) {
  static constexpr double kLadder[] = {99.99, 99.9, 99, 95, 90, 50};
  for (const double p : kLadder) {
    // Samples strictly beyond the nearest-rank percentile.
    if (values.size() - nearest_rank(p / 100.0, values.size()) >= 10) {
      return {p, quantile(values, p / 100.0)};
    }
  }
  return {};
}

std::vector<double> self_times_us(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double run_lo = 0;
    double run_hi = -1;  // empty run
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (a > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
      } else {
        run_hi = std::max(run_hi, b);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

double latency_from_due_s(const OpenLoopRequest& r) { return r.done_s - r.due_s; }

double generator_lateness_s(const OpenLoopRequest& r) {
  return r.sent_s - r.due_s;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench
