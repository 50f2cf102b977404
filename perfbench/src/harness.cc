#include "harness.h"

#include <sys/resource.h>

#include <ctime>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "netbase/resmon.h"

namespace perfbench {

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const HostProbe& HostProbe::global() {
  static const HostProbe probe;
  return probe;
}

HostProbe::HostProbe() : next_((256u << 20) / sizeof(std::uint32_t)) {
  // One slot per 64-byte line, linked into a single random cycle by
  // Sattolo's shuffle of the line order.
  constexpr std::size_t kLine = 64 / sizeof(std::uint32_t);
  std::vector<std::uint32_t> order(next_.size() / kLine);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i * kLine);
  }
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % i]);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    next_[order[i]] = order[(i + 1) % order.size()];
  }
}

double HostProbe::factor() const {
  constexpr std::size_t kWalkSteps = 150000;
  constexpr std::size_t kChainSteps = 15000000;
  constexpr std::size_t kStreamSteps = 3000000;
  constexpr std::uint64_t kMul = 6364136223846793005ull;
  constexpr std::uint64_t kAdd = 1442695040888963407ull;
  const double t0 = now_s();
  std::uint32_t p = 0;
  for (std::size_t k = 0; k < kWalkSteps; ++k) p = next_[p];
  // One serial chain (latency-bound) ...
  std::uint64_t x = p;
  for (std::size_t k = 0; k < kChainSteps; ++k) {
    x = x * kMul + kAdd;
    asm volatile("" : "+r"(x));  // keep the chain serial and unelided
  }
  // ... then eight independent ones, which need the core's full issue
  // width and so slow down when a neighbour shares the physical core.
  std::uint64_t y[8] = {x, x + 1, x + 2, x + 3, x + 4, x + 5, x + 6, x + 7};
  for (std::size_t k = 0; k < kStreamSteps; ++k) {
    for (std::uint64_t& v : y) v = v * kMul + kAdd;
    asm volatile("" : "+r"(y[0]), "+r"(y[1]), "+r"(y[2]), "+r"(y[3]),
                 "+r"(y[4]), "+r"(y[5]), "+r"(y[6]), "+r"(y[7]));
  }
  const double ms = (now_s() - t0) * 1e3;
  return ms / kReferenceMs;
}

namespace {
thread_local std::vector<std::size_t> t_open_spans;
double span_clock_us() { return now_s() * 1e6; }
}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::size_t Tracer::begin(const char* name, std::size_t request) {
  SpanRecord rec;
  rec.name = name;
  rec.request = request;
  rec.parent = t_open_spans.empty() ? -1 : static_cast<long>(t_open_spans.back());
  rec.start_us = span_clock_us();
  rec.end_us = rec.start_us;
  std::size_t index = 0;
  {
    const std::lock_guard lock(mutex_);
    index = spans_.size();
    spans_.push_back(rec);
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::end(std::size_t index) {
  const double end = span_clock_us();
  {
    const std::lock_guard lock(mutex_);
    spans_[index].end_us = end;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == index) {
    t_open_spans.pop_back();
  }
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::durations_us(const char* name) const {
  const std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (std::string_view(s.name) == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<double> self = self_times_us(all);
  std::ofstream out(path);
  for (std::size_t i = 0; i < all.size(); ++i) {
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%ld,\"request\":%zu,"
                  "\"self_us\":%.3f}\n",
                  i, all[i].name, all[i].start_us, all[i].end_us,
                  all[i].parent, all[i].request, self[i]);
    out << line;
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name, std::size_t request) {
  Tracer& tracer = Tracer::global();
  if (tracer.on()) {
    index_ = tracer.begin(name, request);
    active_ = true;
  }
}

Span::~Span() {
  if (active_) Tracer::global().end(index_);
}

void Report::metric(const std::string& name, const std::string& unit,
                    double value, std::size_t samples) {
  metrics_[name] = Metric{unit, value, samples};
}

void Report::counter(const std::string& name, std::uint64_t value) {
  counters_[name] = value;
}

void Report::note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::printf("FAILED check: %s\n", what.c_str());
  }
}

void Report::checked(std::size_t n, std::size_t failures,
                     const std::string& what) {
  attempted_ += n;
  failed_ += failures;
  if (failures != 0) {
    std::printf("FAILED check: %zu of %zu %s\n", failures, n, what.c_str());
  }
}

void Report::invalidate(const std::string& why) {
  if (invalid_.empty()) invalid_ = why;
}

void Report::print(const std::vector<MetricSpec>& selected) const {
  for (const auto& [key, value] : notes_) {
    std::printf("host %-28s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, value] : counters_) {
    std::printf("counter %-28s %" PRIu64 "\n", name.c_str(), value);
  }
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %-30s %.6g %s (n=%zu)\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  const double failed_frac =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("metric %-30s %.6g ratio (n=%zu)\n", "failed_frac", failed_frac,
              attempted_);

  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_ == 0 ? 1 : attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : selected) {
    const auto it = metrics_.find(spec.name);
    const double value = it == metrics_.end() ? 0.0 : it->second.value;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!first) json += ", ";
    first = false;
    json += std::string("\"") + spec.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void record_work_counters(Report& report) {
  static const char* const kCounters[] = {
      "bgp.sim.events",     "bgp.sim.runs",
      "sim.overlay.delta_events", "measure.censuses",
      "measure.probes.sent", "optimizer.configs_evaluated",
      "agility.candidates", "serve.queries"};
  const auto& reg = anyopt::telemetry::Registry::global();
  for (const char* name : kCounters) {
    report.counter(name, reg.counter_value(name));
  }
  // High-water marks of the retained-bytes gauges.
  for (const char* name : anyopt::resmon::kByteGauges) {
    report.counter(std::string(name) + ".max",
                   static_cast<std::uint64_t>(reg.gauge_max(name)));
  }
}

}  // namespace perfbench
