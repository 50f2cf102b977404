#pragma once
// Shared plumbing of the workloads: arguments, clocks, the span tracer and
// the report that prints metrics, counters and the final result line.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "metrics.h"
#include "netbase/telemetry.h"
#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  ///< traced runs write their spans here at exit
  std::string commit = "unknown";
  std::string dirty = "unknown";
};

/// Worker threads the workloads may use: the host's processor count.
[[nodiscard]] std::size_t nproc();

/// Steady-clock seconds since an arbitrary epoch.
[[nodiscard]] double now_s();
/// User + system CPU seconds this process has used.
[[nodiscard]] double cpu_s();
/// User + system CPU seconds the calling thread has used.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Host-speed probe: fixed work that is not the program's, timed next to
/// each unit of the program's work.  The host this benchmark runs on is
/// shared, and its neighbours' load moves memory latency and core speed by
/// more than the benchmark's bounds, over seconds and over hours.  The gated
/// times are therefore scaled to a reference host speed: a unit's time is
/// divided by the probe's factor, its time over `kReferenceMs`.  The probe is
/// a dependent walk through random lines of a 256 MiB ring, well past the
/// last-level cache and through 4 KiB pages like the program's own
/// allocations (memory latency), plus multiply-add chains, one serial and
/// eight independent (core speed, and the share of the core a neighbour
/// leaves).
class HostProbe {
 public:
  /// Probe time that defines factor 1: the probe's median on a quiet
  /// 4-vCPU Xeon virtual machine.
  static constexpr double kReferenceMs = 100.0;

  /// The process's probe, built on first use.
  static const HostProbe& global();

  /// Runs the probe once; its time over `kReferenceMs`.
  [[nodiscard]] double factor() const;
  /// Bytes the ring keeps resident.
  [[nodiscard]] std::size_t bytes() const {
    return next_.size() * sizeof(std::uint32_t);
  }

 private:
  HostProbe();
  std::vector<std::uint32_t> next_;  ///< one cycle through every slot
};

/// One unit of work timed by `ProbedTimer`.
struct Timed {
  double wall_s = 0;
  double cpu_s = 0;
  double factor = 1;  ///< host factor around the unit
  [[nodiscard]] double scaled_wall_s() const { return wall_s / factor; }
  [[nodiscard]] double scaled_cpu_s() const { return cpu_s / factor; }
};

/// Times consecutive units of work, each with the host factor around it:
/// the mean of the probe run just before the unit and the one just after
/// (a unit's closing probe opens the next).  Without a probe the factor is 1.
class ProbedTimer {
 public:
  explicit ProbedTimer(const HostProbe* probe)
      : probe_(probe), before_(probe != nullptr ? probe->factor() : 1.0) {}

  template <class F>
  Timed time(F&& fn) {
    Timed t;
    const double w0 = now_s();
    const double c0 = cpu_s();
    fn();
    t.wall_s = now_s() - w0;
    t.cpu_s = cpu_s() - c0;
    const double after = probe_ != nullptr ? probe_->factor() : 1.0;
    t.factor = (before_ + after) / 2;
    before_ = after;
    return t;
  }

 private:
  const HostProbe* probe_;
  double before_;
};

/// Runs `fn` with the library's telemetry registry on (counters and
/// histograms, no trace events) and returns with it off again.
template <class F>
void with_telemetry(F&& fn) {
  anyopt::telemetry::set_enabled(true);
  try {
    fn();
  } catch (...) {
    anyopt::telemetry::set_enabled(false);
    throw;
  }
  anyopt::telemetry::set_enabled(false);
}

/// In-memory span recorder.  Off until a traced run enables it around the
/// part it traces; a disabled `Span` costs one branch.  Spans opened on one
/// thread nest under that thread's innermost open span.  The telemetry
/// registry's event sink does not serve here: it reads back only as rendered
/// Chrome JSON, its events carry no parent or request id, it also collects
/// the library's own spans, and its histograms give percentiles only to
/// log2-bucket resolution.
class Tracer {
 public:
  static Tracer& global();
  [[nodiscard]] bool on() const {
    return on_.load(std::memory_order_relaxed);
  }
  void enable() { on_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] std::size_t begin(const char* name, std::size_t request);
  void end(std::size_t index);
  /// Copy of every span recorded so far (closed or not).
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Durations in microseconds of the closed spans called `name`.
  [[nodiscard]] std::vector<double> durations_us(const char* name) const;
  /// Writes one JSON object per span to `path`; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  explicit Span(const char* name, std::size_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::size_t index_ = 0;
  bool active_ = false;
};

/// Metrics, work counters and correctness accounting of one run.
class Report {
 public:
  void metric(const std::string& name, const std::string& unit, double value,
              std::size_t samples);
  void counter(const std::string& name, std::uint64_t value);
  void note(const std::string& key, const std::string& value);
  /// Counts one checked operation; a false `ok` counts it as failed.
  void check(bool ok, const std::string& what);
  /// Counts `n` checked operations of which `failures` failed.
  void checked(std::size_t n, std::size_t failures, const std::string& what);
  /// Marks the run as unusable for timing (e.g. the load generator fell
  /// behind); it then prints no result line and exits non-zero.
  void invalidate(const std::string& why);

  [[nodiscard]] bool has(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  [[nodiscard]] bool invalid() const { return !invalid_.empty(); }
  [[nodiscard]] const std::string& invalid_reason() const { return invalid_; }

  /// Prints every metric, counter and note as `key value` lines, then the
  /// final JSON result line holding only the `selected` metrics (a metric
  /// a run did not produce reads 0).
  void print(const std::vector<MetricSpec>& selected) const;

 private:
  struct Metric {
    std::string unit;
    double value = 0;
    std::size_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::string invalid_;
};

/// Set-up: runs `build` `repeats` times between host probes and reports
/// the median scaled time as `setup_s` and the median measured one as
/// `wall_setup_s`.
template <class F>
void time_setup(int repeats, F&& build, Report& report) {
  ProbedTimer timer(&HostProbe::global());
  std::vector<double> scaled;
  std::vector<double> wall;
  for (int i = 0; i < repeats; ++i) {
    const Timed t = timer.time(build);
    scaled.push_back(t.scaled_wall_s());
    wall.push_back(t.wall_s);
  }
  report.metric("setup_s", "s", median(scaled), scaled.size());
  report.metric("wall_setup_s", "s", median(wall), wall.size());
}

/// The work counters every run records from the library's registry (each
/// must repeat exactly across runs of the same code and seed), plus the
/// high-water marks of the `bytes.*` gauges.
void record_work_counters(Report& report);

/// The workloads: each fills `report` or throws on a failure to run.
void run_pipeline(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);
void run_internet(const Args& args, Report& report);

}  // namespace perfbench
