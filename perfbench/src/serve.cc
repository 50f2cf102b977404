// Workload `serve`: open-loop what-if queries against an in-process
// `serve::Server` over AF_UNIX.
//
// Setup builds the paper-scale snapshot.  The run seed generates a pool of
// distinct request lines in the exact mix 70% point predicts (16-64
// clients), 10% full-population predicts, 15% `score`, 5% `info`, and a
// Poisson arrival schedule.  One generator thread sends the lines over
// persistent connections at a fixed nominal rate, then up a rate ladder,
// and times every request from when it was due.  Every response must be
// byte-identical to the single-threaded in-process answer computed during
// setup.

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "anycast/config.h"
#include "anycast/world.h"
#include "decompose.h"
#include "harness.h"
#include "netbase/rng.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace perfbench {

using namespace anyopt;

namespace {

constexpr std::uint64_t kWorldSeed = 1897;
constexpr int kSetupRepeats = 3;
constexpr double kNominalQps = 50;
constexpr double kLadder[] = {50, 100, 150, 200, 300, 400, 600, 800, 1200, 1600};
constexpr double kStepSeconds = 1.0;
constexpr double kLimitMs = 50;
constexpr double kMaxGeneratorLateMs = 20;
constexpr int kNominalAttempts = 3;
constexpr std::size_t kWireRequests = 300;

enum class Kind { kPredict, kPredictFull, kScore, kInfo };
constexpr const char* kKindNames[] = {"predict", "predict_full", "score",
                                      "info"};

struct Line {
  std::string text;
  Kind kind = Kind::kInfo;
};

std::string sites_json(Rng& rng, std::size_t sites, std::size_t count) {
  std::vector<std::uint32_t> order(sites);
  for (std::uint32_t s = 0; s < sites; ++s) order[s] = s;
  std::string out = "[";
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(order[i], order[i + rng.below(sites - i)]);
    if (i > 0) out += ",";
    out += std::to_string(order[i]);
  }
  return out + "]";
}

/// `count` distinct request lines in the exact op mix, in seeded order.
std::vector<Line> make_pool(const serve::Snapshot& snapshot, std::size_t count,
                            Rng& rng) {
  const std::size_t sites = snapshot.site_count();
  const std::size_t targets = snapshot.target_count();
  std::vector<Kind> deck;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slot = i * 100 / count;  // exact shares per 100
    deck.push_back(slot < 70   ? Kind::kPredict
                   : slot < 80 ? Kind::kPredictFull
                   : slot < 95 ? Kind::kScore
                               : Kind::kInfo);
  }
  rng.shuffle(deck);
  std::vector<Line> pool;
  for (const Kind kind : deck) {
    Line line;
    line.kind = kind;
    switch (kind) {
      case Kind::kPredict: {
        line.text = "{\"op\":\"predict\",\"sites\":" +
                    sites_json(rng, sites, 1 + rng.below(5)) +
                    ",\"clients\":[";
        const std::size_t clients = 16 + rng.below(49);
        for (std::size_t i = 0; i < clients; ++i) {
          if (i > 0) line.text += ",";
          line.text += std::to_string(rng.below(targets));
        }
        line.text += "]}";
        break;
      }
      case Kind::kPredictFull:
        line.text = "{\"op\":\"predict\",\"sites\":" +
                    sites_json(rng, sites, 2 + rng.below(3)) + "}";
        break;
      case Kind::kScore:
        line.text = "{\"op\":\"score\",\"sites\":" +
                    sites_json(rng, sites, 2 + rng.below(4)) + "}";
        break;
      case Kind::kInfo:
        line.text = "{\"op\":\"info\"}";
        break;
    }
    pool.push_back(std::move(line));
  }
  return pool;
}

int connect_to(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) break;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  throw std::runtime_error("cannot connect to " + path);
}

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> inflight;  ///< phase request indices, FIFO
};

struct PhaseResult {
  std::vector<OpenLoopRequest> requests;  ///< sent ones only
  std::vector<std::size_t> lines;         ///< pool index per request
  std::size_t mismatches = 0;
  bool aborted = false;
  [[nodiscard]] std::vector<double> latency_ms() const {
    std::vector<double> v;
    for (const OpenLoopRequest& r : requests) v.push_back(latency_from_due_s(r) * 1e3);
    return v;
  }
  [[nodiscard]] std::vector<double> lateness_ms() const {
    std::vector<double> v;
    for (const OpenLoopRequest& r : requests) v.push_back(generator_lateness_s(r) * 1e3);
    return v;
  }
};

/// Sends `count` Poisson arrivals at `rate` over the connections and waits
/// for every answer.  `sequential` sends the pool's lines in order, each
/// once; otherwise lines are drawn at random.  With `abort_backlog`, stops
/// sending once more than that many requests are outstanding (a backlog
/// that keeps growing).
PhaseResult run_phase(std::vector<Conn>& conns, const std::vector<Line>& pool,
                      const std::vector<std::string>& expected, double rate,
                      std::size_t count, bool sequential,
                      std::size_t abort_backlog, Rng& rng) {
  PhaseResult r;
  std::vector<double> due(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(1.0 / rate);
    due[i] = t;
    r.lines.push_back(sequential ? i % pool.size() : rng.below(pool.size()));
  }
  r.requests.resize(count);
  std::vector<pollfd> fds(conns.size());
  const double start = now_s() + 0.002;
  std::size_t next = 0;
  std::size_t done = 0;
  const double give_up = start + t + 60.0;
  while (done < next || (!r.aborted && next < count)) {
    double now = now_s();
    if (now > give_up) throw std::runtime_error("server stopped answering");
    while (!r.aborted && next < count && start + due[next] <= now) {
      Conn& c = conns[next % conns.size()];
      c.out += pool[r.lines[next]].text;
      c.out += '\n';
      c.inflight.push_back(next);
      r.requests[next].due_s = start + due[next];
      r.requests[next].sent_s = now;
      ++next;
      if (abort_backlog != 0 && next - done > abort_backlog) r.aborted = true;
    }
    for (std::size_t k = 0; k < conns.size(); ++k) {
      Conn& c = conns[k];
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n <= 0) break;
        c.out_off += static_cast<std::size_t>(n);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
      fds[k] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                0};
    }
    double wait_s = 0.05;
    if (!r.aborted && next < count) {
      wait_s = std::max(0.0, start + due[next] - now_s());
    }
    const auto wait_ns = static_cast<long>(wait_s * 1e9);
    const timespec ts{wait_ns / 1000000000, wait_ns % 1000000000};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    for (std::size_t k = 0; k < conns.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[k];
      char buf[65536];
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (n < 0) continue;
      now = now_s();
      c.in.append(buf, static_cast<std::size_t>(n));
      std::size_t begin = 0;
      for (std::size_t nl = c.in.find('\n'); nl != std::string::npos;
           nl = c.in.find('\n', begin)) {
        if (c.inflight.empty()) throw std::runtime_error("unexpected response");
        const std::size_t i = c.inflight.front();
        c.inflight.pop_front();
        r.requests[i].done_s = now;
        if (c.in.compare(begin, nl - begin, expected[r.lines[i]]) != 0) {
          ++r.mismatches;
        }
        ++done;
        begin = nl + 1;
      }
      c.in.erase(0, begin);
    }
  }
  r.requests.resize(next);
  r.lines.resize(next);
  return r;
}

/// The open-loop part of a run: the server, its connections and phases.
class Harness {
 public:
  Harness(serve::Service& service, std::size_t workers)
      : path_(".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock"),
        server_(service, serve::ServerOptions{path_, workers, 16}) {
    ::mkdir(".bench_build", 0755);
    thread_ = std::thread([this] { status_ = server_.serve(); });
    try {
      for (std::size_t i = 0; i < workers; ++i) {
        conns_.push_back(Conn{});
        conns_.back().fd = connect_to(path_);
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Harness() { stop(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  std::vector<Conn>& conns() { return conns_; }

 private:
  void stop() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    server_.shutdown();
    if (thread_.joinable()) thread_.join();
    if (!status_.ok()) {
      std::fprintf(stderr, "perfbench: server: %s\n",
                   status_.error().message.c_str());
    }
    ::unlink(path_.c_str());
  }

  std::string path_;
  serve::Server server_;
  Status status_;
  std::vector<Conn> conns_;
  std::thread thread_;
};

/// Server workers and connections: one generator thread and the accept
/// loop also run, and together they stay within the host's processors.
std::size_t worker_count() {
  const std::size_t n = nproc();
  return n >= 4 ? (n - 2) / 2 : 1;
}

anycast::AnycastConfig config_of(const serve::Request& request) {
  std::vector<SiteId> order;
  for (const std::uint32_t s : request.sites) {
    order.push_back(SiteId{static_cast<SiteId::underlying_type>(s)});
  }
  return anycast::AnycastConfig::of_sites(std::move(order));
}

void trace_layers(serve::Service& service, const std::vector<Line>& pool,
                  const std::vector<std::string>& expected, Rng& rng,
                  Report& report) {
  const std::shared_ptr<const serve::Snapshot> snapshot = service.current();
  const std::size_t n = pool.size();

  // Untraced replay through handle_line, per line.
  std::vector<double> handle_us(n);
  double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    const double s = now_s();
    (void)service.handle_line(pool[i].text);
    handle_us[i] = (now_s() - s) * 1e6;
  }
  const double plain_s = now_s() - t0;

  // Traced replay through parse_request and Service::execute, with the
  // registry on as well.
  Tracer::global().enable();
  anyopt::telemetry::set_enabled(true);
  static constexpr const char* kExecSpan[] = {
      "serve.execute.predict", "serve.execute.predict_full",
      "serve.execute.score", "serve.execute.info"};
  t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    const Span request_span("serve.request", i);
    std::optional<Result<serve::Request>> parsed;
    {
      const Span span("serve.parse", i);
      parsed.emplace(serve::parse_request(pool[i].text));
    }
    std::string response;
    {
      const Span span(kExecSpan[static_cast<int>(pool[i].kind)], i);
      response = serve::Service::execute(*snapshot, parsed->value());
    }
    report.check(response == expected[i],
                 "execute equals handle_line for request " + std::to_string(i));
  }
  report.metric("trace.overhead_frac", "ratio", (now_s() - t0) / plain_s - 1.0, 1);

  // The core calls behind each op.
  for (std::size_t i = 0; i < n; ++i) {
    const serve::Request request =
        serve::parse_request(pool[i].text).value();
    const anycast::AnycastConfig config = config_of(request);
    switch (pool[i].kind) {
      case Kind::kPredict: {
        std::vector<TargetId> clients;
        for (const std::uint32_t c : request.clients) {
          clients.push_back(TargetId{static_cast<TargetId::underlying_type>(c)});
        }
        const Span span("core.predict_subset", i);
        (void)snapshot->predictor().predict_subset(config, clients);
        break;
      }
      case Kind::kPredictFull: {
        const Span span("core.predict_full", i);
        (void)snapshot->predictor().predict(config);
        break;
      }
      case Kind::kScore: {
        const Span span("core.evaluate", i);
        (void)snapshot->optimizer().evaluate_uncached(config);
        break;
      }
      case Kind::kInfo:
        break;
    }
  }

  anyopt::telemetry::set_enabled(false);

  const Tracer& tracer = Tracer::global();
  const auto med = [&](const char* name) {
    return median(tracer.durations_us(name));
  };
  report.metric("serve.parse_us", "us", med("serve.parse"), n);
  for (int k = 0; k < 4; ++k) {
    report.metric(std::string("serve.execute_us.") + kKindNames[k], "us",
                  med(kExecSpan[k]), tracer.durations_us(kExecSpan[k]).size());
  }
  report.metric("core.predict_subset_us", "us", med("core.predict_subset"),
                tracer.durations_us("core.predict_subset").size());
  report.metric("core.predict_full_ms", "ms", med("core.predict_full") / 1e3,
                tracer.durations_us("core.predict_full").size());
  report.metric("core.evaluate_ms", "ms", med("core.evaluate") / 1e3,
                tracer.durations_us("core.evaluate").size());

  // Wire cost: socket round trip minus the in-process handle_line time of
  // the same line, from a short open-loop phase at the nominal rate.
  Harness harness(service, worker_count());
  const PhaseResult phase = run_phase(harness.conns(), pool, expected,
                                      kNominalQps, kWireRequests, true, 0, rng);
  std::vector<double> wire_us;
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    const OpenLoopRequest& r = phase.requests[i];
    wire_us.push_back((r.done_s - r.sent_s) * 1e6 - handle_us[phase.lines[i]]);
  }
  report.metric("serve.wire_us", "us", median(wire_us), wire_us.size());
  report.metric("serve.gen_late_ms", "ms",
                supported_tail(phase.lateness_ms()).value,
                phase.requests.size());
  report.checked(phase.requests.size(), phase.mismatches,
                 "traced open-loop responses equal the reference");
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  serve::SnapshotOptions options;
  options.seed = kWorldSeed;
  options.threads = nproc();

  // Each build replaces the last; the last one is kept.
  std::shared_ptr<serve::Snapshot> snapshot;
  time_setup(
      kSetupRepeats,
      [&] {
        snapshot.reset();
        Result<std::shared_ptr<serve::Snapshot>> built =
            serve::Snapshot::build(options);
        if (!built.ok()) throw std::runtime_error(built.error().message);
        snapshot = std::move(built).value();
      },
      report);

  serve::Service service;
  service.publish(std::move(snapshot));

  // The request pool: as many distinct lines as the nominal phase sends.
  Rng rng{args.seed};
  const auto nominal_count =
      static_cast<std::size_t>(kNominalQps * args.seconds);
  const std::vector<Line> pool =
      make_pool(*service.current(), std::max<std::size_t>(nominal_count, 1000), rng);

  // Single-threaded in-process reference answers, with the registry
  // counting work.
  anyopt::telemetry::Registry::global().reset();
  std::vector<std::string> expected;
  with_telemetry([&] {
    for (const Line& line : pool) expected.push_back(service.handle_line(line.text));
    record_work_counters(report);
  });
  for (const std::string& e : expected) {
    report.check(e.compare(0, 10, "{\"ok\":true") == 0, "reference answer ok");
  }

  if (args.trace) {
    trace_layers(service, pool, expected, rng, report);
    trace_world_build(anycast::WorldParams::paper_scale(kWorldSeed), report);
    return;
  }

  Harness harness(service, worker_count());
  report.note("serve_workers", std::to_string(worker_count()));

  // Nominal rate.  A phase whose generator fell behind its schedule
  // measured the generator, not the server: it is discarded and re-run.
  PhaseResult nominal;
  double nominal_cpu = 0;
  double late = 0;
  for (int attempt = 1; attempt <= kNominalAttempts; ++attempt) {
    // Server CPU: the process's, minus the generator thread's.
    const double c0 = cpu_s() - thread_cpu_s();
    nominal = run_phase(harness.conns(), pool, expected, kNominalQps,
                        nominal_count, true, 0, rng);
    nominal_cpu = cpu_s() - thread_cpu_s() - c0;
    report.checked(nominal.requests.size(), nominal.mismatches,
                   "nominal responses equal the reference");
    late = supported_tail(nominal.lateness_ms()).value;
    if (late <= kMaxGeneratorLateMs) break;
    std::printf("nominal phase %d invalid: generator %.3f ms late at its "
                "tail\n", attempt, late);
    if (attempt == kNominalAttempts) {
      report.invalidate("generator ran " + std::to_string(late) +
                        " ms late at its tail in every nominal phase");
    }
  }
  const std::vector<double> lat = nominal.latency_ms();
  const Tail tail = supported_tail(lat);
  // The gated latency is the median of the common query, the point
  // predict: the overall median sits where half the requests start to
  // queue behind a heavy op, so it jumps with small changes in load.
  std::vector<double> point;
  for (std::size_t i = 0; i < lat.size(); ++i) {
    if (pool[nominal.lines[i]].kind == Kind::kPredict) point.push_back(lat[i]);
  }
  report.metric("latency_ms", "ms", median(point), point.size());
  report.metric("p50_ms", "ms", median(lat), lat.size());
  // The highest percentile the sample supports: p99 from 1000 requests.
  char tail_name[32];
  std::snprintf(tail_name, sizeof tail_name, "p%g_ms", tail.percentile);
  report.metric(tail.percentile > 0 ? tail_name : "max_ms", "ms",
                tail.percentile > 0 ? tail.value : quantile(lat, 1.0), lat.size());
  // Server CPU per request, so the figure does not grow with run length.
  report.metric("cpu_s", "s",
                nominal_cpu / static_cast<double>(nominal.requests.size()),
                nominal.requests.size());
  report.metric("serve.gen_late_ms", "ms", late, lat.size());

  // Rate ladder: stop at the first rate that misses the limit.
  double max_qps = 0;
  for (const double rate : kLadder) {
    const auto count = static_cast<std::size_t>(rate * kStepSeconds);
    const auto backlog = static_cast<std::size_t>(
        std::max(16.0, rate * kLimitMs / 1e3 * 4));
    const PhaseResult step =
        run_phase(harness.conns(), pool, expected, rate, count, false, backlog, rng);
    report.checked(step.requests.size(), step.mismatches,
                   "ladder responses equal the reference");
    const double p99 = quantile(step.latency_ms(), 0.99);
    std::printf("ladder %6.0f qps: sent %zu, p99 %.2f ms%s\n", rate,
                step.requests.size(), p99, step.aborted ? ", backlog grew" : "");
    if (step.aborted || p99 > kLimitMs) break;
    max_qps = rate;
  }
  report.metric("max_qps", "1/s", max_qps, 1);
}

}  // namespace perfbench
