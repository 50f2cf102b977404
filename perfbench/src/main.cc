// AnyOpt benchmark: one binary, three workloads.
//
//   perfbench --workload pipeline|serve|internet --seed N --seconds S
//             --trace 0|1 [--spans-out FILE] [--commit SHA --dirty 0|1]
//
// Every run prints its metrics, work counters and host fingerprint as
// `metric|counter|host ...` lines, then one JSON result line.  With
// `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
// the per-layer ones (see README.md for what each measures).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "metrics.h"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--dirty") {
      args.dirty = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: argument without a value\n");
    return false;
  }
  return !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload pipeline|serve|internet "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Report report;
  report.note("nproc", std::to_string(nproc()));
  report.note("cpu_model", cpu_model());
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("commit", args.commit);
  report.note("dirty", args.dirty);
  report.note("workload", args.workload);
  report.note("seed", std::to_string(args.seed));

  try {
    if (args.workload == "pipeline") {
      run_pipeline(args, report);
    } else if (args.workload == "serve") {
      run_serve(args, report);
    } else if (args.workload == "internet") {
      run_internet(args, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (args.trace && !args.spans_out.empty() &&
      !Tracer::global().write(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_out.c_str());
    return 1;
  }
  // The host probe's ring is resident from the first setup on; it is the
  // benchmark's, not the program's.
  report.metric("peak_rss_mb", "MB",
                peak_rss_mb() -
                    static_cast<double>(HostProbe::global().bytes()) /
                        (1024.0 * 1024.0),
                1);
  if (report.invalid()) {
    std::fprintf(stderr, "perfbench: run invalid: %s\n",
                 report.invalid_reason().c_str());
    return 3;
  }
  const std::vector<MetricSpec>& selected =
      args.trace ? per_layer_metrics() : end_to_end_metrics();
  if (!args.trace) {
    for (const MetricSpec& m : selected) {
      if (!report.has(m.name)) {
        std::fprintf(stderr, "perfbench: workload did not measure %s\n",
                     m.name);
        return 1;
      }
    }
  }
  report.print(selected);
  return 0;
}
