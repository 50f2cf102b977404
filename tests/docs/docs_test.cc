// Markdown hygiene for the repo's documentation set.
//
//  * Every relative link in the top-level *.md files must resolve to an
//    existing file (broken cross-references are how architecture docs
//    rot).
//  * CHANGES.md must carry one "PR N:" entry per PR, in order — the
//    contract the stacked-PR workflow relies on.
//  * README.md must point readers at the architecture overview.
//
// The source tree location is injected by CMake as ANYOPT_SOURCE_DIR.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

fs::path source_dir() { return fs::path{ANYOPT_SOURCE_DIR}; }

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Top-level markdown documents (the checked set; build trees excluded by
/// construction since iteration is non-recursive).
std::vector<fs::path> markdown_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(source_dir())) {
    if (entry.is_regular_file() && entry.path().extension() == ".md") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Extracts `[text](target)` link targets outside fenced code blocks.
std::vector<std::string> link_targets(const std::string& markdown) {
  std::vector<std::string> targets;
  bool in_fence = false;
  std::istringstream lines(markdown);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("```", 0) == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (in_fence) continue;
    for (std::size_t at = line.find("]("); at != std::string::npos;
         at = line.find("](", at + 2)) {
      const std::size_t start = at + 2;
      const std::size_t end = line.find(')', start);
      if (end == std::string::npos) break;
      const std::string target = line.substr(start, end - start);
      const bool external = target.find("://") != std::string::npos ||
                            target.rfind("mailto:", 0) == 0;
      const bool anchor_only = !target.empty() && target.front() == '#';
      const bool has_space =
          target.find(' ') != std::string::npos || target.empty();
      if (!external && !anchor_only && !has_space) targets.push_back(target);
    }
  }
  return targets;
}

TEST(DocsTest, TopLevelMarkdownSetIsPresent) {
  const auto files = markdown_files();
  ASSERT_FALSE(files.empty());
  const auto has = [&](const char* name) {
    return std::any_of(files.begin(), files.end(), [&](const fs::path& p) {
      return p.filename() == name;
    });
  };
  EXPECT_TRUE(has("README.md"));
  EXPECT_TRUE(has("ARCHITECTURE.md"));
  EXPECT_TRUE(has("DESIGN.md"));
  EXPECT_TRUE(has("EXPERIMENTS.md"));
  EXPECT_TRUE(has("CHANGES.md"));
}

TEST(DocsTest, RelativeLinksResolve) {
  for (const fs::path& file : markdown_files()) {
    const std::string markdown = read_file(file);
    for (const std::string& raw : link_targets(markdown)) {
      // Strip a trailing #fragment; the file part must exist.
      const std::string target = raw.substr(0, raw.find('#'));
      if (target.empty()) continue;
      const fs::path resolved = file.parent_path() / target;
      EXPECT_TRUE(fs::exists(resolved))
          << file.filename().string() << " links to missing " << raw;
    }
  }
}

TEST(DocsTest, ChangesHasOneOrderedEntryPerPr) {
  const std::string changes = read_file(source_dir() / "CHANGES.md");
  std::istringstream lines(changes);
  std::string line;
  long previous = 0;
  std::size_t entries = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    // Notes on faults seen ("FOUND: ...") or since fixed ("MENDED: ...")
    // follow the PR entry that recorded them and carry a description.
    if (line.rfind("FOUND: ", 0) == 0 || line.rfind("MENDED: ", 0) == 0) {
      EXPECT_GT(previous, 0) << "note before any PR entry: " << line;
      EXPECT_GT(line.size(), 20u) << "note without a description: " << line;
      continue;
    }
    // Every other non-empty line is one PR's record: "PR <number>: <summary>".
    ASSERT_EQ(line.rfind("PR ", 0), 0u) << "unexpected line: " << line;
    std::size_t digits = 3;
    while (digits < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[digits])) != 0) {
      ++digits;
    }
    ASSERT_GT(digits, 3u) << "no PR number in: " << line;
    ASSERT_EQ(line.substr(digits, 2), ": ") << "malformed entry: " << line;
    const long number = std::stol(line.substr(3, digits - 3));
    ASSERT_EQ(number, previous + 1)
        << "PR entries must be contiguous and ordered; after PR " << previous
        << " found PR " << number;
    previous = number;
    ++entries;
    EXPECT_GT(line.size(), digits + 10u)
        << "PR " << number << " entry has no summary";
  }
  EXPECT_GE(entries, 4u);  // PRs 1..4 are in history already
}

TEST(DocsTest, PersistenceIsDocumentedAcrossTheDocSet) {
  // PR 5's store layer must stay discoverable from all three entry
  // points: the README quickstart, the architecture map, and the design
  // rationale (format + invariants).
  const std::string readme = read_file(source_dir() / "README.md");
  EXPECT_NE(readme.find("--store="), std::string::npos)
      << "README.md must document the --store=FILE bench flag";
  EXPECT_NE(readme.find("anyopt_store"), std::string::npos)
      << "README.md must carry the anyopt_store CLI quickstart";

  const std::string architecture = read_file(source_dir() / "ARCHITECTURE.md");
  EXPECT_NE(architecture.find("`store.h`"), std::string::npos)
      << "ARCHITECTURE.md module map must place the result store";
  EXPECT_NE(architecture.find("result store"), std::string::npos)
      << "ARCHITECTURE.md dataflow must show the store layer";

  const std::string design = read_file(source_dir() / "DESIGN.md");
  EXPECT_NE(design.find("## 7. Persistence"), std::string::npos)
      << "DESIGN.md must keep the Persistence section (format contract)";
  EXPECT_NE(design.find("census_key"), std::string::npos)
      << "DESIGN.md Persistence must explain the content-derived keys";
}

TEST(DocsTest, ReadmeLinksTheArchitectureOverview) {
  const std::string readme = read_file(source_dir() / "README.md");
  EXPECT_NE(readme.find("](ARCHITECTURE.md)"), std::string::npos)
      << "README.md must link to ARCHITECTURE.md";
}

TEST(DocsTest, ObservabilityIsDocumentedAcrossTheDocSet) {
  // PR 7's observability layer must stay discoverable from every entry
  // point: the README quickstart, the architecture dataflow, the design
  // rationale, and the change log.
  const std::string readme = read_file(source_dir() / "README.md");
  EXPECT_NE(readme.find("anyopt_bench"), std::string::npos)
      << "README.md must carry the anyopt_bench CLI quickstart";
  EXPECT_NE(readme.find("--resmon"), std::string::npos)
      << "README.md must document the --resmon bench flag";
  EXPECT_NE(readme.find("--provenance-out"), std::string::npos)
      << "README.md must document the --provenance-out bench flag";

  const std::string changes = read_file(source_dir() / "CHANGES.md");
  EXPECT_NE(changes.find("anyopt_bench"), std::string::npos)
      << "CHANGES.md must record the PR that introduced anyopt_bench";

  const std::string architecture = read_file(source_dir() / "ARCHITECTURE.md");
  EXPECT_NE(architecture.find("`resmon.h`"), std::string::npos)
      << "ARCHITECTURE.md module map must place the resource monitor";
  EXPECT_NE(architecture.find("provenance"), std::string::npos)
      << "ARCHITECTURE.md must show the provenance flight log";

  const std::string design = read_file(source_dir() / "DESIGN.md");
  EXPECT_NE(design.find("## 9. Resource telemetry"), std::string::npos)
      << "DESIGN.md must keep the resource telemetry & provenance section";
  EXPECT_NE(design.find("bytes."), std::string::npos)
      << "DESIGN.md must explain the per-subsystem byte gauges";
}

TEST(DocsTest, ServeLayerIsDocumentedAcrossTheDocSet) {
  // The what-if prediction service must stay discoverable from every
  // entry point: the README quickstart + wire protocol, the architecture
  // dataflow with its publication invariant, the design rationale for the
  // lock-free read path, and the experiments table's serve row.
  const std::string readme = read_file(source_dir() / "README.md");
  EXPECT_NE(readme.find("anyoptd"), std::string::npos)
      << "README.md must carry the anyoptd quickstart";
  EXPECT_NE(readme.find("--oneshot"), std::string::npos)
      << "README.md must document anyoptd's --oneshot mode";
  EXPECT_NE(readme.find("\"op\":\"predict\""), std::string::npos)
      << "README.md must show the wire protocol's predict request";

  const std::string architecture = read_file(source_dir() / "ARCHITECTURE.md");
  EXPECT_NE(architecture.find("serve/"), std::string::npos)
      << "ARCHITECTURE.md module map must place the serve layer";
  EXPECT_NE(architecture.find("never observes a partially-loaded snapshot"),
            std::string::npos)
      << "ARCHITECTURE.md must state the snapshot publication invariant";

  const std::string design = read_file(source_dir() / "DESIGN.md");
  EXPECT_NE(design.find("lock-free"), std::string::npos)
      << "DESIGN.md must explain the lock-free snapshot read path";
  EXPECT_NE(design.find("anyoptd"), std::string::npos)
      << "DESIGN.md must cover the anyoptd daemon";

  const std::string experiments = read_file(source_dir() / "EXPERIMENTS.md");
  EXPECT_NE(experiments.find("bench_serve"), std::string::npos)
      << "EXPERIMENTS.md must carry the serve QPS/latency row";
}

TEST(DocsTest, AgilityIsDocumentedAcrossTheDocSet) {
  // PR 10's agility engine must stay discoverable from every entry
  // point: the README mitigate quickstart, the architecture module map +
  // dataflow, the design rationale, and the experiments numbers.
  const std::string readme = read_file(source_dir() / "README.md");
  EXPECT_NE(readme.find("\"op\":\"mitigate\""), std::string::npos)
      << "README.md must show the wire protocol's mitigate request";
  EXPECT_NE(readme.find("bench_agility"), std::string::npos)
      << "README.md must mention the agility bench";

  const std::string architecture = read_file(source_dir() / "ARCHITECTURE.md");
  EXPECT_NE(architecture.find("agility/"), std::string::npos)
      << "ARCHITECTURE.md module map must place the agility layer";
  EXPECT_NE(architecture.find("time-to-mitigate"), std::string::npos)
      << "ARCHITECTURE.md must show the mitigation-search dataflow";

  const std::string design = read_file(source_dir() / "DESIGN.md");
  EXPECT_NE(design.find("The agility engine"), std::string::npos)
      << "DESIGN.md must keep the agility-engine section";
  EXPECT_NE(design.find("time-to-mitigate"), std::string::npos)
      << "DESIGN.md must explain the time-to-mitigate objective";

  const std::string experiments = read_file(source_dir() / "EXPERIMENTS.md");
  EXPECT_NE(experiments.find("bench_agility"), std::string::npos)
      << "EXPERIMENTS.md must carry the agility trajectory row";
  EXPECT_NE(experiments.find("Time-to-mitigate"), std::string::npos)
      << "EXPERIMENTS.md must report the measured time-to-mitigate curve";
}

TEST(DocsTest, AgilityTelemetryCountersAreDocumented) {
  // Every telemetry name the agility engine emits must appear (backticked)
  // in DESIGN.md.  The name list is parsed out of the `kAgilityMetrics`
  // initializer in agility/metrics.h — the single source the engine's
  // pre-resolved handles use — so adding a counter there without a
  // DESIGN.md mention fails this test, not a code review.
  const std::string design = read_file(source_dir() / "DESIGN.md");

  const std::string metrics =
      read_file(source_dir() / "src" / "agility" / "metrics.h");
  const std::size_t list = metrics.find("kAgilityMetrics[]");
  ASSERT_NE(list, std::string::npos)
      << "kAgilityMetrics moved out of agility/metrics.h";
  const std::size_t open = metrics.find('{', list);
  const std::size_t close = metrics.find('}', open);
  ASSERT_NE(close, std::string::npos);
  const std::string init = metrics.substr(open, close - open);

  std::size_t names = 0;
  for (std::size_t quote = init.find('"'); quote != std::string::npos;
       quote = init.find('"', quote + 1)) {
    const std::size_t end = init.find('"', quote + 1);
    ASSERT_NE(end, std::string::npos);
    const std::string name = init.substr(quote + 1, end - quote - 1);
    EXPECT_EQ(name.rfind("agility.", 0), 0u) << "unexpected metric " << name;
    EXPECT_NE(design.find('`' + name + '`'), std::string::npos)
        << "DESIGN.md must document the " << name << " metric";
    ++names;
    quote = end;
  }
  EXPECT_GE(names, 6u) << "kAgilityMetrics parse came up short";
}

/// DESIGN.md §5 (Observability), the section every telemetry name must be
/// documented in.
std::string observability_section() {
  const std::string design = read_file(source_dir() / "DESIGN.md");
  const std::size_t begin = design.find("## 5. Observability");
  const std::size_t end = design.find("## 6.", begin);
  if (begin == std::string::npos || end == std::string::npos) return {};
  return design.substr(begin, end - begin);
}

/// Every distinct string literal under src/ that starts with `prefix` (a
/// telemetry namespace such as "optimizer."), file names excluded.
std::vector<std::string> telemetry_names(const std::string& prefix) {
  std::vector<std::string> names;
  for (const auto& entry :
       fs::recursive_directory_iterator(source_dir() / "src")) {
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string text = read_file(entry.path());
    const std::string quoted = '"' + prefix;
    for (std::size_t at = text.find(quoted); at != std::string::npos;
         at = text.find(quoted, at + 1)) {
      const std::size_t close = text.find('"', at + 1);
      const std::string name = text.substr(at + 1, close - at - 1);
      if (name.ends_with(".h") || name.ends_with(".cc")) continue;
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  return names;
}

TEST(DocsTest, OptimizerTelemetryCountersAreDocumented) {
  // Every `optimizer.*` telemetry name registered anywhere under src/ must
  // appear (backticked) in DESIGN.md §5, so a new search counter cannot
  // ship undocumented.  Names are collected from the string literals that
  // register them.
  const std::string section = observability_section();
  ASSERT_FALSE(section.empty());
  const std::vector<std::string> names = telemetry_names("optimizer.");
  for (const std::string& name : names) {
    EXPECT_NE(section.find('`' + name + '`'), std::string::npos)
        << "DESIGN.md §5 must document the " << name << " counter";
  }
  for (const char* known :
       {"optimizer.searches", "optimizer.configs_evaluated",
        "optimizer.subset_tables", "optimizer.subset_patterns"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), known), names.end())
        << "counter scan missed " << known;
  }
}

TEST(DocsTest, WorldBuildSpansAreDocumented) {
  // Same rule for the world-build stage spans and histograms (`world.*`):
  // the setup-time breakdown `--metrics` prints must be documented.
  const std::string section = observability_section();
  ASSERT_FALSE(section.empty());
  const std::vector<std::string> names = telemetry_names("world.");
  for (const std::string& name : names) {
    EXPECT_NE(section.find('`' + name + '`'), std::string::npos)
        << "DESIGN.md §5 must document the " << name << " span";
  }
  for (const char* known : {"world.topology", "world.deployment",
                            "world.targets", "world.simulator"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), known), names.end())
        << "span scan missed " << known;
  }
}

TEST(DocsTest, ScalingMemoryModelCoversEveryByteGauge) {
  // The Internet-scale memory model (docs/SCALING.md) must document every
  // per-subsystem byte gauge by name.  The gauge list is parsed out of the
  // `kByteGauges` initializer in netbase/resmon.h — the single source the
  // sampler and the bench-record writer share — so adding a gauge there
  // without a docs/SCALING.md row fails this test, not a code review.
  const fs::path scaling = source_dir() / "docs" / "SCALING.md";
  ASSERT_TRUE(fs::exists(scaling)) << "docs/SCALING.md is missing";
  const std::string model = read_file(scaling);

  const std::string resmon =
      read_file(source_dir() / "src" / "netbase" / "resmon.h");
  const std::size_t list = resmon.find("kByteGauges[]");
  ASSERT_NE(list, std::string::npos) << "kByteGauges moved out of resmon.h";
  const std::size_t open = resmon.find('{', list);
  const std::size_t close = resmon.find('}', open);
  ASSERT_NE(close, std::string::npos);
  const std::string init = resmon.substr(open, close - open);

  std::size_t gauges = 0;
  for (std::size_t quote = init.find('"'); quote != std::string::npos;
       quote = init.find('"', quote + 1)) {
    const std::size_t end = init.find('"', quote + 1);
    ASSERT_NE(end, std::string::npos);
    const std::string gauge = init.substr(quote + 1, end - quote - 1);
    EXPECT_EQ(gauge.rfind("bytes.", 0), 0u) << "unexpected gauge " << gauge;
    EXPECT_NE(model.find('`' + gauge + '`'), std::string::npos)
        << "docs/SCALING.md must document the " << gauge << " gauge";
    ++gauges;
    quote = end;
  }
  EXPECT_GE(gauges, 8u) << "kByteGauges parse came up short";

  // The memory model must be reachable from both top-level entry points.
  EXPECT_NE(read_file(source_dir() / "README.md").find("](docs/SCALING.md)"),
            std::string::npos)
      << "README.md must link docs/SCALING.md";
  EXPECT_NE(
      read_file(source_dir() / "ARCHITECTURE.md").find("](docs/SCALING.md)"),
      std::string::npos)
      << "ARCHITECTURE.md must link docs/SCALING.md";
}

}  // namespace
