// End-to-end test of the Figure-7 reproduction pipeline itself (the bench
// driver library): a quick panel must run, satisfy the paper's dominance
// shape, and emit a well-formed CSV; the whole suite, analytic shards
// included, must write the same bytes at any thread count and reproduce
// the committed analytic columns.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fig7_common.hpp"
#include "obs/registry.hpp"
#include "util/strings.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Fig7Pipeline, QuickPanelRunsAndWritesCsv) {
  tcw::bench::Fig7Options opts;
  opts.offered_load = 0.5;
  opts.message_length = 25.0;
  opts.quick = true;
  opts.k_over_m = {1.0, 2.0, 4.0};
  opts.csv = ::testing::TempDir() + "/tcw_fig7_test.csv";

  EXPECT_EQ(tcw::bench::run_fig7_panel("fig7_test_panel", opts), 0);

  std::ifstream in(opts.csv);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  const auto cols = tcw::split(header, ',');
  ASSERT_GE(cols.size(), 9u);
  EXPECT_EQ(cols[0], "K");

  int rows = 0;
  std::string line;
  double prev_ctrl = 1.0;
  while (std::getline(in, line)) {
    const auto cells = tcw::split(line, ',');
    ASSERT_EQ(cells.size(), cols.size());
    const auto ctrl = tcw::parse_double(cells[2]);  // ctrl_analytic
    ASSERT_TRUE(ctrl.has_value()) << line;
    EXPECT_LE(*ctrl, prev_ctrl + 1e-9);  // analytic curve monotone in K
    prev_ctrl = *ctrl;
    ++rows;
  }
  EXPECT_EQ(rows, 3);
}

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Fig7Pipeline, StandalonePanelTracesEveryShard) {
  // A panel is a suite of one on a scheduler, so --trace-out records one
  // span per shard: three analytic series plus one simulation per
  // (variant, K, replication). --progress works too, and its final line
  // counts the single-channel kernels' successes.
  tcw::bench::Fig7Options opts;
  opts.quick = true;
  opts.k_over_m = {1.0, 2.0, 4.0};
  opts.threads = 2;
  opts.csv = ::testing::TempDir() + "/tcw_fig7_traced.csv";
  opts.obs.trace_out = ::testing::TempDir() + "/tcw_fig7_traced.json";
  opts.obs.progress = true;
  std::remove(opts.obs.trace_out.c_str());
  ::testing::internal::CaptureStderr();
  const int rc = tcw::bench::run_fig7_panel("fig7_traced", opts);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_EQ(rc, 0);
  const std::size_t ok = err.rfind(" ok=");
  ASSERT_NE(ok, std::string::npos) << err;
  EXPECT_GT(std::stoull(err.substr(ok + 4)), 0u) << err;

  const std::size_t reps = static_cast<std::size_t>(
      tcw::bench::with_quick_applied(opts).replications);
  const std::size_t shards = 3 + 3 * opts.k_over_m.size() * reps;
  const std::string trace = slurp(opts.obs.trace_out);
  EXPECT_EQ(count_of(trace, "\"cat\":\"shard\""), shards);
  EXPECT_EQ(count_of(trace, "\"name\":\"fig7/analytic#"), 3u);
  EXPECT_EQ(count_of(trace, "\"name\":\"fig7_traced/controlled#"),
            opts.k_over_m.size() * reps);
}

TEST(Fig7Pipeline, SuiteCsvIsByteIdenticalToStandalonePanel) {
  // The acceptance contract of fig7_all: a panel's CSV out of the shared
  // scheduled suite equals the standalone panel binary's CSV byte for
  // byte, even at different thread counts.
  tcw::bench::Fig7Options standalone_opts;
  standalone_opts.offered_load = 0.5;
  standalone_opts.message_length = 25.0;
  standalone_opts.quick = true;
  standalone_opts.k_over_m = {1.0, 2.0};
  standalone_opts.threads = 1;
  standalone_opts.csv = ::testing::TempDir() + "/tcw_fig7_standalone.csv";
  ASSERT_EQ(
      tcw::bench::run_fig7_panel("fig7_rho50_m25", standalone_opts), 0);

  tcw::bench::Fig7SuiteOptions suite;
  suite.base = standalone_opts;
  suite.base.csv.clear();
  suite.base.threads = 2;
  suite.panels = {{"fig7_rho50_m25", 0.5, 25.0},
                  {"fig7_rho25_m25", 0.25, 25.0}};
  suite.csv_dir = ::testing::TempDir();
  suite.baseline = false;  // the binary's own cross-check; slow here
  ASSERT_EQ(tcw::bench::run_fig7_suite(suite), 0);

  const std::string standalone_csv = slurp(standalone_opts.csv);
  const std::string suite_csv =
      slurp(::testing::TempDir() + "/fig7_rho50_m25.csv");
  ASSERT_FALSE(standalone_csv.empty());
  EXPECT_EQ(standalone_csv, suite_csv);
}

TEST(Fig7Pipeline, FlagRegistrationRoundTrip) {
  tcw::bench::Fig7Options opts;
  tcw::Flags flags("t", "test");
  tcw::bench::register_fig7_flags(flags, opts);
  const char* argv[] = {"t", "--rho=0.75", "--m=100", "--quick"};
  ASSERT_TRUE(flags.parse(4, argv));
  EXPECT_DOUBLE_EQ(opts.offered_load, 0.75);
  EXPECT_DOUBLE_EQ(opts.message_length, 100.0);
  EXPECT_TRUE(opts.quick);
}

/// The named columns of a CSV, one joined line per row (header included).
std::vector<std::string> csv_columns(const std::string& csv,
                                     const std::vector<std::string>& names) {
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);
  const auto header = tcw::split(line, ',');
  std::vector<std::size_t> index;
  for (const std::string& name : names) {
    std::size_t i = 0;
    while (i < header.size() && header[i] != name) ++i;
    EXPECT_LT(i, header.size()) << name;
    index.push_back(i);
  }
  std::vector<std::string> rows;
  in.seekg(0);
  while (std::getline(in, line)) {
    const auto cells = tcw::split(line, ',');
    std::string row;
    for (const std::size_t i : index) {
      row += (i < cells.size() ? cells[i] : std::string("<missing>")) + ",";
    }
    rows.push_back(row);
  }
  return rows;
}

struct AnalyticCounts {
  std::uint64_t k_points = 0;
  std::uint64_t fixpoint_iters = 0;
};

AnalyticCounts analytic_counts() {
  auto& registry = tcw::obs::Registry::global();
  return {registry.counter("analysis.k_points").value(),
          registry.counter("analysis.fixpoint_iters").value()};
}

TEST(Fig7Pipeline, SuiteIsThreadInvariantAndMatchesCommittedAnalytics) {
  // The quick suite at 1 and 4 threads: the analytic shards run on the
  // scheduler beside the simulations, yet every CSV is byte-identical,
  // the analytic counters agree exactly, and the analytic columns equal
  // the committed paper-resolution results (they depend on no seed or
  // run length).
  std::vector<std::string> dirs;
  std::vector<AnalyticCounts> counts;
  for (const long long threads : {1LL, 4LL}) {
    tcw::bench::Fig7SuiteOptions suite;
    suite.base.quick = true;
    suite.base.threads = threads;
    suite.csv_dir =
        ::testing::TempDir() + "/tcw_fig7_suite_t" + std::to_string(threads);
    suite.baseline = false;
    const AnalyticCounts before = analytic_counts();
    ASSERT_EQ(tcw::bench::run_fig7_suite(suite), 0);
    const AnalyticCounts after = analytic_counts();
    counts.push_back({after.k_points - before.k_points,
                      after.fixpoint_iters - before.fixpoint_iters});
    dirs.push_back(suite.csv_dir);
  }
  const std::size_t panels = tcw::bench::fig7_panels().size();
  const std::size_t grid = tcw::bench::Fig7Options{}.k_over_m.size();
  EXPECT_EQ(counts[0].k_points, panels * grid);
  EXPECT_EQ(counts[1].k_points, counts[0].k_points);
  EXPECT_GT(counts[0].fixpoint_iters, counts[0].k_points);
  EXPECT_EQ(counts[1].fixpoint_iters, counts[0].fixpoint_iters);

  const std::vector<std::string> analytic_columns = {
      "K", "K_over_M", "ctrl_analytic", "fcfs_analytic", "lcfs_analytic"};
  for (const auto& panel : tcw::bench::fig7_panels()) {
    const std::string name = panel.name + ".csv";
    const std::string one = slurp(dirs[0] + "/" + name);
    ASSERT_FALSE(one.empty()) << name;
    EXPECT_EQ(one, slurp(dirs[1] + "/" + name)) << name;
    const std::string committed =
        slurp(std::string(TCW_RESULTS_DIR) + "/" + name);
    ASSERT_FALSE(committed.empty()) << name;
    EXPECT_EQ(csv_columns(one, analytic_columns),
              csv_columns(committed, analytic_columns))
        << name;
  }
}

}  // namespace
