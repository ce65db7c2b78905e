// Shared driver for the Figure 7 reproduction benches: for one (rho', M)
// panel it sweeps the time constraint K and prints the paper's series --
// the controlled protocol's analytic loss (eq. 4.7 + the iteration in K),
// corroborating simulation points, and the [Kurose 83] FCFS/LCFS baselines
// (analytic where stable, simulated always).
//
// One execution path: a panel is a suite of one. run_fig7_panel (behind
// the six panel binaries) and run_fig7_suite (fig7_all) share one runner
// that registers the analytic series, as the shards of one
// "fig7/analytic" sweep, and each panel's three variant sweeps (via
// schedule_fig7_panel) on one exec::SweepScheduler over one pool, then
// renders every panel and prints the scheduler report. A panel's CSV is
// therefore byte-identical whether it ran alone or inside the suite.
#pragma once

#include <string>
#include <vector>

#include "analysis/loss_model.hpp"
#include "net/experiment.hpp"
#include "obs_support.hpp"
#include "util/flags.hpp"

namespace tcw::exec {
class SweepScheduler;
struct SchedulerReport;
}  // namespace tcw::exec

namespace tcw::bench {

struct Fig7Options {
  double offered_load = 0.5;    // rho'
  double message_length = 25.0; // M
  double t_end = 150000.0;      // slots simulated per replication
  double warmup = 10000.0;
  long long replications = 2;
  unsigned long long seed = 20261983;
  long long threads = 0;        // sweep workers; 0 = all hardware threads
  std::string csv;              // output path ("" = <panel>.csv)
  bool quick = false;           // shrink runs (CI smoke)
  ObsOptions obs;               // --trace-out / --manifest-out / --progress
  std::vector<double> k_over_m =
      {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0};
};

/// Register the common flags on `flags` so every panel binary accepts the
/// same overrides.
void register_fig7_flags(Flags& flags, Fig7Options& opts);

/// `opts` with the --quick shrink applied (no-op when quick is unset).
Fig7Options with_quick_applied(const Fig7Options& opts);

/// One Figure-7 panel of the paper: (name, rho', M).
struct Fig7PanelSpec {
  std::string name;
  double offered_load = 0.5;
  double message_length = 25.0;
};

/// The six canonical panels, in the paper's order.
const std::vector<Fig7PanelSpec>& fig7_panels();

/// The three simulated series of one panel.
struct Fig7PanelSim {
  std::vector<double> grid;  // K values, ascending
  std::vector<net::SweepPoint> controlled;
  std::vector<net::SweepPoint> fcfs;
  std::vector<net::SweepPoint> lcfs;
};

/// Handle to one panel's three sweeps registered on a scheduler; collect()
/// is valid after the scheduler's run() returns.
class Fig7PanelJob {
 public:
  Fig7PanelSim collect() const;

 private:
  friend Fig7PanelJob schedule_fig7_panel(exec::SweepScheduler&,
                                          const std::string&,
                                          const Fig7Options&, ObsSession*);
  Fig7PanelJob(std::vector<double> grid, net::ScheduledSweep controlled,
               net::ScheduledSweep fcfs, net::ScheduledSweep lcfs);

  std::vector<double> grid_;
  net::ScheduledSweep controlled_;
  net::ScheduledSweep fcfs_;
  net::ScheduledSweep lcfs_;
};

/// Register one panel's controlled/FCFS/LCFS sweeps (named
/// "<panel>/<variant>") on `scheduler`. Applies --quick itself, so pass
/// the raw options. With `obs` non-null, each sweep gets a kernel
/// capture (under --flight-out / --series-out) and feeds the
/// deadline-loss attribution report.
Fig7PanelJob schedule_fig7_panel(exec::SweepScheduler& scheduler,
                                 const std::string& panel_name,
                                 const Fig7Options& opts,
                                 ObsSession* obs = nullptr);

/// The analytic series of one panel, one entry per grid K: the
/// controlled protocol (eq. 4.7 + the iteration in K) and the FCFS/LCFS
/// no-discard baselines. They depend on (rho', M, grid) only. Computing
/// the controlled series adds its K-points and fixpoint iterations to the
/// registry counters `analysis.k_points` and `analysis.fixpoint_iters`.
struct Fig7PanelAnalytic {
  std::vector<analysis::ControlledLossPoint> controlled;
  std::vector<double> fcfs;
  std::vector<double> lcfs;
};

/// Print one panel's table, plot and shape checks, and write its CSV.
/// Returns the process exit code. Pass quick-resolved options (the ones
/// the sweeps ran with).
int render_fig7_panel(const std::string& panel_name, const Fig7Options& opts,
                      const Fig7PanelSim& sim,
                      const Fig7PanelAnalytic& analytic);

/// Run one panel as a suite of one: its analytic and simulation shards on
/// one scheduler, reported (and traced, under --trace-out) under
/// `panel_name`; the CSV goes to opts.csv (default <panel>.csv). Returns
/// the process exit code.
int run_fig7_panel(const std::string& panel_name, const Fig7Options& opts);

/// Standard main body used by the six panel binaries.
int fig7_main(const std::string& panel_name, double rho, double m, int argc,
              char** argv);

/// A multi-panel suite consolidated onto one shared pool (fig7_all).
struct Fig7SuiteOptions {
  Fig7Options base;                   // per-panel rho/M/csv are overridden
  std::vector<Fig7PanelSpec> panels;  // empty = all six fig7 panels
  std::string csv_dir = ".";          // panel CSVs land here as <panel>.csv
  /// Also re-run every simulation sweep on its own, one after another,
  /// verify the outputs are bit-identical to the shared-pool run, and
  /// report both wall clocks in BENCH_JSON.
  bool baseline = true;
};

/// Run the suite as one scheduled job graph: the simulation sweeps of
/// every panel plus the "fig7/analytic" sweep (one shard per panel and
/// analytic series, longest first). Returns the process exit code
/// (nonzero also when the baseline cross-check finds a mismatch).
int run_fig7_suite(const Fig7SuiteOptions& suite);

/// Run a populated scheduler and print the consolidated per-sweep timing
/// report plus the `BENCH_JSON {"suite":"<suite>",...}` line. The shared
/// reporting tail of every scheduled bench and tool (Figure-7 panels and
/// suite, studies, sweep_tool, the ablation/validation binaries).
exec::SchedulerReport run_scheduler_with_report(
    exec::SweepScheduler& scheduler, const std::string& suite);

}  // namespace tcw::bench
