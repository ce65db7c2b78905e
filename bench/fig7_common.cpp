#include "fig7_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <system_error>

#include "analysis/loss_model.hpp"
#include "analysis/splitting.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace tcw::bench {

void register_fig7_flags(Flags& flags, Fig7Options& opts) {
  flags.add("rho", &opts.offered_load, "offered load rho' = lambda*M");
  flags.add("m", &opts.message_length,
            "message length M in units of the propagation delay");
  flags.add("t-end", &opts.t_end, "simulated slots per replication");
  flags.add("warmup", &opts.warmup, "warmup slots excluded from statistics");
  flags.add("reps", &opts.replications, "independent replications per point");
  flags.add("seed", &opts.seed, "base RNG seed");
  flags.add("threads", &opts.threads,
            "sweep worker threads (0 = all hardware threads); results are "
            "bit-identical for any value");
  flags.add("csv", &opts.csv, "CSV output path (default: <panel>.csv)");
  flags.add("quick", &opts.quick, "shrink run length for smoke testing");
  register_obs_flags(flags, opts.obs);
}

Fig7Options with_quick_applied(const Fig7Options& opts) {
  Fig7Options o = opts;
  if (o.quick) {
    o.t_end = 30000.0;
    o.warmup = 2000.0;
    o.replications = 1;
  }
  return o;
}

const std::vector<Fig7PanelSpec>& fig7_panels() {
  static const std::vector<Fig7PanelSpec> panels = {
      {"fig7_rho25_m25", 0.25, 25.0},  {"fig7_rho25_m100", 0.25, 100.0},
      {"fig7_rho50_m25", 0.50, 25.0},  {"fig7_rho50_m100", 0.50, 100.0},
      {"fig7_rho75_m25", 0.75, 25.0},  {"fig7_rho75_m100", 0.75, 100.0},
  };
  return panels;
}

namespace {

std::vector<double> panel_grid(const Fig7Options& o) {
  std::vector<double> grid;
  grid.reserve(o.k_over_m.size());
  for (const double r : o.k_over_m) grid.push_back(r * o.message_length);
  return grid;
}

net::SweepConfig sweep_config_from(const Fig7Options& o) {
  net::SweepConfig sweep;
  sweep.offered_load = o.offered_load;
  sweep.message_length = o.message_length;
  sweep.t_end = o.t_end;
  sweep.warmup = o.warmup;
  sweep.replications = static_cast<int>(o.replications);
  sweep.base_seed = o.seed;
  sweep.threads = static_cast<int>(o.threads);
  return sweep;
}

analysis::ProtocolModelConfig panel_model(const Fig7Options& o) {
  analysis::ProtocolModelConfig model;
  model.offered_load = o.offered_load;
  model.message_length = o.message_length;
  return model;
}

/// The three analytic series of a panel; the suite runs each as a shard.
enum class AnalyticSeries { Controlled, Fcfs, Lcfs };
constexpr AnalyticSeries kAnalyticSeries[] = {
    AnalyticSeries::Controlled, AnalyticSeries::Fcfs, AnalyticSeries::Lcfs};

struct AnalyticCounters {
  obs::Counter k_points;
  obs::Counter fixpoint_iters;
};

AnalyticCounters& analytic_counters() {
  static AnalyticCounters counters{
      obs::Registry::global().counter("analysis.k_points"),
      obs::Registry::global().counter("analysis.fixpoint_iters"),
  };
  return counters;
}

/// Compute one series into its member of `out`; the three series write
/// disjoint members, so they may run concurrently.
void compute_series(AnalyticSeries series, const Fig7Options& o,
                    const std::vector<double>& grid, Fig7PanelAnalytic& out) {
  const analysis::ProtocolModelConfig model = panel_model(o);
  switch (series) {
    case AnalyticSeries::Controlled: {
      out.controlled = analysis::controlled_loss_curve(model, grid);
      std::uint64_t iterations = 0;
      for (const auto& point : out.controlled) iterations += point.iterations;
      analytic_counters().k_points.add(out.controlled.size());
      analytic_counters().fixpoint_iters.add(iterations);
      return;
    }
    case AnalyticSeries::Fcfs:
      out.fcfs = analysis::fcfs_nodiscard_loss_curve(model, grid);
      return;
    case AnalyticSeries::Lcfs:
      out.lcfs = analysis::lcfs_nodiscard_loss_curve(model, grid);
      return;
  }
}

/// Rough relative cost of one analytic series at paper resolution, used
/// only to order the suite's analytic shards longest first. The LCFS
/// busy-period table grows as Kmax^2; the controlled curve's renewal
/// series cost about rho' times as much; the FCFS renewal pair is cheap.
double series_cost(AnalyticSeries series, const Fig7Options& o) {
  double k_max = 0.0;
  for (const double r : o.k_over_m) {
    k_max = std::max(k_max, r * o.message_length);
  }
  const double table = k_max * k_max;
  switch (series) {
    case AnalyticSeries::Controlled:
      return o.offered_load * table;
    case AnalyticSeries::Fcfs:
      return 0.01 * table;
    case AnalyticSeries::Lcfs:
      return table;
  }
  return 0.0;
}

/// The run's "fig7/analytic" sweep: one shard per (panel, series),
/// longest first, each writing its series into `out[panel]`. `opts` and
/// `out` must outlive the scheduler run.
std::vector<std::function<void()>> analytic_shards(
    const std::vector<Fig7Options>& opts, std::vector<Fig7PanelAnalytic>& out) {
  struct Shard {
    double cost;
    std::size_t panel;
    AnalyticSeries series;
  };
  std::vector<Shard> order;
  for (std::size_t i = 0; i < opts.size(); ++i) {
    for (const AnalyticSeries series : kAnalyticSeries) {
      order.push_back({series_cost(series, opts[i]), i, series});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Shard& a, const Shard& b) {
                     return a.cost > b.cost;
                   });
  std::vector<std::function<void()>> shards;
  shards.reserve(order.size());
  for (const Shard& shard : order) {
    shards.push_back([&o = opts[shard.panel], &slot = out[shard.panel],
                      series = shard.series] {
      compute_series(series, o, panel_grid(o), slot);
    });
  }
  return shards;
}

}  // namespace

Fig7PanelJob::Fig7PanelJob(std::vector<double> grid,
                           net::ScheduledSweep controlled,
                           net::ScheduledSweep fcfs, net::ScheduledSweep lcfs)
    : grid_(std::move(grid)),
      controlled_(std::move(controlled)),
      fcfs_(std::move(fcfs)),
      lcfs_(std::move(lcfs)) {}

Fig7PanelSim Fig7PanelJob::collect() const {
  Fig7PanelSim sim;
  sim.grid = grid_;
  sim.controlled = controlled_.points();
  sim.fcfs = fcfs_.points();
  sim.lcfs = lcfs_.points();
  return sim;
}

Fig7PanelJob schedule_fig7_panel(exec::SweepScheduler& scheduler,
                                 const std::string& panel_name,
                                 const Fig7Options& opts, ObsSession* obs) {
  const Fig7Options o = with_quick_applied(opts);
  std::vector<double> grid = panel_grid(o);
  const net::SweepConfig sweep = sweep_config_from(o);
  // One variant's sweep, with the obs session's kernel capture attached
  // (and the sweep tracked for attribution) when one was handed in.
  const auto schedule_variant = [&](const std::string& variant,
                                    net::ProtocolVariant kind) {
    const std::string name = panel_name + "/" + variant;
    net::SweepConfig cfg = sweep;
    if (obs != nullptr && obs->wants_capture()) {
      cfg.capture_request.capture = obs->make_capture(name, cfg.base_seed);
    }
    net::ScheduledSweep handle =
        net::run_sweep({.config = cfg, .constraints = grid, .variant = kind},
                       {.scheduler = &scheduler, .name = name});
    if (obs != nullptr) obs->track_sweep(name, handle);
    return handle;
  };
  auto controlled =
      schedule_variant("controlled", net::ProtocolVariant::Controlled);
  auto fcfs = schedule_variant("fcfs", net::ProtocolVariant::FcfsNoDiscard);
  auto lcfs = schedule_variant("lcfs", net::ProtocolVariant::LcfsNoDiscard);
  return Fig7PanelJob(std::move(grid), std::move(controlled),
                      std::move(fcfs), std::move(lcfs));
}

int render_fig7_panel(const std::string& panel_name, const Fig7Options& o,
                      const Fig7PanelSim& sim,
                      const Fig7PanelAnalytic& analytic) {
  std::printf("== %s: controlled window protocol, rho'=%.2f M=%.0f ==\n",
              panel_name.c_str(), o.offered_load, o.message_length);
  std::printf("   (loss vs. time constraint K; K in slots of the channel\n"
              "    propagation delay tau; sim uses true waiting times)\n\n");

  const std::vector<double>& grid = sim.grid;

  Table table({"K", "K_over_M", "ctrl_analytic", "ctrl_sim", "ctrl_ci95",
               "fcfs_analytic", "fcfs_sim", "lcfs_analytic", "lcfs_sim", "ctrl_sched_mean",
               "ctrl_utilization"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({format_fixed(grid[i], 1),
                   format_fixed(grid[i] / o.message_length, 2),
                   format_fixed(analytic.controlled[i].p_loss, 5),
                   format_fixed(sim.controlled[i].p_loss, 5),
                   format_fixed(sim.controlled[i].ci95, 5),
                   format_fixed(analytic.fcfs[i], 5),
                   format_fixed(sim.fcfs[i].p_loss, 5),
                   format_fixed(analytic.lcfs[i], 5),
                   format_fixed(sim.lcfs[i].p_loss, 5),
                   format_fixed(sim.controlled[i].mean_scheduling, 3),
                   format_fixed(sim.controlled[i].utilization, 4)});
  }
  table.write_pretty(std::cout);

  // Text-mode echo of the paper's figure: loss vs K, log y-axis.
  std::vector<PlotSeries> series(4);
  series[0] = {"controlled (eq 4.7)", '*', {}};
  series[1] = {"controlled (sim)", 'o', {}};
  series[2] = {"fcfs (sim)", 'f', {}};
  series[3] = {"lcfs (sim)", 'l', {}};
  for (std::size_t i = 0; i < grid.size(); ++i) {
    series[0].y.push_back(analytic.controlled[i].p_loss);
    series[1].y.push_back(sim.controlled[i].p_loss);
    series[2].y.push_back(sim.fcfs[i].p_loss);
    series[3].y.push_back(sim.lcfs[i].p_loss);
  }
  PlotOptions plot_opts;
  plot_opts.log_y = true;
  std::printf("\n%s", render_plot(grid, series, plot_opts).c_str());

  // Shape checks the paper's Figure 7 supports: the controlled protocol
  // dominates both baselines, and loss decays with K.
  int ctrl_beats_fcfs = 0;
  int ctrl_beats_lcfs = 0;
  double worst_gap = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (sim.controlled[i].p_loss <= sim.fcfs[i].p_loss + 1e-9) {
      ++ctrl_beats_fcfs;
    }
    if (sim.controlled[i].p_loss <= sim.lcfs[i].p_loss + 1e-9) {
      ++ctrl_beats_lcfs;
    }
    worst_gap = std::max(
        worst_gap,
        std::abs(sim.controlled[i].p_loss - analytic.controlled[i].p_loss));
  }
  std::printf("\nshape: controlled <= FCFS at %d/%zu points, "
              "controlled <= LCFS at %d/%zu points\n",
              ctrl_beats_fcfs, grid.size(), ctrl_beats_lcfs, grid.size());
  std::printf("analytic vs sim worst abs gap: %.4f (paper reports 'close "
              "agreement'; see EXPERIMENTS.md)\n",
              worst_gap);
  std::printf("element-2 heuristic: nu* = %.4f -> window width %.2f slots\n",
              analysis::optimal_window_load(),
              sweep_config_from(o).heuristic_window_width());

  const std::string csv_path =
      o.csv.empty() ? panel_name + ".csv" : o.csv;
  if (table.save_csv(csv_path)) {
    std::printf("csv: %s\n\n", csv_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
    return 1;
  }
  return 0;
}

int fig7_main(const std::string& panel_name, double rho, double m, int argc,
              char** argv) {
  Fig7Options opts;
  opts.offered_load = rho;
  opts.message_length = m;
  Flags flags(panel_name, "Reproduce one panel of the paper's Figure 7");
  register_fig7_flags(flags, opts);
  if (!flags.parse(argc, argv)) return 1;
  return run_fig7_panel(panel_name, opts);
}

namespace {

bool points_identical(const std::vector<net::SweepPoint>& a,
                      const std::vector<net::SweepPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].constraint != b[i].constraint || a[i].p_loss != b[i].p_loss ||
        a[i].ci95 != b[i].ci95 || a[i].mean_wait != b[i].mean_wait ||
        a[i].mean_scheduling != b[i].mean_scheduling ||
        a[i].utilization != b[i].utilization ||
        a[i].sender_loss_frac != b[i].sender_loss_frac ||
        a[i].receiver_loss_frac != b[i].receiver_loss_frac ||
        a[i].messages != b[i].messages) {
      return false;
    }
  }
  return true;
}

void print_scheduler_report(const exec::SchedulerReport& report,
                            const std::string& suite) {
  std::printf("== consolidated sweep scheduler report ==\n");
  std::printf("threads=%u jobs=%zu wall=%.3fs jobs_per_sec=%.2f "
              "worker_utilization=%.2f\n",
              report.threads, report.shards, report.wall_seconds,
              report.shards_per_second, report.worker_utilization);
  for (const exec::SweepTimingEntry& s : report.sweeps) {
    std::printf("  %-28s jobs=%3zu wall=%7.3fs busy=%7.3fs "
                "jobs_per_sec=%.2f\n",
                s.name.c_str(), s.shards, s.wall_seconds, s.busy_seconds,
                s.shards_per_second);
  }
  std::printf("BENCH_JSON %s\n", report.bench_json(suite).c_str());
}

}  // namespace

exec::SchedulerReport run_scheduler_with_report(
    exec::SweepScheduler& scheduler, const std::string& suite) {
  exec::SchedulerReport report = scheduler.run();
  print_scheduler_report(report, suite);
  return report;
}

namespace {

/// The sequential cross-check behind `fig7_all --baseline`: re-run every
/// simulation sweep on its own, panels strictly one after another, and
/// bit-compare with the scheduled run. Prints both wall clocks; returns
/// nonzero on a mismatch.
int run_fig7_baseline(const std::vector<Fig7Options>& panel_opts,
                      const std::vector<Fig7PanelSim>& sims,
                      const exec::SchedulerReport& report) {
  // The analytic series are not re-run, so the speedup compares the
  // sequential simulations with the whole scheduled run, analytic shards
  // included.
  const auto t0 = std::chrono::steady_clock::now();
  bool identical = true;
  for (std::size_t i = 0; i < panel_opts.size(); ++i) {
    const net::SweepConfig sweep = sweep_config_from(panel_opts[i]);
    const std::vector<double>& grid = sims[i].grid;
    identical &= points_identical(
        sims[i].controlled,
        net::run_sweep({.config = sweep, .constraints = grid,
                        .variant = net::ProtocolVariant::Controlled})
            .points());
    identical &= points_identical(
        sims[i].fcfs,
        net::run_sweep({.config = sweep, .constraints = grid,
                        .variant = net::ProtocolVariant::FcfsNoDiscard})
            .points());
    identical &= points_identical(
        sims[i].lcfs,
        net::run_sweep({.config = sweep, .constraints = grid,
                        .variant = net::ProtocolVariant::LcfsNoDiscard})
            .points());
  }
  const double sequential_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double speedup = report.wall_seconds > 0.0
                             ? sequential_wall / report.wall_seconds
                             : 0.0;
  std::printf("baseline (simulations only, sequential, per-sweep pools): "
              "wall=%.3fs, scheduled wall (simulations + analytic)=%.3fs, "
              "speedup=%.2fx, outputs identical: "
              "%s\n",
              sequential_wall, report.wall_seconds, speedup,
              identical ? "yes" : "NO");
  std::printf("BENCH_JSON {\"suite\":\"fig7_all_baseline\","
              "\"sequential_wall_seconds\":%.4f,"
              "\"scheduled_wall_seconds\":%.4f,\"speedup\":%.2f,"
              "\"outputs_identical\":%s}\n",
              sequential_wall, report.wall_seconds, speedup,
              identical ? "true" : "false");
  if (identical) return 0;
  std::fprintf(stderr, "fig7_all: scheduled and standalone outputs differ\n");
  return 1;
}

/// The one Figure-7 runner behind run_fig7_panel and run_fig7_suite: the
/// "fig7/analytic" sweep plus every panel's simulation sweeps as one job
/// graph on one pool, then each panel's render and the scheduler report
/// labelled `run_name`. `panel_opts` are quick-resolved, one per entry of
/// `panels`; they share threads and observability options, which are
/// read from the first.
int run_fig7_job(const std::string& run_name,
                 const std::vector<Fig7PanelSpec>& panels,
                 const std::vector<Fig7Options>& panel_opts, bool baseline) {
  const Fig7Options& shared = panel_opts.front();
  ObsSession obs(run_name, shared.obs);
  exec::ThreadPool pool(
      exec::resolve_threads(static_cast<int>(shared.threads)));
  exec::SweepScheduler scheduler(pool);
  obs.attach(scheduler);

  std::printf("== %s: %zu %s as one job graph on %zu worker(s) ==\n\n",
              run_name.c_str(), panels.size(),
              panels.size() == 1 ? "panel" : "panels", pool.size());

  // The analytic sweep is registered first, so one runner starts on its
  // longest shards at once while the others start on the simulations;
  // every runner joins it once the simulation shards are claimed.
  std::vector<Fig7PanelAnalytic> analytic(panels.size());
  scheduler.add_sweep("fig7/analytic", analytic_shards(panel_opts, analytic));
  std::vector<Fig7PanelJob> jobs;
  jobs.reserve(panels.size());
  for (std::size_t i = 0; i < panels.size(); ++i) {
    jobs.push_back(
        schedule_fig7_panel(scheduler, panels[i].name, panel_opts[i], &obs));
  }

  const exec::SchedulerReport report = scheduler.run();

  std::vector<Fig7PanelSim> sims;
  sims.reserve(jobs.size());
  for (const Fig7PanelJob& job : jobs) sims.push_back(job.collect());

  int rc = 0;
  for (std::size_t i = 0; i < panels.size(); ++i) {
    rc |= render_fig7_panel(panels[i].name, panel_opts[i], sims[i],
                            analytic[i]);
  }

  print_scheduler_report(report, run_name);
  if (baseline) rc |= run_fig7_baseline(panel_opts, sims, report);
  rc |= obs.finish(&report);
  return rc;
}

}  // namespace

int run_fig7_panel(const std::string& panel_name, const Fig7Options& opts) {
  return run_fig7_job(
      panel_name, {{panel_name, opts.offered_load, opts.message_length}},
      {with_quick_applied(opts)}, /*baseline=*/false);
}

int run_fig7_suite(const Fig7SuiteOptions& suite) {
  const std::vector<Fig7PanelSpec>& panels =
      suite.panels.empty() ? fig7_panels() : suite.panels;
  const Fig7Options base = with_quick_applied(suite.base);

  std::error_code dir_ec;
  std::filesystem::create_directories(suite.csv_dir, dir_ec);
  if (dir_ec) {
    std::fprintf(stderr, "cannot create csv dir %s: %s\n",
                 suite.csv_dir.c_str(), dir_ec.message().c_str());
    return 1;
  }

  std::vector<Fig7Options> panel_opts;
  panel_opts.reserve(panels.size());
  for (const Fig7PanelSpec& p : panels) {
    Fig7Options o = base;
    o.offered_load = p.offered_load;
    o.message_length = p.message_length;
    o.csv = suite.csv_dir + "/" + p.name + ".csv";
    panel_opts.push_back(std::move(o));
  }
  return run_fig7_job("fig7_all", panels, panel_opts, suite.baseline);
}

}  // namespace tcw::bench
