// fig7_suite: all six Figure-7 panels at paper resolution through
// bench::run_fig7_suite, with the sequential baseline off.
#include <filesystem>
#include <optional>
#include <iostream>

#include "analysis/loss_model.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "fig7_common.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tcw::format_fixed;

// The columns that depend on no simulation seed.
const std::vector<std::string> kAnalyticColumns = {
    "K", "K_over_M", "ctrl_analytic", "fcfs_analytic", "lcfs_analytic"};

class Fig7Suite final : public Workload {
 public:
  explicit Fig7Suite(const Env& env)
      : env_(env), csv_dir_(env.work + "/fig7") {
    base_.seed = env.seed;
    base_.threads = env.threads;
  }

  JobTimes run_job() override {
    clear_outputs();
    JobTimes t;
    t.setup_s = time_setup();
    tcw::bench::Fig7SuiteOptions suite;
    suite.base = base_;
    suite.csv_dir = csv_dir_;
    suite.baseline = false;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    rc_ = tcw::bench::run_fig7_suite(suite);
    t.wall_s = seconds_since(t0);
    t.cpu_s = process_cpu_seconds() - cpu0;
    t.elapsed_s = t.wall_s;
    return t;
  }

  void replay(Tracer& tracer, Counters& counters) override {
    clear_outputs();
    rc_ = 0;
    const auto& panels = tcw::bench::fig7_panels();
    fs::create_directories(csv_dir_);
    std::optional<tcw::exec::ThreadPool> pool;
    std::optional<tcw::exec::SweepScheduler> scheduler;
    {
      auto s = tracer.scope("exec.pool");
      pool.emplace(env_.threads);
      scheduler.emplace(*pool);
      scheduler->set_timeline(&tracer.timeline());
    }
    std::vector<tcw::bench::Fig7Options> opts;
    std::vector<tcw::bench::Fig7PanelJob> jobs;
    for (const auto& p : panels) {
      auto s = tracer.scope("exec.enqueue");
      tcw::bench::Fig7Options o = base_;
      o.offered_load = p.offered_load;
      o.message_length = p.message_length;
      o.csv = csv_dir_ + "/" + p.name + ".csv";
      jobs.push_back(tcw::bench::schedule_fig7_panel(*scheduler, p.name, o));
      opts.push_back(tcw::bench::with_quick_applied(o));
    }
    tcw::exec::SchedulerReport report;
    {
      auto s = tracer.scope("exec.scheduler");
      report = scheduler->run();
    }
    counters["net.aggregate.slots"] +=
        static_cast<double>(report.shards) * opts.front().t_end;
    for (std::size_t i = 0; i < panels.size(); ++i) {
      render_panel(tracer, counters, panels[i].name, opts[i],
                   jobs[i].collect());
    }
    {
      auto s = tracer.scope("exec.pool");
      scheduler.reset();
      pool.reset();
    }
    counters["bench.csv_bytes"] += static_cast<double>(directory_bytes(csv_dir_));
  }

  void check(Outcome& out) override {
    out.record(rc_ == 0, "fig7_suite: entry point returned nonzero");
    for (const auto& p : tcw::bench::fig7_panels()) {
      const std::string name = p.name + ".csv";
      const std::string bytes = read_file(csv_dir_ + "/" + name);
      repeat_.check(name, bytes, out);
      const std::string ref = read_file(reference_path(env_, name));
      compare_csv(name, bytes, ref,
                  env_.seed == kDefaultSeed ? std::vector<std::string>{}
                                            : kAnalyticColumns,
                  out);
    }
  }

  std::string expected_dominant() const override { return "analysis"; }

 private:
  // The set-up run_fig7_suite performs before its first shard: the CSV
  // directory, the observability session, the pool, the scheduler, and
  // the 18 registered sweeps.
  double time_setup() {
    std::vector<double> probes;
    for (int i = 0; i < kSetupProbes; ++i) {
      const auto t0 = Clock::now();
      {
        fs::create_directories(csv_dir_);
        tcw::bench::ObsSession obs("fig7_all", base_.obs);
        tcw::exec::ThreadPool pool(env_.threads);
        tcw::exec::SweepScheduler scheduler(pool);
        obs.attach(scheduler);
        for (const auto& p : tcw::bench::fig7_panels()) {
          tcw::bench::Fig7Options o = base_;
          o.offered_load = p.offered_load;
          o.message_length = p.message_length;
          tcw::bench::schedule_fig7_panel(scheduler, p.name, o, &obs);
        }
      }
      probes.push_back(seconds_since(t0));
    }
    return median(probes);
  }

  // render_fig7_panel, with each analytic call in its own span so the
  // analytic layer's time is separated from formatting and CSV writing.
  void render_panel(Tracer& tracer, Counters& counters,
                    const std::string& name, const tcw::bench::Fig7Options& o,
                    const tcw::bench::Fig7PanelSim& sim) {
    tcw::analysis::ProtocolModelConfig model;
    model.offered_load = o.offered_load;
    model.message_length = o.message_length;
    const std::vector<double>& grid = sim.grid;
    std::vector<tcw::analysis::ControlledLossPoint> analytic;
    {
      auto s = tracer.scope("analysis.controlled_curve");
      analytic = tcw::analysis::controlled_loss_curve(model, grid);
    }
    counters["analysis.k_points"] += static_cast<double>(analytic.size());
    for (const auto& point : analytic) {
      counters["analysis.fixpoint_iters"] += point.iterations;
    }
    std::vector<double> fcfs(grid.size());
    std::vector<double> lcfs(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      {
        auto s = tracer.scope("analysis.fcfs_loss");
        fcfs[i] = tcw::analysis::fcfs_nodiscard_loss(model, grid[i]);
      }
      auto s = tracer.scope("analysis.lcfs_loss");
      lcfs[i] = tcw::analysis::lcfs_nodiscard_loss(model, grid[i]);
    }

    auto s = tracer.scope("bench.render");
    tcw::Table table({"K", "K_over_M", "ctrl_analytic", "ctrl_sim",
                      "ctrl_ci95", "fcfs_analytic", "fcfs_sim",
                      "lcfs_analytic", "lcfs_sim", "ctrl_sched_mean",
                      "ctrl_utilization"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
      table.add_row({format_fixed(grid[i], 1),
                     format_fixed(grid[i] / o.message_length, 2),
                     format_fixed(analytic[i].p_loss, 5),
                     format_fixed(sim.controlled[i].p_loss, 5),
                     format_fixed(sim.controlled[i].ci95, 5),
                     format_fixed(fcfs[i], 5),
                     format_fixed(sim.fcfs[i].p_loss, 5),
                     format_fixed(lcfs[i], 5),
                     format_fixed(sim.lcfs[i].p_loss, 5),
                     format_fixed(sim.controlled[i].mean_scheduling, 3),
                     format_fixed(sim.controlled[i].utilization, 4)});
    }
    std::cout << "== " << name << " (replay) ==\n";
    table.write_pretty(std::cout);
    std::vector<tcw::PlotSeries> series(4);
    series[0] = {"controlled (eq 4.7)", '*', {}};
    series[1] = {"controlled (sim)", 'o', {}};
    series[2] = {"fcfs (sim)", 'f', {}};
    series[3] = {"lcfs (sim)", 'l', {}};
    for (std::size_t i = 0; i < grid.size(); ++i) {
      series[0].y.push_back(analytic[i].p_loss);
      series[1].y.push_back(sim.controlled[i].p_loss);
      series[2].y.push_back(sim.fcfs[i].p_loss);
      series[3].y.push_back(sim.lcfs[i].p_loss);
    }
    tcw::PlotOptions plot;
    plot.log_y = true;
    std::cout << tcw::render_plot(grid, series, plot);
    if (!table.save_csv(o.csv)) rc_ = 1;
  }

  void clear_outputs() {
    std::error_code ec;
    fs::remove_all(csv_dir_, ec);
  }

  Env env_;
  std::string csv_dir_;
  tcw::bench::Fig7Options base_;
  int rc_ = 0;
  RepeatCheck repeat_;
};

}  // namespace

std::unique_ptr<Workload> make_fig7_suite(const Env& env) {
  return std::make_unique<Fig7Suite>(env);
}

}  // namespace perfbench
