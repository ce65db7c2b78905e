// General-purpose sweep driver: the experiment tool a downstream user
// reaches for first. Sweeps the time constraint K for any protocol
// variant and workload from the command line, prints the loss/delay
// series, and writes a CSV.
//
//   $ ./sweep_tool --variant controlled --rho 0.6 --m 25 \
//         --k-min 25 --k-max 400 --points 8 --csv out.csv
//
// Sweeps run on a SweepScheduler, which prints its timing report and a
// BENCH_JSON line; --trace-out and --progress apply. With --suite, all
// four variants run together as one job graph on a shared thread pool
// (cross-variant work stealing), writing one CSV per variant; each
// variant's numbers are bit-identical to its single-variant run at the
// same seed.
#include <cstdio>
#include <iostream>
#include <vector>

#include "analysis/loss_model.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "fig7_common.hpp"
#include "net/experiment.hpp"
#include "obs_support.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

namespace {

// "out.csv" + "fcfs" -> "out_fcfs.csv"; no .csv suffix -> append.
std::string variant_csv_path(const std::string& base,
                             const std::string& variant) {
  const std::string ext = ".csv";
  if (base.size() > ext.size() &&
      base.compare(base.size() - ext.size(), ext.size(), ext) == 0) {
    return base.substr(0, base.size() - ext.size()) + "_" + variant + ext;
  }
  return base + "_" + variant + ext;
}

int run_suite(const tcw::net::SweepConfig& cfg,
              const std::vector<double>& grid, long long threads,
              const std::string& csv, const tcw::bench::ObsOptions& obs_opts) {
  struct VariantSpec {
    const char* name;
    tcw::net::ProtocolVariant variant;
  };
  const std::vector<VariantSpec> variants = {
      {"controlled", tcw::net::ProtocolVariant::Controlled},
      {"fcfs", tcw::net::ProtocolVariant::FcfsNoDiscard},
      {"lcfs", tcw::net::ProtocolVariant::LcfsNoDiscard},
      {"random", tcw::net::ProtocolVariant::RandomNoDiscard},
  };

  tcw::bench::ObsSession obs("sweep_suite", obs_opts);
  tcw::exec::ThreadPool pool(
      tcw::exec::resolve_threads(static_cast<int>(threads)));
  tcw::exec::SweepScheduler scheduler(pool);
  obs.attach(scheduler);
  std::vector<tcw::net::ScheduledSweep> handles;
  handles.reserve(variants.size());
  for (const VariantSpec& v : variants) {
    handles.push_back(tcw::net::run_sweep(
        {.config = cfg, .constraints = grid, .variant = v.variant},
        {.scheduler = &scheduler, .name = v.name}));
  }
  const auto report =
      tcw::bench::run_scheduler_with_report(scheduler, "sweep_suite");

  std::vector<std::vector<tcw::net::SweepPoint>> points;
  points.reserve(handles.size());
  for (const auto& h : handles) points.push_back(h.points());

  std::printf("suite: all variants on one shared pool (%zu workers)\n\n",
              pool.size());
  tcw::Table summary({"K", "controlled", "fcfs", "lcfs", "random"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    summary.add_row({tcw::format_fixed(grid[i], 1),
                     tcw::format_fixed(points[0][i].p_loss, 5),
                     tcw::format_fixed(points[1][i].p_loss, 5),
                     tcw::format_fixed(points[2][i].p_loss, 5),
                     tcw::format_fixed(points[3][i].p_loss, 5)});
  }
  summary.write_pretty(std::cout);

  for (std::size_t v = 0; v < variants.size(); ++v) {
    tcw::Table table({"K", "p_loss", "ci95", "mean_wait", "sched",
                      "utilization"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const tcw::net::SweepPoint& p = points[v][i];
      table.add_row({tcw::format_fixed(grid[i], 1),
                     tcw::format_fixed(p.p_loss, 5),
                     tcw::format_fixed(p.ci95, 5),
                     tcw::format_fixed(p.mean_wait, 2),
                     tcw::format_fixed(p.mean_scheduling, 3),
                     tcw::format_fixed(p.utilization, 4)});
    }
    const std::string path = variant_csv_path(csv, variants[v].name);
    if (!table.save_csv(path)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("csv: %s\n", path.c_str());
  }
  return obs.finish(&report);
}

}  // namespace

int main(int argc, char** argv) {
  std::string variant_name = "controlled";
  double rho = 0.5;
  double m = 25.0;
  double k_min = 25.0;
  double k_max = 400.0;
  long long points = 8;
  double t_end = 150000.0;
  long long reps = 2;
  unsigned long long seed = 1;
  long long threads = 0;
  std::string csv = "sweep.csv";
  bool with_analytic = true;
  bool suite = false;
  tcw::bench::ObsOptions obs_opts;

  tcw::Flags flags("sweep_tool", "Sweep p(loss) vs K for any variant");
  flags.add("variant", &variant_name,
            "controlled | fcfs | lcfs | random");
  flags.add("suite", &suite,
            "sweep ALL variants as one scheduled job graph on a shared "
            "pool; writes one CSV per variant");
  flags.add("rho", &rho, "offered load rho' = lambda*M");
  flags.add("m", &m, "message length M in slots");
  flags.add("k-min", &k_min, "smallest time constraint");
  flags.add("k-max", &k_max, "largest time constraint");
  flags.add("points", &points, "grid points");
  flags.add("t-end", &t_end, "simulated slots per replication");
  flags.add("reps", &reps, "replications per point");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("threads", &threads,
            "sweep worker threads (0 = all hardware threads)");
  flags.add("csv", &csv, "CSV output path");
  flags.add("analytic", &with_analytic,
            "also evaluate the analytic model where available");
  tcw::bench::register_obs_flags(flags, obs_opts);
  if (!flags.parse(argc, argv)) return 1;

  tcw::net::ProtocolVariant variant = tcw::net::ProtocolVariant::Controlled;
  if (variant_name == "controlled") {
    variant = tcw::net::ProtocolVariant::Controlled;
  } else if (variant_name == "fcfs") {
    variant = tcw::net::ProtocolVariant::FcfsNoDiscard;
  } else if (variant_name == "lcfs") {
    variant = tcw::net::ProtocolVariant::LcfsNoDiscard;
  } else if (variant_name == "random") {
    variant = tcw::net::ProtocolVariant::RandomNoDiscard;
  } else if (!suite) {
    std::fprintf(stderr, "unknown variant '%s'\n", variant_name.c_str());
    return 1;
  }

  tcw::net::SweepConfig cfg;
  cfg.offered_load = rho;
  cfg.message_length = m;
  cfg.t_end = t_end;
  cfg.warmup = t_end / 15.0;
  cfg.replications = static_cast<int>(reps);
  cfg.base_seed = seed;
  cfg.threads = static_cast<int>(threads);

  const auto grid = tcw::net::linear_grid(k_min, k_max,
                                          static_cast<std::size_t>(points));
  if (suite) return run_suite(cfg, grid, threads, csv, obs_opts);

  // One variant is a suite of one: its own pool and scheduler, so the
  // timeline, progress line and scheduler report work as in --suite.
  tcw::bench::ObsSession obs("sweep_tool", obs_opts);
  tcw::exec::ThreadPool pool(
      tcw::exec::resolve_threads(static_cast<int>(threads)));
  tcw::exec::SweepScheduler scheduler(pool);
  obs.attach(scheduler);
  const auto handle = tcw::net::run_sweep(
      {.config = cfg, .constraints = grid, .variant = variant},
      {.scheduler = &scheduler, .name = variant_name});
  const auto report =
      tcw::bench::run_scheduler_with_report(scheduler, "sweep_tool");
  const auto pts = handle.points();

  tcw::analysis::ProtocolModelConfig model;
  model.offered_load = rho;
  model.message_length = m;

  // -1 marks "no analytic model" (random order, or --analytic=false).
  std::vector<double> analytic(grid.size(), -1.0);
  if (with_analytic) {
    switch (variant) {
      case tcw::net::ProtocolVariant::Controlled:
        for (std::size_t i = 0; i < grid.size(); ++i) {
          analytic[i] =
              tcw::analysis::controlled_loss_at(model, grid[i], 0.2).p_loss;
        }
        break;
      case tcw::net::ProtocolVariant::FcfsNoDiscard:
        analytic = tcw::analysis::fcfs_nodiscard_loss_curve(model, grid);
        break;
      case tcw::net::ProtocolVariant::LcfsNoDiscard:
        analytic = tcw::analysis::lcfs_nodiscard_loss_curve(model, grid);
        break;
      case tcw::net::ProtocolVariant::RandomNoDiscard:
        break;
    }
  }

  tcw::Table table({"K", "p_loss", "ci95", "analytic", "mean_wait",
                    "sched", "utilization"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add_row({tcw::format_fixed(grid[i], 1),
                   tcw::format_fixed(pts[i].p_loss, 5),
                   tcw::format_fixed(pts[i].ci95, 5),
                   analytic[i] < 0.0 ? "-"
                                     : tcw::format_fixed(analytic[i], 5),
                   tcw::format_fixed(pts[i].mean_wait, 2),
                   tcw::format_fixed(pts[i].mean_scheduling, 3),
                   tcw::format_fixed(pts[i].utilization, 4)});
  }
  std::printf("variant=%s rho'=%.2f M=%.0f (window width %.2f slots)\n\n",
              variant_name.c_str(), rho, m, cfg.heuristic_window_width());
  table.write_pretty(std::cout);
  if (!table.save_csv(csv)) {
    std::fprintf(stderr, "failed to write %s\n", csv.c_str());
    return 1;
  }
  std::printf("csv: %s\n", csv.c_str());
  return obs.finish(&report);
}
