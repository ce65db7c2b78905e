// Model validation: the checks behind the paper's claims about eq. 4.7 --
// the K -> 0 and K -> infinity limits, the lattice bracket width of the
// z(K, rho) series, fixpoint behaviour of the iteration in K, and a
// three-way comparison (queueing model vs SMDP vs simulation) at a scale
// where all three are computable.
#include <cstdio>
#include <iostream>
#include <memory>

#include "analysis/loss_model.hpp"
#include "analysis/mg1.hpp"
#include "analysis/splitting.hpp"
#include "dist/families.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "fig7_common.hpp"
#include "net/aggregate_sim.hpp"
#include "net/experiment.hpp"
#include "smdp/window_model.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  bool quick = false;
  long long threads = 0;
  std::string csv = "model_validation.csv";
  tcw::Flags flags("model_validation",
                   "Sanity limits and cross-model agreement for eq. 4.7");
  flags.add("quick", &quick, "shrink run length for smoke testing");
  flags.add("threads", &threads,
            "sweep worker threads (0 = all hardware threads)");
  flags.add("csv", &csv, "CSV output path");
  if (!flags.parse(argc, argv)) return 1;

  namespace analysis = tcw::analysis;

  std::printf("== eq. 4.7 sanity limits ==\n");
  const auto service = tcw::dist::deterministic(26);
  const double lambda = 0.02;  // rho' = 0.5, M = 25 (+1 detection)
  const auto at0 = analysis::mg1_impatient_loss(service, lambda, 0.0);
  const double rho = at0.rho;
  std::printf("K=0:    p(loss) = %.6f  (closed form rho/(1+rho) = %.6f)\n",
              at0.p_loss, rho / (1.0 + rho));
  const auto at_inf = analysis::mg1_impatient_loss(service, lambda, 2000.0);
  std::printf("K=2000: p(loss) = %.2e  (-> 0 for rho < 1)\n", at_inf.p_loss);

  std::printf("\n== z(K, rho) lattice bracket width vs refinement ==\n");
  for (const unsigned refine : {1u, 2u, 4u, 8u, 16u}) {
    const auto r = analysis::mg1_impatient_loss(service, lambda, 60.0,
                                                refine);
    std::printf("refine=%2u: loss in [%.6f, %.6f], width %.2e\n", refine,
                r.loss_lower, r.loss_upper, r.loss_upper - r.loss_lower);
  }

  std::printf("\n== iteration-in-K fixpoint diagnostics ==\n");
  analysis::ProtocolModelConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  tcw::Table table({"K", "p_loss", "iterations", "rho", "sched_mean",
                    "nu_eff"});
  const auto curve = analysis::controlled_loss_curve(
      cfg, {0.0, 12.5, 25.0, 50.0, 100.0, 200.0, 400.0});
  for (const auto& pt : curve) {
    table.add_row({tcw::format_fixed(pt.K, 1),
                   tcw::format_fixed(pt.p_loss, 6),
                   std::to_string(pt.iterations),
                   tcw::format_fixed(pt.rho, 4),
                   tcw::format_fixed(pt.sched_mean, 4),
                   tcw::format_fixed(pt.nu_eff, 4)});
  }
  table.write_pretty(std::cout);

  std::printf("\n== scheduling models (geometric fit vs exact) ==\n");
  for (const double k : {25.0, 50.0, 100.0}) {
    auto geo = cfg;
    auto exact = cfg;
    exact.scheduling = analysis::SchedulingModel::ExactConditional;
    auto none = cfg;
    none.scheduling = analysis::SchedulingModel::None;
    std::printf("K=%5.1f: geometric %.5f, exact %.5f, no-scheduling %.5f\n",
                k, analysis::controlled_loss_at(geo, k, 0.2).p_loss,
                analysis::controlled_loss_at(exact, k, 0.2).p_loss,
                analysis::controlled_loss_at(none, k, 0.2).p_loss);
  }

  std::printf("\n== eq. 4.4 accepted-wait distribution vs simulation ==\n");
  {
    // Compare the analytic density of accepted waits (paper eq. 4.4)
    // against the simulated wait histogram at rho' = 0.5, M = 25, K = 75.
    const std::size_t k75 = 75;
    const auto fixpt = analysis::controlled_loss_at(cfg, 75.0, 0.1);
    const auto service4 =
        analysis::service_distribution(cfg, fixpt.nu_eff);
    const auto f = analysis::accepted_wait_distribution(
        service4, cfg.lambda(), k75);

    tcw::net::AggregateConfig sim_cfg;
    sim_cfg.policy = tcw::core::ControlPolicy::optimal(
        75.0, analysis::optimal_window_load() / cfg.lambda());
    sim_cfg.message_length = 25.0;
    sim_cfg.t_end = quick ? 100000.0 : 400000.0;
    sim_cfg.warmup = sim_cfg.t_end / 20.0;
    sim_cfg.record_wait_histogram = true;
    sim_cfg.wait_hist_max = 75.0;
    sim_cfg.wait_hist_bins = 15;  // 5-slot cells
    tcw::net::AggregateSimulator sim(
        sim_cfg, std::make_unique<tcw::chan::PoissonProcess>(cfg.lambda()));
    const auto& m = sim.run();

    std::printf("  wait cell    analytic  simulated\n");
    const double accept = 1.0 - m.p_loss();
    for (std::size_t cell = 0; cell < 15; ++cell) {
      double analytic_mass = 0.0;
      for (std::size_t w = cell * 5; w < (cell + 1) * 5; ++w) {
        analytic_mass += f.at(w);
      }
      const double sim_mass =
          m.wait_hist.total() == 0
              ? 0.0
              : accept * static_cast<double>(m.wait_hist.count(cell)) /
                    static_cast<double>(m.wait_hist.total());
      std::printf("  [%3zu,%3zu)   %.5f   %.5f\n", cell * 5, (cell + 1) * 5,
                  analytic_mass, sim_mass);
    }
    std::printf("  (both columns sum to p(accept); the paper's eq. 4.4)\n");
  }

  std::printf("\n== three-way check at small scale: queueing model / SMDP "
              "/ simulation ==\n");
  // Small parameters so the SMDP is tractable: M+1 = 5 slots, K = 24.
  tcw::smdp::WindowSmdpConfig wcfg;
  wcfg.deadline = 24;
  wcfg.lambda = 0.12;
  wcfg.tx_slots = 5;
  wcfg.mc_samples = quick ? 2000 : 20000;
  const auto smdp_res = tcw::smdp::solve_window_model(wcfg);

  analysis::ProtocolModelConfig small;
  small.offered_load = 0.12 * 4.0;
  small.message_length = 4.0;
  const auto queueing = analysis::controlled_loss_at(small, 24.0, 0.1);

  // The simulation arm runs as a scheduled sweep on a shared pool (the
  // same enqueue path fig7_all uses); points are bit-identical for any
  // thread count.
  tcw::net::SweepConfig sweep;
  sweep.offered_load = 0.48;
  sweep.message_length = 4.0;
  sweep.t_end = quick ? 60000.0 : 300000.0;
  sweep.warmup = sweep.t_end / 15.0;
  sweep.replications = quick ? 1 : 3;
  tcw::exec::ThreadPool pool(
      tcw::exec::resolve_threads(static_cast<int>(threads)));
  tcw::exec::SweepScheduler scheduler(pool);
  const auto scheduled = tcw::net::run_sweep(
      {.config = sweep, .constraints = {24.0},
       .variant = tcw::net::ProtocolVariant::Controlled},
      {.scheduler = &scheduler, .name = "controlled_small_scale"});
  tcw::bench::run_scheduler_with_report(scheduler, "model_validation");
  const auto sim = scheduled.points();

  std::printf("queueing model (eq 4.7 + heuristic el.2): %.5f\n",
              queueing.p_loss);
  std::printf("SMDP (optimal adaptive el.2, pseudo loss): %.5f\n",
              smdp_res.loss_fraction);
  std::printf("simulation (heuristic el.2, true waits):   %.5f +- %.5f\n",
              sim[0].p_loss, sim[0].ci95);
  std::printf("(ordering SMDP <= model <= sim expected: the SMDP optimizes"
              "\n element 2 per state and charges pseudo losses only; the"
              "\n simulation charges true waiting times.)\n");
  if (!table.save_csv(csv)) return 1;
  std::printf("csv: %s\n", csv.c_str());
  return 0;
}
