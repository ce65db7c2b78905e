// study_suite and study_resume: every registered study on one scheduler
// through bench::run_study_suite, with a shard store that is cold (every
// shard simulated and written) or prepared beforehand (every shard read).
//
// The registry exposes no seed: every study fixes its own, so these two
// workloads run the same inputs at every benchmark seed and always
// byte-compare their outputs.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>

#include "core/policy.hpp"
#include "exec/shard_cache.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "fig7_common.hpp"
#include "obs/registry.hpp"
#include "smdp/policy_iteration.hpp"
#include "smdp/window_model.hpp"
#include "study.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tcw::format_fixed;

constexpr const char* kAdaptive = "ablation_adaptive_width";

// AdaptiveWidthStudy (bench/studies.cpp) at its defaults, replayed with
// the SMDP build and solve as separate calls: the study solves the model
// inside schedule(), so the traced run cannot time the two apart through
// the Study interface.
class AdaptiveWidthReplay {
 public:
  void schedule(Tracer& tracer, Counters& counters,
                tcw::bench::StudyContext& ctx) {
    const double m = static_cast<double>(kTx - 1);
    tcw::net::SweepConfig cfg;
    cfg.offered_load = kLambda * m;
    cfg.message_length = m;
    cfg.t_end = kTEnd;
    cfg.warmup = kTEnd / 15.0;
    cfg.replications = kReps;
    const double heuristic_width = cfg.heuristic_window_width();
    for (const long long k : {12LL, 16LL, 24LL, 32LL, 48LL}) {
      tcw::smdp::WindowSmdpConfig wcfg;
      wcfg.deadline = static_cast<std::size_t>(k);
      wcfg.lambda = kLambda;
      wcfg.tx_slots = kTx;
      wcfg.mc_samples = kSamples;
      std::optional<tcw::smdp::Smdp> model;
      {
        auto s = tracer.scope("smdp.build");
        model.emplace(tcw::smdp::build_window_smdp(wcfg));
      }
      tcw::smdp::IterationStats stats;
      {
        auto s = tracer.scope("smdp.solve");
        stats = tcw::smdp::policy_iteration(*model);
      }
      const auto state_actions =
          static_cast<double>(model->num_state_actions());
      counters["smdp.state_actions"] += state_actions;
      counters["smdp.mc_draws_computed"] +=
          state_actions * static_cast<double>(kSamples);
      counters["smdp.pi_rounds"] += stats.iterations;
      counters["smdp.linear_solves"] +=
          static_cast<double>(stats.linear_solves);

      auto s = tracer.scope("exec.enqueue");
      std::vector<double> width_table(wcfg.deadline + 1);
      for (std::size_t i = 0; i < width_table.size(); ++i) {
        width_table[i] = static_cast<double>(stats.policy.choice[i]);
      }
      const std::string kname = "K" + std::to_string(k);
      auto static_sweep = ctx.sweep(
          kname + "/static", cfg,
          [heuristic_width](double deadline) {
            return tcw::core::ControlPolicy::optimal(deadline,
                                                     heuristic_width);
          },
          {static_cast<double>(k)});
      auto adaptive_sweep = ctx.sweep(
          kname + "/adaptive", cfg,
          [heuristic_width, width_table](double deadline) {
            auto p = tcw::core::ControlPolicy::optimal(deadline,
                                                       heuristic_width);
            p.width_table = width_table;
            return p;
          },
          {static_cast<double>(k)});
      arms_.push_back({k, stats.eval.gain / kLambda, std::move(static_sweep),
                       std::move(adaptive_sweep)});
    }
  }

  bool render(tcw::bench::StudyContext& ctx) const {
    tcw::Table table({"K", "loss_static", "ci_static", "loss_adaptive",
                      "ci_adaptive", "smdp_pseudo_loss"});
    for (const Arm& arm : arms_) {
      const auto st = arm.static_sweep.points();
      const auto ad = arm.adaptive_sweep.points();
      table.add_row({std::to_string(arm.k), format_fixed(st[0].p_loss, 5),
                     format_fixed(st[0].ci95, 5),
                     format_fixed(ad[0].p_loss, 5),
                     format_fixed(ad[0].ci95, 5),
                     format_fixed(arm.pseudo_loss, 5)});
    }
    table.write_pretty(std::cout);
    return table.save_csv(ctx.csv_path());
  }

 private:
  static constexpr double kLambda = 0.12;
  static constexpr std::size_t kTx = 5;
  static constexpr double kTEnd = 400000.0;
  static constexpr int kReps = 3;
  static constexpr std::size_t kSamples = 20000;
  struct Arm {
    long long k;
    double pseudo_loss;
    tcw::net::ScheduledSweep static_sweep;
    tcw::net::ScheduledSweep adaptive_sweep;
  };
  std::vector<Arm> arms_;
};

class StudySuite final : public Workload {
 public:
  StudySuite(const Env& env, bool resume)
      : env_(env), resume_(resume), store_(env.work + "/store") {}

  void prepare() override {
    if (!resume_) return;
    tcw::bench::StudyCommonOptions common = common_options();
    common.resume = false;
    if (tcw::bench::run_study_suite(common) != 0) {
      std::fprintf(stderr, "study_resume: preparing the store failed\n");
    }
  }

  JobTimes run_job() override {
    clear_outputs();
    JobTimes t;
    t.setup_s = time_setup();
    const std::uint64_t inserts0 = registry_counter("exec.shard_cache.inserts");
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    rc_ = tcw::bench::run_study_suite(common_options());
    t.wall_s = seconds_since(t0);
    t.cpu_s = process_cpu_seconds() - cpu0;
    t.elapsed_s = t.wall_s;
    inserts_ = registry_counter("exec.shard_cache.inserts") - inserts0;
    return t;
  }

  void replay(Tracer& tracer, Counters& counters) override {
    clear_outputs();
    rc_ = 0;
    const std::uint64_t inserts0 = registry_counter("exec.shard_cache.inserts");
    const tcw::bench::StudyCommonOptions common = common_options();
    std::optional<tcw::exec::ThreadPool> pool;
    std::optional<tcw::exec::SweepScheduler> scheduler;
    {
      auto s = tracer.scope("exec.pool");
      pool.emplace(env_.threads);
      scheduler.emplace(*pool);
      scheduler->set_timeline(&tracer.timeline());
    }
    const auto& registry = tcw::bench::registry();
    std::vector<std::unique_ptr<tcw::bench::Study>> studies;
    std::vector<std::unique_ptr<tcw::exec::ShardCache>> caches;
    std::vector<std::unique_ptr<tcw::bench::StudyContext>> contexts;
    AdaptiveWidthReplay adaptive;
    for (const tcw::bench::StudyEntry& e : registry) {
      const bool is_adaptive = e.spec.name == kAdaptive;
      {
        auto s = tracer.scope("bench.registry");
        studies.push_back(is_adaptive ? nullptr : e.make());
      }
      {
        auto s = tracer.scope("exec.shard_cache.open");
        caches.push_back(open_cache(e.spec.name));
        contexts.push_back(std::make_unique<tcw::bench::StudyContext>(
            e.spec, common, *scheduler, caches.back().get()));
      }
      if (is_adaptive) {
        adaptive.schedule(tracer, counters, *contexts.back());
      } else {
        auto s = tracer.scope("exec.enqueue");
        studies.back()->schedule(*contexts.back());
      }
    }
    {
      auto s = tracer.scope("exec.scheduler");
      tcw::bench::run_scheduler_with_report(*scheduler, "study_suite");
    }
    for (std::size_t i = 0; i < registry.size(); ++i) {
      auto s = tracer.scope("bench.render");
      tcw::bench::print_cache_report(registry[i].spec.name, *contexts[i]);
      const bool ok = studies[i] == nullptr
                          ? adaptive.render(*contexts[i])
                          : studies[i]->render(*contexts[i]) == 0;
      if (!ok) rc_ = 1;
    }
    {
      auto s = tracer.scope("exec.pool");
      contexts.clear();
      caches.clear();
      scheduler.reset();
      pool.reset();
    }
    inserts_ = registry_counter("exec.shard_cache.inserts") - inserts0;
    counters["exec.shard_cache.store_bytes"] +=
        static_cast<double>(directory_bytes(store_));
    for (const auto& e : registry) {
      counters["bench.csv_bytes"] += static_cast<double>(
          read_file(e.spec.default_csv).size());
    }
  }

  void check(Outcome& out) override {
    const std::string label = resume_ ? "study_resume" : "study_suite";
    out.record(rc_ == 0, label + ": entry point returned nonzero");
    // Resumed: every shard comes from the store, none is simulated.
    // Cold: every shard is simulated and written.
    out.record(resume_ ? inserts_ == 0 : inserts_ > 0,
               label + ": unexpected shard-store inserts");
    for (const auto& e : tcw::bench::registry()) {
      const std::string name = e.spec.default_csv;
      const std::string bytes = read_file(name);
      repeat_.check(name, bytes, out);
      bool have_ref = false;
      const std::string ref = read_file(reference_path(env_, name), &have_ref);
      if (!have_ref) {
        out.record(false, name + ": no reference output");
        continue;
      }
      compare_csv(name, bytes, ref, {}, out);
    }
  }

  void record_references() override {
    for (const auto& e : tcw::bench::registry()) {
      const std::string name = e.spec.default_csv;
      if (fs::exists(env_.root + "/results/" + name)) continue;
      fs::copy_file(name, recorded_reference_path(env_, name),
                    fs::copy_options::overwrite_existing);
    }
  }

  std::string expected_dominant() const override {
    return resume_ ? "smdp.build" : std::string();
  }

 private:
  tcw::bench::StudyCommonOptions common_options() const {
    tcw::bench::StudyCommonOptions common;
    common.threads = env_.threads;
    common.cache_dir = store_;
    common.resume = resume_;
    return common;
  }

  std::unique_ptr<tcw::exec::ShardCache> open_cache(
      const std::string& study) const {
    return std::make_unique<tcw::exec::ShardCache>(
        tcw::bench::study_store_path(store_, study),
        resume_ ? tcw::exec::ShardCache::Mode::Resume
                : tcw::exec::ShardCache::Mode::Fresh);
  }

  // The set-up run_study_suite performs before its first unit of work:
  // the pool, the registry and one instance per study, and each study's
  // shard store, opened fresh (cold) or reloaded (resumed). Cold probes
  // use a store of their own so the job's store is left alone.
  double time_setup() {
    std::vector<double> probes;
    const std::string dir = resume_ ? store_ : env_.work + "/probe_store";
    for (int i = 0; i < kSetupProbes; ++i) {
      const auto t0 = Clock::now();
      {
        tcw::exec::ThreadPool pool(env_.threads);
        std::vector<std::unique_ptr<tcw::bench::Study>> studies;
        std::vector<std::unique_ptr<tcw::exec::ShardCache>> caches;
        for (const auto& e : tcw::bench::registry()) {
          studies.push_back(e.make());
          caches.push_back(std::make_unique<tcw::exec::ShardCache>(
              tcw::bench::study_store_path(dir, e.spec.name),
              resume_ ? tcw::exec::ShardCache::Mode::Resume
                      : tcw::exec::ShardCache::Mode::Fresh));
        }
      }
      probes.push_back(seconds_since(t0));
    }
    return median(probes);
  }

  void clear_outputs() const {
    std::error_code ec;
    for (const auto& e : tcw::bench::registry()) {
      fs::remove(e.spec.default_csv, ec);
    }
  }

  static std::uint64_t registry_counter(const char* name) {
    return tcw::obs::Registry::global().snapshot().counter(name);
  }

  Env env_;
  bool resume_;
  std::string store_;
  int rc_ = 0;
  std::uint64_t inserts_ = 0;
  RepeatCheck repeat_;
};

}  // namespace

std::unique_ptr<Workload> make_study_suite(const Env& env, bool resume) {
  return std::make_unique<StudySuite>(env, resume);
}

std::string reference_path(const Env& env, const std::string& name) {
  const std::string committed = env.root + "/results/" + name;
  return fs::exists(committed) ? committed
                               : recorded_reference_path(env, name);
}

std::string recorded_reference_path(const Env& env, const std::string& name) {
  return env.root + "/perfbench/reference/" + name;
}

}  // namespace perfbench
