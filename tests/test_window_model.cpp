#include "smdp/window_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "smdp/value_iteration.hpp"
#include "util/contract.hpp"

namespace {

namespace smdp = tcw::smdp;
namespace exec = tcw::exec;
namespace sim = tcw::sim;

smdp::WindowSmdpConfig small_config() {
  smdp::WindowSmdpConfig cfg;
  cfg.deadline = 12;
  cfg.lambda = 0.1;
  cfg.tx_slots = 4;
  cfg.mc_samples = 4000;
  cfg.seed = 42;
  return cfg;
}

TEST(WindowSmdp, ModelIsWellFormed) {
  const auto model = smdp::build_window_smdp(small_config());
  EXPECT_EQ(model.num_states(), 13u);
  EXPECT_TRUE(model.validate(1e-6));
  // State 0 only waits; state i offers i windows plus wait.
  EXPECT_EQ(model.num_actions(0), 1u);
  EXPECT_EQ(model.num_actions(5), 6u);
  EXPECT_EQ(model.num_actions(12), 13u);
}

TEST(WindowSmdp, MaxWindowCapRespected) {
  auto cfg = small_config();
  cfg.max_window = 3;
  const auto model = smdp::build_window_smdp(cfg);
  EXPECT_EQ(model.num_actions(12), 4u);  // wait + widths 1..3
}

TEST(WindowSmdp, WaitActionStructure) {
  const auto model = smdp::build_window_smdp(small_config());
  const auto& wait = model.action(3, 0);
  EXPECT_EQ(wait.label, "wait");
  EXPECT_DOUBLE_EQ(wait.holding, 1.0);
  ASSERT_EQ(wait.transitions.size(), 1u);
  EXPECT_EQ(wait.transitions[0].next, 4u);
  EXPECT_DOUBLE_EQ(wait.cost, 0.0);
  // At the deadline boundary waiting sheds one slot of arrivals.
  const auto& edge = model.action(12, 0);
  EXPECT_DOUBLE_EQ(edge.cost, small_config().lambda);
  EXPECT_EQ(edge.transitions[0].next, 12u);
}

TEST(WindowSmdp, KernelIsDeterministicGivenSeed) {
  const auto a = smdp::build_window_smdp(small_config());
  const auto b = smdp::build_window_smdp(small_config());
  for (std::size_t s = 0; s < a.num_states(); ++s) {
    ASSERT_EQ(a.num_actions(s), b.num_actions(s));
    for (std::size_t act = 0; act < a.num_actions(s); ++act) {
      EXPECT_DOUBLE_EQ(a.action(s, act).cost, b.action(s, act).cost);
      EXPECT_DOUBLE_EQ(a.action(s, act).holding, b.action(s, act).holding);
    }
  }
}

TEST(WindowSmdp, SolveProducesSensiblePolicy) {
  const auto result = smdp::solve_window_model(small_config());
  EXPECT_TRUE(result.stats.converged);
  EXPECT_GE(result.loss_fraction, 0.0);
  EXPECT_LE(result.loss_fraction, 1.0);
  // The empty state can only wait.
  EXPECT_EQ(result.width_per_state[0], 0u);
  // With backlog present, some window should be probed somewhere.
  bool probes_somewhere = false;
  for (std::size_t i = 1; i < result.width_per_state.size(); ++i) {
    if (result.width_per_state[i] > 0) probes_somewhere = true;
    EXPECT_LE(result.width_per_state[i], i);
  }
  EXPECT_TRUE(probes_somewhere);
}

TEST(WindowSmdp, HigherLoadLosesMore) {
  auto low = small_config();
  low.lambda = 0.06;
  auto high = small_config();
  high.lambda = 0.2;
  const auto l = smdp::solve_window_model(low);
  const auto h = smdp::solve_window_model(high);
  EXPECT_GE(h.loss_fraction, l.loss_fraction);
}

TEST(WindowSmdp, LongerDeadlineLosesLess) {
  auto short_k = small_config();
  short_k.deadline = 8;
  auto long_k = small_config();
  long_k.deadline = 20;
  const auto s = smdp::solve_window_model(short_k);
  const auto l = smdp::solve_window_model(long_k);
  EXPECT_LE(l.loss_fraction, s.loss_fraction + 0.01);
}

TEST(WindowSmdp, ValueIterationAgreesOnGain) {
  const auto cfg = small_config();
  const auto model = smdp::build_window_smdp(cfg);
  const auto pi = smdp::policy_iteration(model);
  const auto vi = smdp::value_iteration(model, 1e-8, 500000);
  EXPECT_NEAR(vi.gain, pi.eval.gain, 1e-4);
}

TEST(WindowSmdp, StateActionCountGrowsQuadratically) {
  // The "computationally too expensive" observation: (K+1)(K+2)/2 + K
  // state-action pairs, each needing a kernel estimate, and each policy
  // evaluation solving a (K+1)x(K+1) linear system.
  auto cfg = small_config();
  cfg.deadline = 8;
  cfg.mc_samples = 500;
  const auto small_model = smdp::build_window_smdp(cfg);
  cfg.deadline = 16;
  const auto big_model = smdp::build_window_smdp(cfg);
  EXPECT_GT(big_model.num_state_actions(),
            3u * small_model.num_state_actions());
}

TEST(WindowSmdp, InvalidConfigurationRejected) {
  auto cfg = small_config();
  cfg.lambda = 0.0;
  EXPECT_THROW(smdp::build_window_smdp(cfg), tcw::ContractViolation);
  cfg = small_config();
  cfg.mc_samples = 10;
  EXPECT_THROW(smdp::build_window_smdp(cfg), tcw::ContractViolation);
  cfg = small_config();
  cfg.deadline = 0;
  EXPECT_THROW(smdp::build_window_smdp(cfg), tcw::ContractViolation);
}

// ---- Fused multi-deadline build vs the one-model sampling loop ----

// Reference: the one-model Monte Carlo loop as first written (std::map
// bins, one Poisson draw through sim::poisson per sample, a fresh stream
// per model). The fused builder must reproduce it bit for bit.
struct RefOutcome {
  double probe_slots = 0.0;
  double resolved = 0.0;
  bool transmitted = false;
};

RefOutcome ref_process(const std::vector<double>& pos) {
  RefOutcome out;
  const auto count_in = [&pos](double lo, double hi) {
    return static_cast<std::size_t>(
        std::lower_bound(pos.begin(), pos.end(), hi) -
        std::lower_bound(pos.begin(), pos.end(), lo));
  };
  std::vector<std::pair<double, double>> pending;
  double lo = 0.0;
  double hi = 1.0;
  std::size_t probes = 0;
  while (true) {
    ++probes;
    const std::size_t n = count_in(lo, hi);
    if (n == 1) {
      out.transmitted = true;
      out.resolved = hi;
      out.probe_slots = static_cast<double>(probes - 1);
      return out;
    }
    if (n == 0) {
      if (pending.empty()) {
        out.resolved = hi;
        out.probe_slots = static_cast<double>(probes);
        return out;
      }
      const auto sib = pending.back();
      pending.pop_back();
      const double mid = (sib.first + sib.second) / 2.0;
      pending.emplace_back(mid, sib.second);
      lo = sib.first;
      hi = mid;
    } else {
      const double mid = (lo + hi) / 2.0;
      pending.emplace_back(mid, hi);
      hi = mid;
    }
  }
}

smdp::Smdp reference_build(const smdp::WindowSmdpConfig& config) {
  const std::size_t k = config.deadline;
  smdp::Smdp model(k + 1);
  for (std::size_t i = 0; i <= k; ++i) {
    smdp::ActionData wait;
    wait.label = "wait";
    wait.holding = 1.0;
    wait.transitions.push_back({std::min(i + 1, k), 1.0});
    wait.cost = (i + 1 > k) ? config.lambda : 0.0;
    model.add_action(i, std::move(wait));
  }
  sim::Rng rng(config.seed);
  std::vector<double> positions;
  for (std::size_t i = 1; i <= k; ++i) {
    const std::size_t w_cap =
        config.max_window == 0 ? i : std::min(i, config.max_window);
    for (std::size_t w = 1; w <= w_cap; ++w) {
      const double nu = config.lambda * static_cast<double>(w);
      std::map<std::size_t, double> hits;
      double total_cost = 0.0;
      double total_holding = 0.0;
      for (std::size_t s = 0; s < config.mc_samples; ++s) {
        const auto n = sim::poisson(rng, nu);
        RefOutcome oc;
        if (n == 0) {
          oc.probe_slots = 1.0;
          oc.resolved = 1.0;
        } else if (n == 1) {
          oc.transmitted = true;
          oc.resolved = 1.0;
        } else {
          positions.clear();
          for (std::uint64_t j = 0; j < n; ++j) {
            positions.push_back(sim::uniform01(rng));
          }
          std::sort(positions.begin(), positions.end());
          oc = ref_process(positions);
        }
        const double sigma =
            oc.probe_slots +
            (oc.transmitted ? static_cast<double>(config.tx_slots) : 0.0);
        const double next_backlog = static_cast<double>(i) -
                                    oc.resolved * static_cast<double>(w) +
                                    sigma;
        const double overflow =
            std::max(0.0, next_backlog - static_cast<double>(k));
        total_cost += config.lambda * overflow;
        total_holding += sigma;
        const double clipped =
            std::clamp(next_backlog, 0.0, static_cast<double>(k));
        const double fl = std::floor(clipped);
        const double frac = clipped - fl;
        const auto j0 = static_cast<std::size_t>(fl);
        hits[j0] += 1.0 - frac;
        if (frac > 0.0) hits[std::min(j0 + 1, k)] += frac;
      }
      smdp::ActionData act;
      act.label = "w=" + std::to_string(w);
      const auto samples = static_cast<double>(config.mc_samples);
      act.holding = std::max(total_holding / samples, 1e-9);
      act.cost = total_cost / samples;
      for (const auto& [next, weight] : hits) {
        act.transitions.push_back({next, weight / samples});
      }
      model.add_action(i, std::move(act));
    }
  }
  return model;
}

void expect_identical(const smdp::Smdp& got, const smdp::Smdp& want,
                      const std::string& where) {
  ASSERT_EQ(got.num_states(), want.num_states()) << where;
  for (std::size_t s = 0; s < want.num_states(); ++s) {
    ASSERT_EQ(got.num_actions(s), want.num_actions(s)) << where;
    for (std::size_t a = 0; a < want.num_actions(s); ++a) {
      const auto& g = got.action(s, a);
      const auto& w = want.action(s, a);
      const std::string at = where + " state " + std::to_string(s) +
                             " action " + std::to_string(a);
      EXPECT_EQ(g.label, w.label) << at;
      EXPECT_EQ(std::memcmp(&g.cost, &w.cost, sizeof(double)), 0) << at;
      EXPECT_EQ(std::memcmp(&g.holding, &w.holding, sizeof(double)), 0)
          << at;
      ASSERT_EQ(g.transitions.size(), w.transitions.size()) << at;
      EXPECT_EQ(std::memcmp(g.transitions.data(), w.transitions.data(),
                            w.transitions.size() * sizeof(smdp::Transition)),
                0)
          << at;
    }
  }
}

// Pool settings every fused case runs under: none, one worker (inline),
// four workers (pipelined pairs).
std::vector<std::unique_ptr<exec::ThreadPool>> pool_settings() {
  std::vector<std::unique_ptr<exec::ThreadPool>> pools;
  pools.push_back(nullptr);
  pools.push_back(std::make_unique<exec::ThreadPool>(1));
  pools.push_back(std::make_unique<exec::ThreadPool>(4));
  return pools;
}

std::string pool_name(const exec::ThreadPool* pool) {
  return pool == nullptr ? "no pool"
                         : std::to_string(pool->size()) + "-thread pool";
}

void expect_fused_matches_reference(const smdp::WindowSmdpConfig& base,
                                    const std::vector<std::size_t>& ks) {
  std::map<std::size_t, smdp::Smdp> reference;
  for (const std::size_t k : ks) {
    auto cfg = base;
    cfg.deadline = k;
    reference.emplace(k, reference_build(cfg));
    expect_identical(smdp::build_window_smdp(cfg), reference.at(k),
                     "one-model K=" + std::to_string(k));
  }
  for (const auto& pool : pool_settings()) {
    const auto models = smdp::build_window_smdps(base, ks, pool.get());
    ASSERT_EQ(models.size(), ks.size());
    for (std::size_t d = 0; d < ks.size(); ++d) {
      expect_identical(models[d], reference.at(ks[d]),
                       pool_name(pool.get()) + " K=" + std::to_string(ks[d]));
    }
  }
}

smdp::WindowSmdpConfig study_config() {
  smdp::WindowSmdpConfig cfg;
  cfg.lambda = 0.12;
  cfg.tx_slots = 5;
  cfg.mc_samples = 150;
  return cfg;
}

TEST(WindowSmdpFused, StudyDeadlinesMatchOneModelBuilds) {
  expect_fused_matches_reference(study_config(), {12, 16, 24, 32, 48});
}

TEST(WindowSmdpFused, UnsortedAndDuplicateDeadlines) {
  auto cfg = study_config();
  cfg.seed = 99;
  expect_fused_matches_reference(cfg, {16, 5, 16, 1, 9, 5});
}

TEST(WindowSmdpFused, MaxWindowCap) {
  auto cfg = small_config();
  cfg.max_window = 3;
  cfg.mc_samples = 300;
  expect_fused_matches_reference(cfg, {14, 3, 7});
}

TEST(WindowSmdpFused, LargeMeanUsesPoissonFallback) {
  // lambda * w reaches 30 at w = 30: those pairs take sim::poisson's
  // halving path instead of the hoisted Knuth product.
  smdp::WindowSmdpConfig cfg;
  cfg.lambda = 1.0;
  cfg.tx_slots = 2;
  cfg.mc_samples = 100;
  cfg.seed = 5;
  expect_fused_matches_reference(cfg, {40, 31});
}

TEST(WindowSmdpFused, SolveMatchesOneModelSolves) {
  const auto cfg = study_config();
  const std::vector<std::size_t> ks = {24, 12};
  exec::ThreadPool pool(4);
  const auto solved = smdp::solve_window_models(cfg, ks, &pool);
  ASSERT_EQ(solved.size(), ks.size());
  for (std::size_t d = 0; d < ks.size(); ++d) {
    auto one = cfg;
    one.deadline = ks[d];
    const auto want = smdp::solve_window_model(one);
    EXPECT_EQ(solved[d].width_per_state, want.width_per_state);
    EXPECT_EQ(std::memcmp(&solved[d].loss_fraction, &want.loss_fraction,
                          sizeof(double)),
              0);
    EXPECT_EQ(solved[d].state_actions, want.state_actions);
    EXPECT_EQ(solved[d].stats.iterations, want.stats.iterations);
  }
}

TEST(WindowSmdpFused, EmptyDeadlineListBuildsNothing) {
  const auto samples =
      tcw::obs::Registry::global().counter("smdp.mc_samples");
  const auto before = samples.value();
  for (const auto& pool : pool_settings()) {
    EXPECT_TRUE(smdp::build_window_smdps(study_config(), {}, pool.get())
                    .empty());
    EXPECT_TRUE(smdp::solve_window_models(study_config(), {}, pool.get())
                    .empty());
  }
  EXPECT_EQ(samples.value(), before);
}

TEST(WindowSmdpFused, InvalidConfigurationRejected) {
  auto cfg = study_config();
  cfg.lambda = 0.0;
  EXPECT_THROW(smdp::build_window_smdps(cfg, {4}), tcw::ContractViolation);
  cfg = study_config();
  cfg.mc_samples = 99;
  EXPECT_THROW(smdp::build_window_smdps(cfg, {4}), tcw::ContractViolation);
  cfg = study_config();
  cfg.tx_slots = 0;
  EXPECT_THROW(smdp::build_window_smdps(cfg, {4}), tcw::ContractViolation);
  exec::ThreadPool pool(4);
  EXPECT_THROW(smdp::build_window_smdps(study_config(), {8, 0, 4}, &pool),
               tcw::ContractViolation);
  EXPECT_THROW(smdp::solve_window_models(study_config(), {0}),
               tcw::ContractViolation);
}

struct SolverCounts {
  std::uint64_t state_actions = 0;
  std::uint64_t mc_samples = 0;
  std::uint64_t pi_rounds = 0;
  std::uint64_t linear_solves = 0;
};

SolverCounts solver_counts() {
  auto& registry = tcw::obs::Registry::global();
  return {registry.counter("smdp.state_actions").value(),
          registry.counter("smdp.mc_samples").value(),
          registry.counter("smdp.pi_rounds").value(),
          registry.counter("smdp.linear_solves").value()};
}

TEST(WindowSmdpFused, SolverCountersAreThreadCountInvariant) {
  const auto cfg = study_config();
  const std::vector<std::size_t> ks = {12, 16, 24, 32, 48};
  std::vector<SolverCounts> deltas;
  for (const unsigned threads : {1u, 4u}) {
    exec::ThreadPool pool(threads);
    const auto before = solver_counts();
    const auto solved = smdp::solve_window_models(cfg, ks, &pool);
    const auto after = solver_counts();
    deltas.push_back({after.state_actions - before.state_actions,
                      after.mc_samples - before.mc_samples,
                      after.pi_rounds - before.pi_rounds,
                      after.linear_solves - before.linear_solves});
    std::uint64_t state_actions = 0;
    for (const auto& r : solved) state_actions += r.state_actions;
    EXPECT_EQ(deltas.back().state_actions, state_actions);
  }
  // Samples drawn: one pass over the K = 48 stream, 48 * 49 / 2 pairs.
  EXPECT_EQ(deltas[0].mc_samples, 1176u * cfg.mc_samples);
  EXPECT_GT(deltas[0].pi_rounds, 0u);
  EXPECT_GE(deltas[0].linear_solves, deltas[0].pi_rounds);
  EXPECT_EQ(deltas[1].state_actions, deltas[0].state_actions);
  EXPECT_EQ(deltas[1].mc_samples, deltas[0].mc_samples);
  EXPECT_EQ(deltas[1].pi_rounds, deltas[0].pi_rounds);
  EXPECT_EQ(deltas[1].linear_solves, deltas[0].linear_solves);
}

}  // namespace
