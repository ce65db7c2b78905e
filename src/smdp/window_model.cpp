#include "smdp/window_model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/registry.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace tcw::smdp {

namespace {

struct ProcessOutcome {
  double probe_slots = 0.0;    // idle/collision probe slots (success slot
                               // is absorbed into the transmission time)
  double resolved = 0.0;       // resolved prefix, fraction of the window
  bool transmitted = false;
};

/// A sub-window [lo, hi) of the initial window and the index range
/// [first, last) of the sorted arrival positions inside it.
struct Interval {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Exact splitting dynamics over one windowing process whose (unit-width)
/// initial window holds the given sorted arrival positions. Elements (1)
/// and (3) fixed at their Theorem-1 values (oldest placement is implied by
/// the caller; older half first here). `pending` is scratch space.
ProcessOutcome simulate_process(const std::vector<double>& pos,
                                std::vector<Interval>& pending) {
  ProcessOutcome out;
  // Splits [first, last) at the first position >= x.
  const auto split = [&pos](std::size_t first, std::size_t last, double x) {
    return static_cast<std::size_t>(
        std::lower_bound(pos.begin() + static_cast<std::ptrdiff_t>(first),
                         pos.begin() + static_cast<std::ptrdiff_t>(last), x) -
        pos.begin());
  };

  pending.clear();
  Interval cur{0.0, 1.0, 0, pos.size()};
  std::size_t probes = 0;
  while (true) {
    ++probes;
    const std::size_t n = cur.last - cur.first;
    if (n == 1) {
      out.transmitted = true;
      out.resolved = cur.hi;
      out.probe_slots = static_cast<double>(probes - 1);
      return out;
    }
    if (n == 0) {
      if (pending.empty()) {  // empty initial window: process over
        out.resolved = cur.hi;
        out.probe_slots = static_cast<double>(probes);
        return out;
      }
      // Sibling known to hold >= 2 arrivals: split it immediately.
      const Interval sib = pending.back();
      pending.pop_back();
      const double mid = (sib.lo + sib.hi) / 2.0;
      const std::size_t m = split(sib.first, sib.last, mid);
      pending.push_back({mid, sib.hi, m, sib.last});
      cur = {sib.lo, mid, sib.first, m};
    } else {
      const double mid = (cur.lo + cur.hi) / 2.0;
      const std::size_t m = split(cur.first, cur.last, mid);
      pending.push_back({mid, cur.hi, m, cur.last});
      cur.hi = mid;
      cur.last = m;
    }
  }
}

/// sim::poisson(rng, nu) with exp(-nu) hoisted out of the sample loop:
/// the same Knuth product below 30 and the same halving above it, so the
/// draws are bit-identical.
std::uint64_t poisson_draw(sim::Rng& rng, double nu, double limit) {
  if (nu >= 30.0) return sim::poisson(rng, nu);
  double prod = sim::uniform01(rng);
  std::uint64_t n = 0;
  while (prod > limit) {
    prod *= sim::uniform01(rng);
    ++n;
  }
  return n;
}

/// One (state i, width w) pair of the largest model's sampling stream.
/// The models of deadlines ks[first_live..] (every K >= i) offer it.
struct Pair {
  std::size_t i = 0;
  std::size_t w = 0;
  std::size_t first_live = 0;
};

/// Monte Carlo kernel estimate of `pair` for every live deadline, from
/// mc_samples process draws starting at `rng` (advanced past the pair).
/// All live models see the same outcomes; only the overflow past K and
/// the clipping at K differ. Each K accumulates in sample order, as the
/// one-model loop did, so every sum is bit-identical.
std::vector<ActionData> estimate_pair(const WindowSmdpConfig& config,
                                      const std::vector<std::size_t>& ks,
                                      const Pair& pair, sim::Rng& rng) {
  const double nu = config.lambda * static_cast<double>(pair.w);
  const double limit = std::exp(-nu);
  const std::size_t live = ks.size() - pair.first_live;
  std::vector<double> total_cost(live, 0.0);
  std::vector<std::vector<double>> bins(live);
  for (std::size_t d = 0; d < live; ++d) {
    bins[d].assign(ks[pair.first_live + d] + 1, 0.0);
  }
  double total_holding = 0.0;
  std::vector<double> positions;
  std::vector<Interval> pending;
  for (std::size_t s = 0; s < config.mc_samples; ++s) {
    const auto n = poisson_draw(rng, nu, limit);
    ProcessOutcome oc;
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
      oc = simulate_process(positions, pending);
    }
    const double sigma =
        oc.probe_slots +
        (oc.transmitted ? static_cast<double>(config.tx_slots) : 0.0);
    const double next_backlog = static_cast<double>(pair.i) -
                                oc.resolved * static_cast<double>(pair.w) +
                                sigma;
    total_holding += sigma;
    for (std::size_t d = 0; d < live; ++d) {
      const std::size_t k = ks[pair.first_live + d];
      const double overflow =
          std::max(0.0, next_backlog - static_cast<double>(k));
      total_cost[d] += config.lambda * overflow;

      // Probabilistic rounding onto the lattice preserves the mean.
      const double clipped =
          std::clamp(next_backlog, 0.0, static_cast<double>(k));
      const double fl = std::floor(clipped);
      const double frac = clipped - fl;
      const auto j0 = static_cast<std::size_t>(fl);
      bins[d][j0] += 1.0 - frac;
      if (frac > 0.0) bins[d][std::min(j0 + 1, k)] += frac;
    }
  }

  const auto samples = static_cast<double>(config.mc_samples);
  std::vector<ActionData> out(live);
  for (std::size_t d = 0; d < live; ++d) {
    ActionData& act = out[d];
    act.label = "w=" + std::to_string(pair.w);
    act.holding = std::max(total_holding / samples, 1e-9);
    act.cost = total_cost[d] / samples;
    // A bin is touched iff it is positive: frac < 1 exactly, so every
    // addition (1 - frac, or frac > 0) is positive.
    for (std::size_t j = 0; j < bins[d].size(); ++j) {
      if (bins[d][j] > 0.0) {
        act.transitions.push_back({j, bins[d][j] / samples});
      }
    }
  }
  return out;
}

/// Advance `rng` past the samples of a width-`w` pair exactly as
/// estimate_pair does, without sorting or splitting: the Poisson count,
/// then n skipped uniforms when the process needs positions (n >= 2).
void skip_pair(const WindowSmdpConfig& config, std::size_t w, sim::Rng& rng) {
  const double nu = config.lambda * static_cast<double>(w);
  const double limit = std::exp(-nu);
  for (std::size_t s = 0; s < config.mc_samples; ++s) {
    const auto n = poisson_draw(rng, nu, limit);
    if (n < 2) continue;
    for (std::uint64_t j = 0; j < n; ++j) static_cast<void>(rng());
  }
}

/// Model of deadline `k` holding only its "wait one slot" actions: no
/// window is probed; one slot of fresh time accrues.
Smdp wait_actions_model(const WindowSmdpConfig& config, std::size_t k) {
  Smdp model(k + 1);
  for (std::size_t i = 0; i <= k; ++i) {
    ActionData wait;
    wait.label = "wait";
    wait.holding = 1.0;
    const std::size_t next = std::min(i + 1, k);
    wait.transitions.push_back({next, 1.0});
    // Waiting at the boundary lets one slot of arrivals age out.
    wait.cost = (i + 1 > k) ? config.lambda : 0.0;
    model.add_action(i, std::move(wait));
  }
  return model;
}

struct SmdpCounters {
  obs::Counter state_actions;
  obs::Counter mc_samples;
  obs::Counter pi_rounds;
  obs::Counter linear_solves;
};

SmdpCounters& smdp_counters() {
  static SmdpCounters counters{
      obs::Registry::global().counter("smdp.state_actions"),
      obs::Registry::global().counter("smdp.mc_samples"),
      obs::Registry::global().counter("smdp.pi_rounds"),
      obs::Registry::global().counter("smdp.linear_solves"),
  };
  return counters;
}

/// Solve one model, freeing it on return.
WindowPolicyResult solve_model(Smdp model, double lambda) {
  WindowPolicyResult out;
  out.state_actions = model.num_state_actions();
  out.stats = policy_iteration(model);
  out.loss_fraction = out.stats.eval.gain / lambda;
  // Action 0 is "wait"; widths start at action index 1.
  out.width_per_state = out.stats.policy.choice;
  smdp_counters().pi_rounds.add(
      static_cast<std::uint64_t>(out.stats.iterations));
  smdp_counters().linear_solves.add(out.stats.linear_solves);
  return out;
}

}  // namespace

std::vector<Smdp> build_window_smdps(const WindowSmdpConfig& base,
                                     const std::vector<std::size_t>& deadlines,
                                     exec::ThreadPool* pool) {
  TCW_EXPECTS(base.lambda > 0.0);
  TCW_EXPECTS(base.tx_slots >= 1);
  TCW_EXPECTS(base.mc_samples >= 100);
  for (const std::size_t k : deadlines) TCW_EXPECTS(k >= 1);
  if (deadlines.empty()) return {};

  std::vector<std::size_t> ks = deadlines;
  std::sort(ks.begin(), ks.end());
  ks.erase(std::unique(ks.begin(), ks.end()), ks.end());

  // Every model seeds Rng(seed) and walks (i, w) i-major with
  // w <= min(i, cap): an order that does not depend on K, so pair (i, w)
  // draws the same numbers in every model with K >= i. One walk of the
  // largest model's stream therefore serves them all.
  std::vector<Pair> pairs;
  for (std::size_t i = 1; i <= ks.back(); ++i) {
    const std::size_t first_live = static_cast<std::size_t>(
        std::lower_bound(ks.begin(), ks.end(), i) - ks.begin());
    const std::size_t w_cap =
        base.max_window == 0 ? i : std::min(i, base.max_window);
    for (std::size_t w = 1; w <= w_cap; ++w) {
      pairs.push_back({i, w, first_live});
    }
  }

  std::vector<std::vector<ActionData>> estimates(pairs.size());
  sim::Rng rng(base.seed);
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      estimates[p] = estimate_pair(base, ks, pairs[p], rng);
    }
  } else {
    // The calling thread only walks the stream; each pair replays its
    // own samples on the pool from a copy of the state at its start. The
    // jobs reference this frame, so they finish before it unwinds.
    try {
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        pool->submit([&base, &ks, &pairs, &estimates, p,
                      stream = rng]() mutable {
          estimates[p] = estimate_pair(base, ks, pairs[p], stream);
        });
        skip_pair(base, pairs[p].w, rng);
      }
    } catch (...) {
      pool->wait();
      throw;
    }
    pool->wait();
  }

  std::vector<Smdp> models;
  models.reserve(ks.size());
  for (const std::size_t k : ks) models.push_back(wait_actions_model(base, k));
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (std::size_t d = pairs[p].first_live; d < ks.size(); ++d) {
      models[d].add_action(pairs[p].i,
                           std::move(estimates[p][d - pairs[p].first_live]));
    }
  }
  for (const Smdp& model : models) TCW_ENSURES(model.validate(1e-6));
  smdp_counters().mc_samples.add(pairs.size() * base.mc_samples);

  // Hand the models out in request order; a duplicate K gets a copy.
  std::vector<std::size_t> uses(ks.size(), 0);
  const auto index_of = [&ks](std::size_t k) {
    return static_cast<std::size_t>(
        std::lower_bound(ks.begin(), ks.end(), k) - ks.begin());
  };
  for (const std::size_t k : deadlines) ++uses[index_of(k)];
  std::vector<Smdp> out;
  out.reserve(deadlines.size());
  for (const std::size_t k : deadlines) {
    const std::size_t d = index_of(k);
    if (--uses[d] == 0) {
      out.push_back(std::move(models[d]));
    } else {
      out.push_back(models[d]);
    }
    smdp_counters().state_actions.add(out.back().num_state_actions());
  }
  return out;
}

Smdp build_window_smdp(const WindowSmdpConfig& config) {
  return std::move(build_window_smdps(config, {config.deadline}).front());
}

std::vector<WindowPolicyResult> solve_window_models(
    const WindowSmdpConfig& base, const std::vector<std::size_t>& deadlines,
    exec::ThreadPool* pool) {
  std::vector<Smdp> models = build_window_smdps(base, deadlines, pool);
  std::vector<WindowPolicyResult> out;
  out.reserve(models.size());
  for (Smdp& model : models) {
    out.push_back(solve_model(std::move(model), base.lambda));
  }
  return out;
}

WindowPolicyResult solve_window_model(const WindowSmdpConfig& config) {
  return std::move(solve_window_models(config, {config.deadline}).front());
}

}  // namespace tcw::smdp
