// The semi-Markov decision model of the controlled window protocol
// (paper Section 3): pseudo-time state space S = {0, 1, ..., K} (slots of
// past time that may still hold untransmitted arrivals; element (4) caps
// the backlog at K), with one decision per state -- the initial window
// width, element (2), the one policy element Theorem 1 leaves open.
// Elements (1) and (3) are fixed at their optimal values inside the
// transition kernel (window at the oldest end, older half first).
//
// The kernel of each (state, width) pair is estimated by Monte Carlo over
// the windowing process (Poisson arrivals, exact splitting dynamics), with
// probabilistic rounding onto the slot lattice. Models of several
// deadlines share one pass over the largest deadline's sample stream,
// each bit-identical to its own one-model build. Costs are the expected
// one-step pseudo losses: lambda times the expected backlog overflow past
// K during the process. Solving the model yields both the optimal width
// table w*(i) and the minimal loss rate -- and demonstrates, timed, the
// computational expense the paper cites for using the decision model as a
// performance tool.
#pragma once

#include <cstdint>
#include <vector>

#include "smdp/policy_iteration.hpp"
#include "smdp/smdp.hpp"

namespace tcw::exec {
class ThreadPool;
}

namespace tcw::smdp {

struct WindowSmdpConfig {
  std::size_t deadline = 32;     // K, slots (state space size K+1)
  double lambda = 0.08;          // arrivals per slot
  std::size_t tx_slots = 5;      // transmission + detection slots (M + 1)
  std::size_t max_window = 0;    // cap on widths offered per state; 0 = i
  std::size_t mc_samples = 20000;  // kernel samples per (state, width)
  std::uint64_t seed = 7;
};

/// Build the SMDP. State i offers widths w = 1..min(i, cap) plus, in state
/// 0 (and as a fallback everywhere), the "wait one slot" action.
Smdp build_window_smdp(const WindowSmdpConfig& config);

/// Build one model per entry of `deadlines` (any order, duplicates
/// allowed; `base.deadline` is ignored), each bit-identical to
/// build_window_smdp at that deadline, from one pass over the largest
/// deadline's sample stream. With a pool of two or more workers the
/// calling thread walks the stream and the pool estimates each (state,
/// width) pair; the pool must not be running this call's caller, and
/// the call waits for every job in it. Adds the registry counters
/// `smdp.mc_samples` (samples drawn) and `smdp.state_actions`.
std::vector<Smdp> build_window_smdps(const WindowSmdpConfig& base,
                                     const std::vector<std::size_t>& deadlines,
                                     exec::ThreadPool* pool = nullptr);

struct WindowPolicyResult {
  std::vector<std::size_t> width_per_state;  // chosen w per state (0 = wait)
  double loss_fraction = 0.0;  // gain / lambda: fraction of messages lost
  IterationStats stats;        // policy-iteration cost diagnostics
  std::size_t state_actions = 0;
};

/// Build and solve the model with Howard policy iteration.
WindowPolicyResult solve_window_model(const WindowSmdpConfig& config);

/// build_window_smdps, then solve each model in request order, freeing it
/// once solved. Adds the registry counters `smdp.pi_rounds` and
/// `smdp.linear_solves`.
std::vector<WindowPolicyResult> solve_window_models(
    const WindowSmdpConfig& base, const std::vector<std::size_t>& deadlines,
    exec::ThreadPool* pool = nullptr);

}  // namespace tcw::smdp
