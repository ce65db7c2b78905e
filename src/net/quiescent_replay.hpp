// Replay of certified quiescent stretches, shared by the per-slot kernels
// (net::AggregateSimulator always, net::Network under event_skip).
//
// A lane whose engine certifies a stretch (ProtocolEngine::quiescent_until)
// knows that each of its next `slots` slots probes an empty channel, reads
// Idle, ends a one-probe process and samples the constant `backlog`. The
// kernels keep visiting lanes in argmin-clock order (ties to the lowest
// index). While the lane holding a stretch has the turn, it applies only
// each slot's contributions -- the outcome tally, the idle-slot usage and,
// after warmup, one pseudo_backlog and one process_slots Welford add --
// and advances its clock by exactly 1.0. Every accumulator therefore sees
// the same additions in the same order as per-slot stepping, for any
// channel count, with no engine, queue or RNG work. The kernel
// fast-forwards the engine once (skip_quiescent) when the stretch is used
// up.
//
// No lane generates an arrival while another holds a stretch: a lane
// steps only when its clock is the minimum, so at most the stretch lane's
// clock, which stays below the horizon the certificate was bounded by (the
// next arrival). A certificate therefore stays valid while the other
// lanes step, and routing sees the same lane clocks as per-slot stepping.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "net/metrics.hpp"
#include "net/protocol_engine.hpp"
#include "obs/channel_counters.hpp"
#include "obs/slot_series.hpp"

namespace tcw::net {

/// A lane's certified stretch in progress.
struct QuiescentRun {
  std::uint64_t slots = 0;  ///< certified slots in total
  std::uint64_t left = 0;   ///< slots not yet replayed
  double backlog = 0.0;     ///< the certificate's constant backlog sample

  bool active() const { return left > 0; }
  void start(const QuiescentStretch& stretch) {
    slots = left = stretch.slots;
    backlog = stretch.backlog;
  }
};

/// The most slots a certificate may cover from lane clock `now`: every
/// slot t with now <= t < horizon, the horizon being the earlier of the
/// next arrival and the run end. Zero for a fractional clock: certificates
/// need exact +1.0 slot arithmetic.
inline std::uint64_t quiescent_budget(double now, double horizon) {
  if (now != std::floor(now) || horizon <= now) return 0;
  return static_cast<std::uint64_t>(std::ceil(std::min(horizon - now, 1e15)));
}

/// The clocks over which lane `li` keeps the argmin turn: its clock t stays
/// the minimum while t is below every lower-index lane's clock and at most
/// every higher-index lane's clock.
struct ArgminTurn {
  double below = std::numeric_limits<double>::infinity();
  double at_most = std::numeric_limits<double>::infinity();

  bool holds(double t) const { return t < below && t <= at_most; }
};

template <typename Lanes>
ArgminTurn argmin_turn(const Lanes& lanes, std::size_t li) {
  ArgminTurn turn;
  for (std::size_t c = 0; c < lanes.size(); ++c) {
    if (c < li) turn.below = std::min(turn.below, lanes[c].now);
    if (c > li) turn.at_most = std::min(turn.at_most, lanes[c].now);
  }
  return turn;
}

/// Replay slots of `run` from lane clock `now` while the lane keeps its
/// turn, at least one (the caller hands over the turn's first slot).
/// `series_backlog` is what the kernel's per-slot path feeds the slot
/// series for an idle slot; `on_slot` runs after each slot's contributions
/// (Network audits its replicas on their cadence there). Advances `now`
/// past the replayed slots and returns how many there were.
template <typename OnSlot>
std::uint64_t replay_quiescent(QuiescentRun& run, double& now,
                               const ArgminTurn& turn, double warmup,
                               SimMetrics& metrics, obs::ChannelTally& tally,
                               obs::SlotSeries* series, double series_backlog,
                               OnSlot&& on_slot) {
  const double t0 = now;
  double t = now;
  std::uint64_t n = 0;
  for (; n < run.left && turn.holds(t); ++n, t += 1.0) {
    ++tally.probe_slots;
    ++tally.idle_slots;
    metrics.usage.add_idle_slot();
    if (t >= warmup) {
      metrics.pseudo_backlog.add(run.backlog);
      metrics.process_slots.add(1.0);
    }
    on_slot();
  }
  // No other series call can fall between these slots, so the closed-form
  // run equals n consecutive add_idle calls.
  if (series != nullptr) series->add_idle_run(t0, n, series_backlog);
  run.left -= n;
  now = t;
  return n;
}

}  // namespace tcw::net
