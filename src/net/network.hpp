// Finite-station simulation of the slotted channel, with one MAC policy
// engine replica per station (the paper's window controller by default;
// see net/protocol_engine.hpp) driven ONLY by the shared channel feedback
// -- the distributed system the paper describes, rather than its
// infinite-population abstraction. Used to validate that
//   * every station derives the identical protocol state from feedback
//     alone (the consistency checks), and
//   * finite-population results approach the aggregate model as the
//     station count grows.
//
// Finite-population wrinkle (see DESIGN.md): a success resolves the probed
// window at every station, but the transmitting station may still hold
// further messages whose arrivals lie in that window. Those are re-stamped
// to the current instant for window eligibility (their true arrival time,
// used for deadlines and delay metrics, is unchanged).
//
// Each channel of the ChannelPlan is a lane: C coupled copies of the same
// chain, sharing only the arrival streams and the metric accumulators.
// A single-channel run is one lane on the raw seeds, with no selector.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "chan/arrivals.hpp"
#include "chan/message.hpp"
#include "net/channel_plan.hpp"
#include "net/metrics.hpp"
#include "net/protocol_engine.hpp"
#include "net/quiescent_replay.hpp"
#include "obs/capture.hpp"
#include "obs/channel_counters.hpp"
#include "sim/rng.hpp"
#include "util/interval_set.hpp"

namespace tcw::net {

struct NetworkConfig {
  core::ControlPolicy policy;
  /// Which MAC discipline runs the slot-by-slot access decisions and how
  /// many channels it is sharded across. The default is the paper's
  /// window engine on one channel; see net/protocol_engine.hpp and
  /// net/channel_plan.hpp for the catalogs. Every channel is a lane with
  /// its own engine replicas, clock and queues; messages are routed to a
  /// lane at arrival time and lanes step in argmin-clock order. Runs with
  /// more than one channel exclude the desync test hook.
  PolicyConfig mac;
  double message_length = 25.0;
  double success_overhead = 1.0;
  double t_end = 50000.0;
  double warmup = 2000.0;
  std::uint64_t seed = 1;
  /// Cross-check full controller state across stations every N probe steps
  /// (0 disables; checks are O(replicas * state)).
  std::size_t consistency_check_every = 0;
  /// Engine replicas stepped besides the canonical one. Engines are
  /// deterministic functions of the shared feedback sequence, so the
  /// simulation only needs ONE; the shadows exist so check_consistency can
  /// keep verifying the distributed property on real replicas. The default
  /// keeps the seed-era behavior (one replica per station); benches opt
  /// into a small count (kernel_bench uses 2). Clamped to stations - 1,
  /// and the total replica count never resolves below 1 (a single-station
  /// network runs exactly one replica -- the canonical -- regardless of
  /// this setting, including the SIZE_MAX sentinel). The simulated
  /// results are identical for every value, including 0.
  std::size_t shadow_replicas = SIZE_MAX;
  /// Drive the per-slot bookkeeping through the retained seed-era path
  /// (every station steps its own controller, eligibility scans every
  /// queue, restamp re-sorts, purge erases one-by-one). Bit-identical to
  /// the fast path (kernel_bench --verify proves it); kept only as that
  /// cross-check and as the pre-PR throughput baseline.
  bool reference_kernel = false;
  /// Large-N stepper: when a lane's active-station index is empty and
  /// every engine replica certifies a quiescent stretch (see
  /// ProtocolEngine::quiescent_until), replay the stretch's per-slot
  /// metric contributions (net/quiescent_replay.hpp) instead of stepping
  /// the empty slots' stations and engines. Lanes keep their argmin
  /// order, so any channel count is exact. Requires the batched arrival
  /// stream (homogeneous_poisson_batched) -- the per-station lazy draws
  /// interleave on the shared rng_ in schedule-dependent order -- and no
  /// reference kernel / desync injection. Metrics are bit-identical to the
  /// per-slot fast path on the same batched stream (kernel_bench --verify
  /// and tests/test_event_skip prove it).
  bool event_skip = false;
  /// Optional flight-recorder segment / slot-series hooks (strict
  /// overlays: never touch RNG state or results; the event-skip stepper
  /// synthesizes bit-identical series samples for skipped stretches).
  /// Not owned; must outlive the network.
  obs::KernelCapture capture;
};

/// Seed of the batched aggregate arrival stream, derived from the
/// simulation seed on coordinates no other consumer uses (engine streams,
/// transmission coins, and sweep-shard jobs all live elsewhere in the
/// (hi, lo) plane; tests/test_seed_streams.cpp pins this down). Existing
/// per-station streams read the raw seed and are untouched.
std::uint64_t batched_arrival_seed(std::uint64_t sim_seed);

class Network {
 public:
  explicit Network(const NetworkConfig& config);

  /// Add a station fed by `arrivals`. Call before run().
  void add_station(std::unique_ptr<chan::ArrivalProcess> arrivals);

  /// Convenience: n stations with iid Poisson streams splitting
  /// `total_rate` messages/slot evenly.
  static Network homogeneous_poisson(const NetworkConfig& config,
                                     std::size_t n_stations,
                                     double total_rate);

  /// Same station population, but arrivals come from ONE batched
  /// Poisson(total_rate) stream with uniform station marks (the exact
  /// superposition of n iid Poisson(total_rate/n) processes), drawn in
  /// arrival-time order and refilled in blocks. The realization is
  /// independent of the stepping schedule, which is what makes the
  /// event-skipping stepper bit-comparable to the per-slot path; it is a
  /// *different* realization from homogeneous_poisson at the same seed
  /// (the batched stream runs on batched_arrival_seed). Required by
  /// NetworkConfig::event_skip; also the only O(1)-per-slot arrival path
  /// at N >= 10^5.
  static Network homogeneous_poisson_batched(const NetworkConfig& config,
                                             std::size_t n_stations,
                                             double total_rate);

  const SimMetrics& run();

  std::size_t station_count() const { return stations_.size(); }
  std::uint64_t consistency_checks_run() const { return checks_run_; }
  bool stations_consistent() const { return consistent_; }
  const SimMetrics& metrics() const { return metrics_; }
  /// Probe slots issued so far, summed over channels (throughput benches
  /// divide by wall time).
  std::uint64_t probe_steps() const;
  /// Per-channel slot-outcome tallies, valid after run(). Single-channel
  /// runs report their one channel at index 0.
  std::vector<obs::ChannelTally> channel_tallies() const;
  /// Slots covered by event-skip certificates rather than stepped one by
  /// one, summed over channels (0 unless NetworkConfig::event_skip;
  /// benches report the ratio).
  std::uint64_t skipped_slots() const { return skipped_slots_; }
  /// Engine replicas actually stepped per channel (canonical + shadows);
  /// only meaningful once run() has started. Before run() it reports what
  /// the configuration will resolve to for the current station count.
  /// Always at least 1: the canonical replica exists in every
  /// configuration.
  std::size_t controller_replicas() const;

  /// Test hook: apply one out-of-band probe/feedback round to replica
  /// `replica` (0 = canonical) of the single channel, desynchronizing it
  /// from the others. The consistency checks must then report the
  /// divergence. Call after add_station and before run(). run() rejects
  /// the injection (contract violation) when fewer than two replicas
  /// resolve: with only the canonical replica a divergence has no peer to
  /// be observed against, and desyncing the canonical would silently
  /// corrupt the simulation instead of flagging inconsistency.
  void desync_replica_for_test(std::size_t replica);

 private:
  struct Station {
    chan::StationId id = 0;
    std::unique_ptr<chan::ArrivalProcess> arrivals;
    double next_arrival = 0.0;
  };

  struct BatchedArrival {
    double time = 0.0;
    std::uint32_t station = 0;
  };

  /// One station's messages on one lane.
  struct StationQueue {
    // Sorted by window_stamp. A vector, not a deque: an empty vector owns
    // no storage, and most of a large population's queues stay empty.
    std::vector<chan::Message> msgs;
    std::ptrdiff_t active_pos = -1;  // slot in Lane::active, -1 when empty
  };

  /// One channel: its engine replicas, slot clock, coin stream,
  /// per-station message queues, active-station index, and outcome tally.
  /// A single-channel run is one lane on the raw seeds.
  struct Lane {
    // engines[0] is the canonical replica driving the channel; the rest
    // are the shadows check_consistency audits (all stations under
    // reference_kernel or the default shadow_replicas).
    std::vector<std::unique_ptr<ProtocolEngine>> engines;
    // Transmission coins for Probability plans, engine-id-keyed and
    // separate from the arrival stream. Local (kernel-side) randomness:
    // replicas never see it, so engines stay pure functions of the
    // feedback. Never drawn under the window engine -- its plans carry no
    // probability.
    sim::Rng coin_rng{0};
    double now = 0.0;
    double last_tx_end = 0.0;
    bool consistent = true;
    std::uint64_t pending = 0;  // messages queued across all stations
    // The certified quiescent stretch being replayed (event_skip only).
    QuiescentRun quiet;
    std::vector<StationQueue> queues;   // indexed by station id
    std::vector<std::uint32_t> active;  // ids of stations with pending work
    // Observability tallies, plain locals on the hot path, flushed into
    // the global obs registry once, in finalize(). They never feed back
    // into the simulation (no RNG draws, no control flow).
    obs::ChannelTally tally;
    // Deadline-loss attribution (always on -- the classification is pure
    // observation and feeds the cached sweep payloads). Window engines:
    // window-stamp spans of every collided probe; a purged message whose
    // stamp lies in a collided span reached the channel and lost
    // (collision_killed), otherwise the window never admitted it in time
    // (admission_starved). Probability engines: message ids that ever
    // transmitted into a collision (collision_killed at purge); the rest
    // aged out in queue (queue_expired -- ALOHA has no admission control).
    // Pruned against the discard cutoff / erased on success, so both stay
    // bounded by the live backlog.
    tcw::IntervalSet collided_spans;
    std::unordered_set<std::uint64_t> collided_ids;
    // Scratch: (message id, arrival) of the current Probability slot's
    // transmitters, reused across slots.
    std::vector<std::pair<std::uint64_t, double>> tx_scratch;
  };

  void generate_arrivals_until(double t);
  /// The selector's lane for an arrival (only with more than one lane).
  std::uint32_t route_arrival(double arrival);
  /// Queue `msg` on its lane (lane 0 with one channel).
  void enqueue(const chan::Message& msg);
  void refill_batched_block();
  /// Time of the next undelivered batched arrival (refills as needed).
  double next_batched_arrival();
  /// Event-skip fast path: with no active station, certify a quiescent
  /// stretch that every replica agrees on. Returns false when none is
  /// certified (the caller steps the slot normally).
  bool start_quiescent(Lane& lane);
  /// Replay the lane's stretch while it keeps the argmin turn, and
  /// fast-forward every replica once the stretch is used up.
  void replay_quiescent_slots(Lane& lane, std::size_t li);
  void step_lane(Lane& lane, std::uint32_t ch);
  void purge_expired(Lane& lane, std::uint32_t ch);
  void check_consistency(Lane& lane);
  void finalize();
  void activate(Lane& lane, std::uint32_t station);
  void deactivate(Lane& lane, std::uint32_t station);
  /// Move the transmitter's messages stranded in the resolved window
  /// [lo, hi) behind everything else, re-stamped to fresh instants.
  void restamp_stranded(Lane& lane, std::uint32_t station, double lo,
                        double hi);

  NetworkConfig config_;
  std::vector<Station> stations_;
  // One lane per channel. Lanes step in argmin-clock order (ties to the
  // lowest index), so every arrival at or below a lane's clock is routed
  // before that lane probes.
  std::vector<Lane> lanes_;
  // Routing state; engaged only with more than one channel (C = 1 never
  // consults a selector, preserving stream bit-identity).
  std::optional<ChannelSelector> selector_;
  // Scratch per-lane views for ChannelSelector::route.
  std::vector<double> lane_now_scratch_;
  std::vector<double> lane_busy_scratch_;
  std::vector<std::uint64_t> lane_load_scratch_;
  sim::Rng rng_;
  // Batched aggregate arrival stream (homogeneous_poisson_batched); rate 0
  // means per-station mode. Runs on its own derived stream so the existing
  // per-station draws on rng_ stay bit-identical.
  double batched_rate_ = 0.0;
  sim::Rng batched_rng_{0};
  double batched_clock_ = 0.0;  // time of the last generated arrival
  std::vector<BatchedArrival> batched_block_;
  std::size_t batched_pos_ = 0;
  chan::MessageId next_msg_id_ = 1;
  std::uint64_t restamps_ = 0;
  std::uint64_t skipped_slots_ = 0;
  std::uint64_t checks_run_ = 0;
  std::size_t desync_replica_ = SIZE_MAX;  // pending test-hook injection
  bool consistent_ = true;
  bool finished_ = false;
  SimMetrics metrics_;
};

}  // namespace tcw::net
