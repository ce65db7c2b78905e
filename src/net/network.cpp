#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/registry.hpp"
#include "sim/sampling.hpp"
#include "util/contract.hpp"

namespace tcw::net {

namespace {

// (hi, lo) coordinates of the batched arrival stream in the
// derive_stream_seed plane. Far outside every other consumer's range:
// engine streams use (engine_id, 0), transmission coins (engine_id,
// 0xC0114), sweep shards (K-index, replication) -- all small values.
constexpr std::uint64_t kBatchedArrivalHi = 0xBA7C4EDULL;
constexpr std::uint64_t kBatchedArrivalLo = 0xA221ULL;

// Arrivals generated per refill of the batched block: large enough to
// amortize the refill, small enough to stay cache-resident.
constexpr std::size_t kBatchedBlock = 4096;

struct NetworkCounters {
  obs::Counter runs;
  obs::Counter probe_slots;
  obs::Counter idle_slots;
  obs::Counter collisions;
  obs::Counter successes;
  obs::Counter sender_discards;
  obs::Counter restamps;
  obs::Counter consistency_checks;
};

NetworkCounters& network_counters() {
  static NetworkCounters counters{
      obs::Registry::global().counter("net.network.runs"),
      obs::Registry::global().counter("net.network.probe_slots"),
      obs::Registry::global().counter("net.network.idle_slots"),
      obs::Registry::global().counter("net.network.collisions"),
      obs::Registry::global().counter("net.network.successes"),
      obs::Registry::global().counter("net.network.sender_discards"),
      obs::Registry::global().counter("net.network.restamps"),
      obs::Registry::global().counter("net.network.consistency_checks"),
  };
  return counters;
}

// Index of the message with the oldest stamp inside [lo, hi); -1 if none.
std::ptrdiff_t eligible_index(const std::vector<chan::Message>& q, double lo,
                              double hi) {
  for (std::size_t i = 0; i < q.size(); ++i) {
    const double stamp = q[i].window_stamp;
    if (stamp >= hi) break;  // queue is sorted by stamp
    if (stamp >= lo) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

}  // namespace

std::uint64_t batched_arrival_seed(std::uint64_t sim_seed) {
  return sim::derive_stream_seed(sim_seed, kBatchedArrivalHi,
                                 kBatchedArrivalLo);
}

Network::Network(const NetworkConfig& config)
    : config_(config), rng_(config.seed) {
  TCW_EXPECTS(config_.t_end > config_.warmup);
  TCW_EXPECTS(config_.message_length >= 1.0);
  const ChannelPlan& plan = config_.mac.channel;
  TCW_EXPECTS(plan.channels >= 1);
  TCW_EXPECTS(plan.skew >= 0.0 && plan.skew < 1.0);
  // Lane 0 runs on the raw coin seed (channel_stream_seed is the identity
  // there), so single-channel runs keep their streams; lanes c > 0 get
  // derived, non-aliasing streams. Engines are built in run(), once the
  // station count fixes the replica count.
  const std::uint64_t coin_base =
      engine_coin_seed(config_.mac.engine.kind, config_.seed);
  lanes_.resize(plan.channels);
  for (std::uint32_t c = 0; c < plan.channels; ++c) {
    lanes_[c].coin_rng = sim::Rng(channel_stream_seed(coin_base, c));
  }
  if (plan.channels > 1) {
    selector_.emplace(plan, config_.seed);
    lane_now_scratch_.resize(plan.channels);
    lane_busy_scratch_.resize(plan.channels);
    lane_load_scratch_.resize(plan.channels);
  }
}

void Network::add_station(std::unique_ptr<chan::ArrivalProcess> arrivals) {
  TCW_EXPECTS(arrivals != nullptr);
  TCW_EXPECTS(!finished_);
  Station st;
  st.id = static_cast<chan::StationId>(stations_.size());
  st.arrivals = std::move(arrivals);
  st.next_arrival = st.arrivals->next(rng_);
  stations_.push_back(std::move(st));
  for (Lane& lane : lanes_) lane.queues.emplace_back();
}

Network Network::homogeneous_poisson(const NetworkConfig& config,
                                     std::size_t n_stations,
                                     double total_rate) {
  TCW_EXPECTS(n_stations > 0);
  TCW_EXPECTS(total_rate > 0.0);
  Network net(config);
  for (std::size_t i = 0; i < n_stations; ++i) {
    net.add_station(std::make_unique<chan::PoissonProcess>(
        total_rate / static_cast<double>(n_stations)));
  }
  return net;
}

Network Network::homogeneous_poisson_batched(const NetworkConfig& config,
                                             std::size_t n_stations,
                                             double total_rate) {
  TCW_EXPECTS(n_stations > 0);
  TCW_EXPECTS(n_stations <= std::numeric_limits<std::uint32_t>::max());
  TCW_EXPECTS(total_rate > 0.0);
  Network net(config);
  net.batched_rate_ = total_rate;
  net.batched_rng_ = sim::Rng(batched_arrival_seed(config.seed));
  // Stations carry no per-station process: the batched stream owns both
  // the inter-arrival clock and the station marks. next_arrival stays at
  // +inf so the per-station generator can never fire.
  net.stations_.resize(n_stations);
  for (std::size_t i = 0; i < n_stations; ++i) {
    net.stations_[i].id = static_cast<chan::StationId>(i);
    net.stations_[i].next_arrival = std::numeric_limits<double>::infinity();
  }
  for (Lane& lane : net.lanes_) lane.queues.resize(n_stations);
  return net;
}

std::size_t Network::controller_replicas() const {
  if (!lanes_[0].engines.empty()) return lanes_[0].engines.size();
  // The canonical replica always exists: every clamp below bottoms out at
  // one replica, so 0- and 1-station configurations (where "stations - 1"
  // leaves no room for shadows) still resolve sanely.
  if (config_.reference_kernel) {
    return std::max<std::size_t>(1, stations_.size());
  }
  const std::size_t shadows =
      std::min(config_.shadow_replicas,
               stations_.empty() ? std::size_t{0} : stations_.size() - 1);
  return 1 + shadows;
}

std::uint64_t Network::probe_steps() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.tally.probe_slots;
  return total;
}

std::vector<obs::ChannelTally> Network::channel_tallies() const {
  std::vector<obs::ChannelTally> tallies;
  tallies.reserve(lanes_.size());
  for (const Lane& lane : lanes_) tallies.push_back(lane.tally);
  return tallies;
}

void Network::desync_replica_for_test(std::size_t replica) {
  TCW_EXPECTS(!finished_);
  TCW_EXPECTS(replica != SIZE_MAX);  // SIZE_MAX is the "none" sentinel
  desync_replica_ = replica;
}

void Network::activate(Lane& lane, std::uint32_t station) {
  StationQueue& sq = lane.queues[station];
  if (sq.active_pos >= 0) return;
  sq.active_pos = static_cast<std::ptrdiff_t>(lane.active.size());
  lane.active.push_back(station);
}

void Network::deactivate(Lane& lane, std::uint32_t station) {
  StationQueue& sq = lane.queues[station];
  if (sq.active_pos < 0) return;
  const auto pos = static_cast<std::size_t>(sq.active_pos);
  lane.active[pos] = lane.active.back();
  lane.queues[lane.active[pos]].active_pos = static_cast<std::ptrdiff_t>(pos);
  lane.active.pop_back();
  sq.active_pos = -1;
}

void Network::refill_batched_block() {
  batched_block_.clear();
  batched_pos_ = 0;
  const auto n = static_cast<std::uint64_t>(stations_.size());
  for (std::size_t i = 0; i < kBatchedBlock; ++i) {
    // One exponential gap + one station mark per arrival, always in
    // arrival-time order: the stream's draw sequence never depends on how
    // the kernel steps time.
    batched_clock_ += sim::exponential(batched_rng_, batched_rate_);
    batched_block_.push_back(
        {batched_clock_,
         static_cast<std::uint32_t>(sim::uniform_index(batched_rng_, n))});
  }
}

double Network::next_batched_arrival() {
  if (batched_pos_ == batched_block_.size()) refill_batched_block();
  return batched_block_[batched_pos_].time;
}

std::uint32_t Network::route_arrival(double arrival) {
  for (std::size_t c = 0; c < lanes_.size(); ++c) {
    const Lane& lane = lanes_[c];
    lane_now_scratch_[c] = lane.now;
    lane_busy_scratch_[c] = lane.last_tx_end;
    lane_load_scratch_[c] = lane.pending;
  }
  return selector_->route(arrival, lane_now_scratch_.data(),
                          lane_busy_scratch_.data(),
                          lane_load_scratch_.data(),
                          config_.message_length + config_.success_overhead);
}

void Network::enqueue(const chan::Message& msg) {
  const std::uint32_t ch = lanes_.size() == 1 ? 0 : route_arrival(msg.arrival);
  Lane& lane = lanes_[ch];
  const auto station = static_cast<std::uint32_t>(msg.station);
  lane.queues[station].msgs.push_back(msg);
  ++lane.pending;
  activate(lane, station);
  if (config_.capture.series != nullptr) {
    config_.capture.series->add_arrival(msg.arrival, config_.policy.deadline);
  }
  if (config_.capture.flight != nullptr &&
      config_.capture.flight->sampled(msg.arrival, ch)) {
    config_.capture.flight->record(msg.arrival,
                                   obs::FlightEventKind::kArrival,
                                   msg.arrival, config_.policy.deadline, ch);
    if (lanes_.size() > 1) {
      config_.capture.flight->record(msg.arrival, obs::FlightEventKind::kRoute,
                                     msg.arrival, config_.policy.deadline,
                                     ch);
    }
  }
  if (msg.arrival >= config_.warmup) ++metrics_.arrivals;
}

void Network::generate_arrivals_until(double t) {
  if (batched_rate_ > 0.0) {
    while (next_batched_arrival() <= t) {
      const BatchedArrival a = batched_block_[batched_pos_++];
      // Batched stations are numbered by index (id == index).
      enqueue(chan::Message::make(next_msg_id_++, a.station, a.time,
                                  config_.message_length));
    }
    return;
  }
  for (Station& st : stations_) {
    while (st.next_arrival <= t) {
      enqueue(chan::Message::make(next_msg_id_++, st.id, st.next_arrival,
                                  config_.message_length));
      st.next_arrival = st.arrivals->next(rng_);
    }
  }
}

void Network::purge_expired(Lane& lane, std::uint32_t ch) {
  if (!config_.policy.discard) return;
  const double cutoff = lane.now - config_.policy.deadline;
  const bool windowed_engine = config_.mac.engine.kind == EngineKind::Window;
  const auto expired = [&](const chan::Message& msg) {
    if (msg.arrival >= cutoff) return false;
    ++lane.tally.sender_discards;
    --lane.pending;
    // Attribution (see Lane::collided_spans): the eligibility key is the
    // CURRENT window stamp -- restamped messages are judged by the spans
    // their restamp was probed into, exactly what admission saw.
    if (windowed_engine) {
      if (lane.collided_spans.contains(msg.window_stamp)) {
        ++lane.tally.collision_killed;
      } else {
        ++lane.tally.admission_starved;
      }
    } else if (lane.collided_ids.erase(msg.id) > 0) {
      ++lane.tally.collision_killed;
    } else {
      ++lane.tally.queue_expired;
    }
    if (msg.arrival >= config_.warmup) ++metrics_.lost_sender;
    if (config_.capture.series != nullptr) {
      config_.capture.series->add_discard(lane.now);
    }
    if (config_.capture.flight != nullptr &&
        config_.capture.flight->sampled(msg.arrival, ch)) {
      config_.capture.flight->record(
          lane.now, obs::FlightEventKind::kExpiry, msg.arrival,
          config_.policy.deadline - (lane.now - msg.arrival), ch);
    }
    return true;
  };
  // Live stamps never drop below the cutoff (stamps only grow from the
  // arrival), so collided spans below it are dead weight -- prune them.
  lane.collided_spans.erase_below(cutoff);
  const auto station_count = static_cast<std::uint32_t>(lane.queues.size());
  if (config_.reference_kernel) {
    // Seed-era path: per-element erase, quadratic in the purged run.
    for (std::uint32_t s = 0; s < station_count; ++s) {
      auto& queue = lane.queues[s].msgs;
      for (auto it = queue.begin(); it != queue.end();) {
        if (expired(*it)) {
          it = queue.erase(it);
        } else {
          ++it;
        }
      }
      if (queue.empty()) deactivate(lane, s);
    }
    return;
  }
  if (config_.event_skip) {
    // O(active) sweep: only stations in the active index can hold
    // messages. Visit order differs from station order, but the purge
    // only bumps integer tallies (lost_sender, sender_discards), which
    // commute.
    for (std::size_t i = 0; i < lane.active.size();) {
      const std::uint32_t s = lane.active[i];
      auto& queue = lane.queues[s].msgs;
      queue.erase(std::remove_if(queue.begin(), queue.end(), expired),
                  queue.end());
      if (queue.empty()) {
        deactivate(lane, s);  // swaps another id into slot i; revisit it
      } else {
        ++i;
      }
    }
    return;
  }
  // One stable sweep per station in id order, the same order as
  // the reference path, so tallies and metrics are bit-identical.
  for (std::uint32_t s = 0; s < station_count; ++s) {
    auto& queue = lane.queues[s].msgs;
    if (queue.empty()) continue;
    queue.erase(std::remove_if(queue.begin(), queue.end(), expired),
                queue.end());
    if (queue.empty()) deactivate(lane, s);
  }
}

void Network::restamp_stranded(Lane& lane, std::uint32_t station, double lo,
                               double hi) {
  // Re-stamp any other messages of this station stranded inside the
  // window that is about to be resolved (see header). Restamps exceed
  // `now` and every other stamp is <= now, so in the (stamp-sorted) queue
  // the stranded run is contiguous and its final home is the back: an
  // O(moved) rotate replaces the seed-era full std::sort.
  auto& queue = lane.queues[station].msgs;
  double restamp = lane.now;
  std::size_t first = queue.size();
  std::size_t last = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    chan::Message& pending = queue[i];
    if (pending.window_stamp >= lo && pending.window_stamp < hi) {
      restamp += 1e-7;
      pending.window_stamp = restamp;
      first = std::min(first, i);
      last = i;
      ++count;
    }
  }
  if (count == 0) return;
  restamps_ += count;
  if (count == last - first + 1) {
    std::rotate(queue.begin() + static_cast<std::ptrdiff_t>(first),
                queue.begin() + static_cast<std::ptrdiff_t>(last + 1),
                queue.end());
  } else {
    // Unreachable while the sorted-by-stamp invariant holds; keep the
    // seed-era sort as the safety net.
    std::sort(queue.begin(), queue.end(),
              [](const chan::Message& a, const chan::Message& b) {
                return a.window_stamp < b.window_stamp;
              });
  }
}

void Network::check_consistency(Lane& lane) {
  ++checks_run_;
  for (std::size_t i = 1; i < lane.engines.size(); ++i) {
    if (!lane.engines[0]->state_equals(*lane.engines[i])) {
      lane.consistent = false;
      consistent_ = false;
      return;
    }
  }
}

bool Network::start_quiescent(Lane& lane) {
  // Nothing to route or transmit on this lane. An arrival at or below the
  // clock that is not yet generated leaves no budget (the horizon is then
  // <= now), so arrivals need not be generated first.
  if (!lane.active.empty() || !lane.consistent) return false;
  const std::uint64_t budget = quiescent_budget(
      lane.now, std::min(next_batched_arrival(), config_.t_end));
  if (budget == 0) return false;
  const QuiescentStretch stretch =
      lane.engines[0]->quiescent_until(lane.now, budget);
  if (stretch.slots == 0) return false;
  // Every replica must issue the identical certificate; otherwise step
  // per-slot, where the audit machinery judges divergence for real.
  for (std::size_t i = 1; i < lane.engines.size(); ++i) {
    if (!(lane.engines[i]->quiescent_until(lane.now, budget) == stretch)) {
      return false;
    }
  }
  lane.quiet.start(stretch);
  return true;
}

void Network::replay_quiescent_slots(Lane& lane, std::size_t li) {
  // The per-slot path feeds the series the engine's backlog estimate,
  // which the certificate pins to the stretch's constant.
  skipped_slots_ += replay_quiescent(
      lane.quiet, lane.now, argmin_turn(lanes_, li), config_.warmup,
      metrics_, lane.tally, config_.capture.series, lane.quiet.backlog,
      [&] {
        // Replicas are untouched during the replay, and honest replicas
        // are bit-identical at every step, so comparing the pre-skip
        // states at the due cadence reproduces the per-slot path's
        // verdict and count.
        if (config_.consistency_check_every != 0 &&
            lane.tally.probe_slots % config_.consistency_check_every == 0) {
          check_consistency(lane);
        }
      });
  if (lane.quiet.active()) return;
  for (auto& engine : lane.engines) {
    engine->skip_quiescent(lane.now - 1.0, lane.quiet.slots);
  }
}

const SimMetrics& Network::run() {
  TCW_EXPECTS(!finished_);
  TCW_EXPECTS(!stations_.empty());
  if (config_.event_skip) {
    // The skip certificates only hold on the schedule-independent batched
    // stream, and canonicalize replica state (so a desync injection must
    // be audited per-slot).
    TCW_EXPECTS(batched_rate_ > 0.0);
    TCW_EXPECTS(!config_.reference_kernel);
    TCW_EXPECTS(desync_replica_ == SIZE_MAX);
  }
  const std::size_t replicas = controller_replicas();
  for (std::uint32_t c = 0; c < lanes_.size(); ++c) {
    core::ControlPolicy lane_policy = config_.policy;
    lane_policy.shared_seed =
        channel_stream_seed(config_.policy.shared_seed, c);
    Lane& lane = lanes_[c];
    lane.engines.reserve(replicas);
    for (std::size_t i = 0; i < replicas; ++i) {
      lane.engines.push_back(make_engine(config_.mac.engine, lane_policy));
    }
  }
  if (desync_replica_ != SIZE_MAX) {
    // The audit is per lane; the hook targets the single channel's
    // replicas.
    const auto& engines = lanes_[0].engines;
    TCW_EXPECTS(lanes_.size() == 1);
    TCW_EXPECTS(engines.size() >= 2);  // see desync_replica_for_test
    TCW_EXPECTS(desync_replica_ < engines.size());
    // One out-of-band probe round nobody else sees: the replica resolves
    // an interval (or, for ALOHA engines, consumes a feedback) the rest
    // of the network never observed.
    ProtocolEngine& rogue = *engines[desync_replica_];
    if (rogue.next_slot(1.0).probes()) rogue.on_feedback(core::Feedback::Idle);
  }
  for (;;) {
    // The lane with the minimum clock steps next (ties to the lowest
    // index). With one lane this is the plain single-channel loop.
    std::size_t li = 0;
    for (std::size_t c = 1; c < lanes_.size(); ++c) {
      if (lanes_[c].now < lanes_[li].now) li = c;
    }
    Lane& lane = lanes_[li];
    if (lane.now >= config_.t_end) break;
    if (lane.quiet.active() ||
        (config_.event_skip && start_quiescent(lane))) {
      replay_quiescent_slots(lane, li);
    } else {
      step_lane(lane, static_cast<std::uint32_t>(li));
    }
  }
  finalize();
  finished_ = true;
  return metrics_;
}

void Network::step_lane(Lane& lane, std::uint32_t ch) {
  generate_arrivals_until(lane.now);
  const double k = config_.policy.deadline;
  const bool reference = config_.reference_kernel;
  obs::SlotSeries* const series = config_.capture.series;
  obs::FlightRecorder::Segment* const flight = config_.capture.flight;
  ProtocolEngine& engine = *lane.engines[0];
  // The series' backlog track samples the engine's backlog estimate: the
  // same quantity the event-skip certificates pin, so per-slot and
  // event-skip runs produce byte-identical series.
  const auto backlog_now = [&] { return engine.backlog_metric(lane.now); };
  const bool was_in_process = engine.in_process();
  // Every replica runs the same algorithm on the same feedback; the
  // canonical one (index 0) is authoritative, the shadows are audited.
  // Once a shadow diverges (caught here when it disagrees about the slot
  // plan, or by check_consistency on full state) auditing stops: a
  // replica outside lockstep cannot keep consuming shared feedback.
  const bool audit = lane.consistent;
  const SlotPlan plan = engine.next_slot(lane.now);
  if (audit) {
    for (std::size_t i = 1; i < lane.engines.size(); ++i) {
      if (!(lane.engines[i]->next_slot(lane.now) == plan)) {
        lane.consistent = false;
        consistent_ = false;
      }
    }
  }
  const bool step_shadows = audit && lane.consistent;
  const auto apply_feedback = [&](core::Feedback fb) {
    engine.on_feedback(fb);
    if (step_shadows) {
      for (std::size_t i = 1; i < lane.engines.size(); ++i) {
        lane.engines[i]->on_feedback(fb);
      }
    }
  };
  ++lane.tally.probe_slots;
  if (!was_in_process) {
    purge_expired(lane, ch);
    if (lane.now >= config_.warmup) {
      metrics_.pseudo_backlog.add(engine.backlog_metric(lane.now));
    }
  }
  if (config_.consistency_check_every != 0 &&
      lane.tally.probe_slots % config_.consistency_check_every == 0) {
    check_consistency(lane);
  }
  if (plan.kind == SlotPlan::Kind::Idle) {
    metrics_.usage.add_idle_slot();
    ++lane.tally.idle_slots;
    if (series != nullptr) series->add_idle(lane.now, backlog_now());
    lane.now += 1.0;
    return;
  }
  const bool windowed = plan.kind == SlotPlan::Kind::Window;
  const auto probes_so_far = static_cast<double>(engine.process_probes());

  // Who transmits in this probe slot? Only stations holding messages
  // can. Window plans probe an arrival-time interval (the incrementally
  // maintained active index skips empty queues, and two eligible
  // stations already decide a collision); Probability plans flip an
  // engine-id-keyed coin per backlogged station, every coin drawn in
  // station-id order so the stream stays aligned regardless of outcome.
  std::uint32_t tx_station = 0;
  std::ptrdiff_t tx_index = -1;
  std::size_t tx_count = 0;
  if (!windowed) {
    lane.tx_scratch.clear();
    for (std::size_t s = 0; s < lane.queues.size(); ++s) {
      const auto& queue = lane.queues[s].msgs;
      if (queue.empty()) continue;
      if (sim::bernoulli(lane.coin_rng, plan.tx_prob)) {
        ++tx_count;
        lane.tx_scratch.emplace_back(queue.front().id, queue.front().arrival);
        if (tx_count == 1) {
          tx_station = static_cast<std::uint32_t>(s);
          tx_index = 0;  // ALOHA stations send their oldest message
        }
      }
    }
  } else if (reference) {
    for (std::size_t s = 0; s < lane.queues.size(); ++s) {
      const std::ptrdiff_t idx =
          eligible_index(lane.queues[s].msgs, plan.window.lo, plan.window.hi);
      if (idx >= 0) {
        ++tx_count;
        tx_station = static_cast<std::uint32_t>(s);
        tx_index = idx;
      }
    }
  } else {
    for (const std::uint32_t id : lane.active) {
      const std::ptrdiff_t idx = eligible_index(lane.queues[id].msgs,
                                                plan.window.lo, plan.window.hi);
      if (idx >= 0) {
        ++tx_count;
        tx_station = id;
        tx_index = idx;
        if (tx_count == 2) break;  // collision decided
      }
    }
  }

  if (tx_count == 0) {
    metrics_.usage.add_idle_slot();
    ++lane.tally.idle_slots;
    if (series != nullptr) series->add_idle(lane.now, backlog_now());
    apply_feedback(core::Feedback::Idle);
    if (!engine.in_process() && lane.now >= config_.warmup) {
      metrics_.process_slots.add(probes_so_far);
    }
    lane.now += 1.0;
  } else if (tx_count == 1) {
    ++lane.tally.successes;
    auto& queue = lane.queues[tx_station].msgs;
    const chan::Message msg = queue[static_cast<std::size_t>(tx_index)];
    queue.erase(queue.begin() + tx_index);
    --lane.pending;
    const double wait = lane.now - msg.arrival;
    if (!windowed) lane.collided_ids.erase(msg.id);
    if (series != nullptr) {
      series->add_success(lane.now, k - wait, backlog_now());
    }
    if (flight != nullptr && flight->sampled(msg.arrival, ch)) {
      flight->record(lane.now, obs::FlightEventKind::kAdmit, msg.arrival,
                     k - wait, ch);
      flight->record(lane.now, obs::FlightEventKind::kSuccess, msg.arrival,
                     k - wait, ch);
    }
    if (msg.arrival >= config_.warmup) {
      metrics_.wait_all.add(wait);
      metrics_.wait_p50.add(wait);
      metrics_.wait_p90.add(wait);
      metrics_.wait_p99.add(wait);
      if (metrics_.wait_hist_enabled) metrics_.wait_hist.add(wait);
      metrics_.scheduling.add(lane.now -
                              std::max(msg.arrival, lane.last_tx_end));
      if (wait <= k) {
        ++metrics_.delivered;
        metrics_.wait_delivered.add(wait);
      } else {
        ++metrics_.lost_receiver;
      }
    }
    if (lane.now >= config_.warmup) metrics_.process_slots.add(probes_so_far);
    metrics_.usage.add_success(config_.message_length,
                               config_.success_overhead);
    if (!windowed) {
      // No window resolved, so nothing is stranded; ALOHA queues stay
      // arrival-ordered on their own.
      if (queue.empty()) deactivate(lane, tx_station);
    } else if (reference) {
      // Seed-era path: restamp by full scan, then re-sort the queue.
      double restamp = lane.now;
      for (auto& pending : queue) {
        if (pending.window_stamp >= plan.window.lo &&
            pending.window_stamp < plan.window.hi) {
          restamp += 1e-7;
          pending.window_stamp = restamp;
          ++restamps_;
        }
      }
      std::sort(queue.begin(), queue.end(),
                [](const chan::Message& a, const chan::Message& b) {
                  return a.window_stamp < b.window_stamp;
                });
    } else {
      restamp_stranded(lane, tx_station, plan.window.lo, plan.window.hi);
      if (queue.empty()) deactivate(lane, tx_station);
    }
    apply_feedback(core::Feedback::Success);
    lane.last_tx_end =
        lane.now + config_.message_length + config_.success_overhead;
    lane.now = lane.last_tx_end;
  } else {
    metrics_.usage.add_collision_slot();
    ++lane.tally.collisions;
    // Attribution bookkeeping: remember what collided. Only useful when
    // discards can happen (the sets are otherwise never consulted and
    // would grow unpruned).
    if (config_.policy.discard) {
      if (windowed) {
        lane.collided_spans.insert(plan.window.lo, plan.window.hi);
      } else {
        for (const auto& [id, arrival] : lane.tx_scratch) {
          lane.collided_ids.insert(id);
        }
      }
    }
    if (series != nullptr) series->add_collision(lane.now, backlog_now());
    if (flight != nullptr) {
      if (windowed) {
        // The early-exit eligibility scan resolves the identity of the
        // last eligible message found; its flight track carries the
        // collision.
        const chan::Message& msg =
            lane.queues[tx_station].msgs[static_cast<std::size_t>(tx_index)];
        if (flight->sampled(msg.arrival, ch)) {
          flight->record(lane.now, obs::FlightEventKind::kAdmit, msg.arrival,
                         k - (lane.now - msg.arrival), ch);
          flight->record(lane.now, obs::FlightEventKind::kCollision,
                         msg.arrival, k - (lane.now - msg.arrival), ch);
        }
      } else {
        for (const auto& [id, arrival] : lane.tx_scratch) {
          if (!flight->sampled(arrival, ch)) continue;
          flight->record(lane.now, obs::FlightEventKind::kAdmit, arrival,
                         k - (lane.now - arrival), ch);
          flight->record(lane.now, obs::FlightEventKind::kCollision, arrival,
                         k - (lane.now - arrival), ch);
        }
      }
    }
    apply_feedback(core::Feedback::Collision);
    lane.now += 1.0;
  }
}

void Network::finalize() {
  const double k = config_.policy.deadline;
  obs::ChannelTally total;
  for (std::size_t c = 0; c < lanes_.size(); ++c) {
    Lane& lane = lanes_[c];
    for (const StationQueue& sq : lane.queues) {
      for (const chan::Message& msg : sq.msgs) {
        if (msg.arrival < config_.warmup) continue;
        if (lane.now - msg.arrival > k) {
          ++metrics_.censored_lost;
        } else {
          ++metrics_.pending_at_end;
        }
      }
    }
    if (config_.consistency_check_every != 0) check_consistency(lane);
    total += lane.tally;
    if (lanes_.size() > 1) {
      obs::flush_channel_tally("net.network", static_cast<std::uint32_t>(c),
                               lane.tally);
    }
  }
  NetworkCounters& counters = network_counters();
  counters.runs.add(1);
  counters.probe_slots.add(total.probe_slots);
  counters.idle_slots.add(total.idle_slots);
  counters.collisions.add(total.collisions);
  counters.successes.add(total.successes);
  counters.sender_discards.add(total.sender_discards);
  counters.restamps.add(restamps_);
  counters.consistency_checks.add(checks_run_);
}

}  // namespace tcw::net
