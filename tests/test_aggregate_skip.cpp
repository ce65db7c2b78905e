// Conformance layer for the aggregate kernel's quiescent-slot replay
// (net/quiescent_replay.hpp): the fast kernel, which replays certified
// idle slots instead of stepping them, must reproduce the per-slot
// reference kernel bit for bit -- every metric, the probe count, and the
// per-channel outcome and attribution tallies -- across engines, window
// policies, channel counts, selectors, skews, discard settings and the
// cells that must fall back to per-slot stepping. Suite name
// (AggregateSkip) is targeted by both sanitizer legs of scripts/tier1.sh.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/splitting.hpp"
#include "chan/arrivals.hpp"
#include "net/aggregate_sim.hpp"
#include "obs/capture.hpp"
#include "sim/rng.hpp"
#include "sim/sampling.hpp"

using tcw::chan::ArrivalProcess;
using tcw::core::ControlPolicy;
using tcw::net::AggregateConfig;
using tcw::net::AggregateSimulator;
using tcw::net::ChannelSelectorKind;
using tcw::net::EngineKind;
using tcw::net::SimMetrics;

namespace {

void append_stats(std::ostringstream& out, const tcw::sim::RunningStats& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, " %llu/%a/%a/%a/%a",
                static_cast<unsigned long long>(s.count()), s.mean(), s.sum(),
                s.min(), s.max());
  out << buf;
}

// Exact textual fingerprint of every metric (hex floats), so EXPECT_EQ
// failures show which field diverged.
std::string fingerprint(const SimMetrics& m) {
  std::ostringstream out;
  out << m.arrivals << ' ' << m.delivered << ' ' << m.lost_sender << ' '
      << m.lost_receiver << ' ' << m.censored_lost << ' ' << m.pending_at_end;
  append_stats(out, m.wait_all);
  append_stats(out, m.wait_delivered);
  append_stats(out, m.scheduling);
  append_stats(out, m.process_slots);
  append_stats(out, m.pseudo_backlog);
  char buf[240];
  std::snprintf(buf, sizeof buf, " q:%a/%a/%a u:%a/%a/%a/%a",
                m.wait_p50.value(), m.wait_p90.value(), m.wait_p99.value(),
                m.usage.idle_slots(), m.usage.collision_slots(),
                m.usage.payload_slots(), m.usage.success_overhead_slots());
  out << buf;
  return out.str();
}

// Outcome and attribution tallies, channel by channel.
std::string tally_string(const std::vector<tcw::obs::ChannelTally>& tallies) {
  std::ostringstream out;
  for (const auto& t : tallies) {
    out << '[' << t.probe_slots << ' ' << t.idle_slots << ' ' << t.collisions
        << ' ' << t.successes << ' ' << t.sender_discards << ' '
        << t.admission_starved << ' ' << t.collision_killed << ' '
        << t.queue_expired << ']';
  }
  return out.str();
}

enum class Window { Optimal, Fcfs, Lcfs, Random };

const char* to_string(Window w) {
  switch (w) {
    case Window::Optimal: return "optimal";
    case Window::Fcfs: return "fcfs";
    case Window::Lcfs: return "lcfs";
    case Window::Random: return "random";
  }
  return "?";
}

struct Cell {
  EngineKind kind = EngineKind::Window;
  Window window = Window::Optimal;
  std::uint32_t channels = 1;
  ChannelSelectorKind selector = ChannelSelectorKind::HashShard;
  double skew = 0.0;
  double rho = 0.5;
  double k = 75.0;
  bool discard = true;
  double message_length = 25.0;
  double slot_jitter = 0.0;
  double t_end = 20000.0;
  double warmup = 2000.0;
  std::uint64_t seed = 1;

  std::string label() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "engine=%s window=%s C=%u selector=%s skew=%g rho=%g k=%g "
                  "discard=%d M=%g jitter=%g t_end=%g warmup=%g seed=%llu",
                  tcw::net::to_string(kind).c_str(), to_string(window),
                  channels, tcw::net::to_string(selector).c_str(), skew, rho,
                  k, discard ? 1 : 0, message_length, slot_jitter, t_end,
                  warmup, static_cast<unsigned long long>(seed));
    return buf;
  }
};

double lambda_of(const Cell& cell) { return cell.rho / cell.message_length; }

AggregateConfig make_config(const Cell& cell, bool reference,
                            const tcw::obs::KernelCapture& capture) {
  AggregateConfig cfg;
  const double width = tcw::analysis::optimal_window_load() / lambda_of(cell);
  switch (cell.window) {
    case Window::Optimal:
      cfg.policy = ControlPolicy::optimal(cell.k, width);
      break;
    case Window::Fcfs:
      cfg.policy = ControlPolicy::fcfs_baseline(cell.k, width);
      break;
    case Window::Lcfs:
      cfg.policy = ControlPolicy::lcfs_baseline(cell.k, width);
      break;
    case Window::Random:
      cfg.policy = ControlPolicy::random_baseline(cell.k, width);
      break;
  }
  cfg.policy.discard = cell.discard;
  cfg.mac.engine.kind = cell.kind;
  if (cell.kind == EngineKind::DynamicAloha) {
    cfg.mac.engine.arrival_rate = lambda_of(cell);
  }
  cfg.mac.channel.channels = cell.channels;
  cfg.mac.channel.selector = cell.selector;
  cfg.mac.channel.skew = cell.skew;
  cfg.message_length = cell.message_length;
  cfg.slot_jitter = cell.slot_jitter;
  cfg.t_end = cell.t_end;
  cfg.warmup = cell.warmup;
  cfg.seed = cell.seed;
  cfg.reference_kernel = reference;
  cfg.capture = capture;
  return cfg;
}

struct RunResult {
  std::string metrics;
  std::uint64_t probes = 0;
  std::string tallies;
  std::uint64_t idle = 0;
  std::uint64_t skipped = 0;
};

RunResult run_sim(AggregateSimulator& sim) {
  RunResult r;
  r.metrics = fingerprint(sim.run());
  r.probes = sim.probe_steps();
  const auto tallies = sim.channel_tallies();
  r.tallies = tally_string(tallies);
  for (const auto& t : tallies) r.idle += t.idle_slots;
  r.skipped = sim.skipped_slots();
  return r;
}

RunResult run_cell(const Cell& cell, bool reference,
                   const tcw::obs::KernelCapture& capture = {}) {
  AggregateSimulator sim(
      make_config(cell, reference, capture),
      std::make_unique<tcw::chan::PoissonProcess>(lambda_of(cell)));
  return run_sim(sim);
}

// Runs the cell on the fast and the reference kernel and asserts
// bit-identity. Returns the fast run's skipped-slot count so callers can
// assert the replay engaged (or, for fallback cells, did not).
std::uint64_t expect_conformant(const Cell& cell) {
  const RunResult fast = run_cell(cell, false);
  const RunResult ref = run_cell(cell, true);
  const std::string label = cell.label();
  EXPECT_EQ(fast.metrics, ref.metrics) << label;
  EXPECT_EQ(fast.probes, ref.probes) << label;
  EXPECT_EQ(fast.tallies, ref.tallies) << label;
  EXPECT_EQ(ref.skipped, 0u) << label;
  EXPECT_LE(fast.skipped, fast.idle) << label;
  return fast.skipped;
}

// One arrival per scripted time, then silence until past any t_end.
class ScriptedProcess final : public ArrivalProcess {
 public:
  explicit ScriptedProcess(std::vector<double> times)
      : times_(std::move(times)) {}
  double next(tcw::sim::Rng&) override {
    if (i_ < times_.size()) return times_[i_++];
    return std::numeric_limits<double>::max();
  }
  double mean_rate() const override { return 0.0; }

 private:
  std::vector<double> times_;
  std::size_t i_ = 0;
};

}  // namespace

TEST(AggregateSkip, ConformanceEveryEngineAndWindowPolicy) {
  // One channel, every engine and window policy, discard on and off.
  // RandomGap draws the shared stream at every process start, so it
  // never certifies and must step every slot.
  const struct {
    EngineKind kind;
    Window window;
  } engines[] = {
      {EngineKind::Window, Window::Optimal},
      {EngineKind::Window, Window::Fcfs},
      {EngineKind::Window, Window::Lcfs},
      {EngineKind::Window, Window::Random},
      {EngineKind::SlottedAloha, Window::Optimal},
      {EngineKind::DynamicAloha, Window::Optimal},
  };
  for (const auto& e : engines) {
    for (const bool discard : {true, false}) {
      Cell cell;
      cell.kind = e.kind;
      cell.window = e.window;
      cell.discard = discard;
      cell.rho = 0.4;
      cell.seed = 5;
      const std::uint64_t skipped = expect_conformant(cell);
      if (e.kind == EngineKind::Window && e.window == Window::Random) {
        EXPECT_EQ(skipped, 0u) << cell.label();
      } else {
        EXPECT_GT(skipped, 0u) << cell.label();
      }
    }
  }
}

TEST(AggregateSkip, ConformanceEveryChannelCountSelectorAndSkew) {
  const EngineKind kinds[] = {EngineKind::Window, EngineKind::SlottedAloha,
                              EngineKind::DynamicAloha};
  const ChannelSelectorKind selectors[] = {
      ChannelSelectorKind::HashShard, ChannelSelectorKind::UniformRandom,
      ChannelSelectorKind::LeastLoaded, ChannelSelectorKind::DeadlineHop};
  for (const EngineKind kind : kinds) {
    for (const std::uint32_t channels : {1u, 2u, 4u}) {
      for (const ChannelSelectorKind selector : selectors) {
        for (const double skew : {0.0, 0.5}) {
          if (channels == 1 && (selector != ChannelSelectorKind::HashShard ||
                                skew != 0.0)) {
            continue;  // one channel never consults a selector
          }
          Cell cell;
          cell.kind = kind;
          cell.channels = channels;
          cell.selector = selector;
          cell.skew = skew;
          cell.rho = 0.6;
          cell.t_end = 12000.0;
          cell.warmup = 1000.0;
          cell.seed = 17 + channels;
          EXPECT_GT(expect_conformant(cell), 0u) << cell.label();
        }
      }
    }
  }
}

TEST(AggregateSkip, ConformanceRandomizedCells) {
  // Property test: cells drawn from a seeded generator span engines,
  // window policies, channel plans, loads, deadlines (K < 1 included),
  // discard, and the fallback cells (slot jitter, fractional M).
  tcw::sim::Rng gen(0xA66u);
  const EngineKind kinds[] = {EngineKind::Window, EngineKind::SlottedAloha,
                              EngineKind::DynamicAloha};
  const Window windows[] = {Window::Optimal, Window::Fcfs, Window::Lcfs,
                            Window::Random};
  const std::uint32_t channel_counts[] = {1, 2, 4};
  const double deadlines[] = {75.0, 60.5, 0.75};
  std::uint64_t total_skipped = 0;
  for (int i = 0; i < 40; ++i) {
    Cell cell;
    cell.kind = kinds[tcw::sim::uniform_index(gen, 3)];
    cell.window = windows[tcw::sim::uniform_index(gen, 4)];
    cell.channels = channel_counts[tcw::sim::uniform_index(gen, 3)];
    cell.selector =
        static_cast<ChannelSelectorKind>(tcw::sim::uniform_index(gen, 4));
    cell.skew = tcw::sim::uniform_index(gen, 2) == 0 ? 0.0 : 0.5;
    cell.rho = 0.1 + 0.9 * tcw::sim::uniform01(gen);
    cell.k = deadlines[tcw::sim::uniform_index(gen, 3)];
    cell.discard = tcw::sim::uniform_index(gen, 2) == 0;
    cell.message_length = tcw::sim::uniform_index(gen, 4) == 0 ? 25.5 : 25.0;
    cell.slot_jitter = tcw::sim::uniform_index(gen, 5) == 0 ? 0.3 : 0.0;
    cell.t_end = 8000.0 + 1000.0 * tcw::sim::uniform_index(gen, 6);
    cell.warmup = 250.0 * tcw::sim::uniform_index(gen, 5);
    cell.seed = 300 + i;
    const std::uint64_t skipped = expect_conformant(cell);
    total_skipped += skipped;
    if (cell.slot_jitter > 0.0) {
      EXPECT_EQ(skipped, 0u) << cell.label();
    }
  }
  EXPECT_GT(total_skipped, 0u);
}

TEST(AggregateSkip, FallbackCellsStayConformant) {
  // Slot jitter makes every clock fractional: nothing is certified.
  Cell jitter;
  jitter.slot_jitter = 0.25;
  jitter.rho = 0.3;
  EXPECT_EQ(expect_conformant(jitter), 0u);
  // M = 25.5 puts transmission ends on half slots; stretches are only
  // certified where the clock is integral again, and replay exactly there.
  Cell half;
  half.message_length = 25.5;
  half.rho = 0.3;
  expect_conformant(half);
  // K < 1: the window engine's orbit backlog is not constant, so it never
  // certifies; the aloha engines still do.
  for (const EngineKind kind :
       {EngineKind::Window, EngineKind::SlottedAloha,
        EngineKind::DynamicAloha}) {
    Cell tight;
    tight.kind = kind;
    tight.k = 0.75;
    tight.rho = 0.7;
    const std::uint64_t skipped = expect_conformant(tight);
    if (kind == EngineKind::Window) {
      EXPECT_EQ(skipped, 0u);
    } else {
      EXPECT_GT(skipped, 0u) << tight.label();
    }
  }
}

TEST(AggregateSkip, DynamicAlohaFourLanesReplayInArgminOrder) {
  // The cell where lane order matters most: four lanes whose busy
  // stretches feed varying n-hat samples into the shared pseudo_backlog
  // accumulator between the idle lanes' constant samples. Replaying a
  // stretch out of argmin order, or dropping any lane's slot, changes
  // the accumulator's bits.
  for (const ChannelSelectorKind selector :
       {ChannelSelectorKind::HashShard, ChannelSelectorKind::LeastLoaded}) {
    Cell cell;
    cell.kind = EngineKind::DynamicAloha;
    cell.channels = 4;
    cell.selector = selector;
    cell.rho = 0.8;
    cell.seed = 41;
    EXPECT_GT(expect_conformant(cell), 0u) << cell.label();
  }
}

TEST(AggregateSkip, WarmupInsideStretch) {
  // Sparse load makes long stretches; warmup cutoffs at many offsets,
  // fractional included, must not move a sample across the cutoff.
  for (const double warmup : {0.0, 1.0, 97.0, 1003.5, 2500.0}) {
    for (const std::uint32_t channels : {1u, 4u}) {
      Cell cell;
      cell.rho = 0.1;
      cell.channels = channels;
      cell.warmup = warmup;
      cell.t_end = 15000.0;
      cell.seed = 11;
      EXPECT_GT(expect_conformant(cell), 0u)
          << "warmup=" << warmup << " C=" << channels;
    }
  }
}

TEST(AggregateSkip, RunEndInsideStretch) {
  // The run end bounds every stretch: integral, fractional and
  // just-past-integral ends must stop the replay where per-slot stepping
  // stops.
  for (const double t_end : {15000.0, 15000.5, 15001.0, 14999.25}) {
    for (const std::uint32_t channels : {1u, 2u}) {
      Cell cell;
      cell.rho = 0.05;
      cell.channels = channels;
      cell.t_end = t_end;
      cell.seed = 13;
      EXPECT_GT(expect_conformant(cell), 0u)
          << "t_end=" << t_end << " C=" << channels;
    }
  }
}

TEST(AggregateSkip, ArrivalOnAnIntegerSlot) {
  // An arrival exactly at slot time t is generated before slot t probes,
  // so the stretch before it must end at t - 1; arrivals between slots
  // end it at the next slot.
  const std::vector<double> times{100.0, 101.0,  250.0,  251.0, 251.5,
                                  400.0, 1000.0, 1000.5, 3000.0};
  for (const EngineKind kind :
       {EngineKind::Window, EngineKind::SlottedAloha,
        EngineKind::DynamicAloha}) {
    for (const std::uint32_t channels : {1u, 2u}) {
      Cell cell;
      cell.kind = kind;
      cell.channels = channels;
      cell.rho = 0.1;
      cell.k = 60.0;
      cell.t_end = 5000.0;
      cell.warmup = 0.0;
      RunResult runs[2];
      for (const bool reference : {false, true}) {
        AggregateSimulator sim(make_config(cell, reference, {}),
                               std::make_unique<ScriptedProcess>(times));
        runs[reference ? 1 : 0] = run_sim(sim);
      }
      EXPECT_EQ(runs[0].metrics, runs[1].metrics) << cell.label();
      EXPECT_EQ(runs[0].probes, runs[1].probes) << cell.label();
      EXPECT_EQ(runs[0].tallies, runs[1].tallies) << cell.label();
      EXPECT_GT(runs[0].skipped, 0u) << cell.label();
    }
  }
}

TEST(AggregateSkip, FlightAndSeriesCaptureMatchReference) {
  // With every packet sampled, the flight report and the slot series of
  // the replaying kernel are byte-equal to the per-slot reference's.
  for (const EngineKind kind :
       {EngineKind::Window, EngineKind::DynamicAloha}) {
    for (const std::uint32_t channels : {1u, 4u}) {
      Cell cell;
      cell.kind = kind;
      cell.channels = channels;
      cell.rho = 0.5;
      cell.k = 40.0;
      std::string flight[2];
      std::string series[2];
      for (const bool reference : {false, true}) {
        tcw::obs::FlightRecorder recorder({cell.seed, 1.0, 1u << 16});
        tcw::obs::SlotSeries slot_series(64);
        tcw::obs::KernelCapture capture;
        capture.flight = recorder.segment("cell");
        capture.series = &slot_series;
        const RunResult r = run_cell(cell, reference, capture);
        EXPECT_EQ(r.skipped > 0, !reference) << cell.label();
        flight[reference ? 1 : 0] = recorder.to_json();
        series[reference ? 1 : 0] = slot_series.to_csv_rows("cell");
      }
      EXPECT_EQ(flight[0], flight[1]) << cell.label();
      EXPECT_EQ(series[0], series[1]) << cell.label();
      EXPECT_FALSE(series[0].empty());
    }
  }
}

TEST(AggregateSkip, EngagesOnSparseLoad) {
  // At rho = 0.25 nearly every idle probe sits in the quiescent orbit;
  // require that the replay covered at least 90% of them (guards against
  // a silent fallback to per-slot stepping).
  Cell cell;
  cell.rho = 0.25;
  cell.k = 50.0;
  cell.t_end = 100000.0;
  cell.warmup = 5000.0;
  cell.seed = 7;
  expect_conformant(cell);
  const RunResult fast = run_cell(cell, false);
  EXPECT_GE(static_cast<double>(fast.skipped),
            0.9 * static_cast<double>(fast.idle));
}
