// Tier-1 determinism contract of the parallel sweep engine: the same
// SweepConfig must produce bit-identical SweepPoint vectors for every
// worker count (same derived seeds, same fixed-order reduction).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "chan/arrivals.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "net/aggregate_sim.hpp"
#include "net/experiment.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slot_series.hpp"
#include "sim/rng.hpp"

namespace {

namespace net = tcw::net;

net::SweepConfig base_config(int threads) {
  net::SweepConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  cfg.t_end = 20000.0;
  cfg.warmup = 2000.0;
  cfg.replications = 3;
  cfg.threads = threads;
  return cfg;
}

// Bit-identical, not approximately equal: EXPECT_EQ on doubles.
void expect_bitwise_equal(const std::vector<net::SweepPoint>& a,
                          const std::vector<net::SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].constraint, b[i].constraint);
    EXPECT_EQ(a[i].p_loss, b[i].p_loss);
    EXPECT_EQ(a[i].ci95, b[i].ci95);
    EXPECT_EQ(a[i].mean_wait, b[i].mean_wait);
    EXPECT_EQ(a[i].mean_scheduling, b[i].mean_scheduling);
    EXPECT_EQ(a[i].utilization, b[i].utilization);
    EXPECT_EQ(a[i].messages, b[i].messages);
  }
}

std::vector<net::SweepPoint> sweep(const net::SweepConfig& cfg,
                                   net::ProtocolVariant v,
                                   const std::vector<double>& grid) {
  return net::run_sweep({.config = cfg, .constraints = grid, .variant = v})
      .points();
}

TEST(SweepDeterminism, IdenticalAcrossThreadCounts) {
  const std::vector<double> grid{25.0, 50.0, 100.0};
  const auto serial =
      sweep(base_config(1), net::ProtocolVariant::Controlled, grid);

  const auto two_workers =
      sweep(base_config(2), net::ProtocolVariant::Controlled, grid);
  expect_bitwise_equal(serial, two_workers);

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  const auto hw_workers =
      sweep(base_config(hw), net::ProtocolVariant::Controlled, grid);
  expect_bitwise_equal(serial, hw_workers);

  const auto auto_workers =
      sweep(base_config(0), net::ProtocolVariant::Controlled, grid);
  expect_bitwise_equal(serial, auto_workers);
}

TEST(SweepDeterminism, CustomSweepIdenticalAcrossThreadCounts) {
  const std::vector<double> grid{30.0, 60.0};
  const auto factory = [](double k) {
    return tcw::core::ControlPolicy::optimal(k, 40.0);
  };
  const auto serial =
      net::run_sweep({.config = base_config(1), .constraints = grid,
                      .make_policy = factory})
          .points();
  const auto parallel =
      net::run_sweep({.config = base_config(4), .constraints = grid,
                      .make_policy = factory})
          .points();
  expect_bitwise_equal(serial, parallel);
}

// Exact equality of two captured flight-event streams, field by field.
void expect_same_events(const std::vector<tcw::obs::FlightEvent>& a,
                        const std::vector<tcw::obs::FlightEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "event " << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << "event " << i;
    EXPECT_EQ(a[i].laxity, b[i].laxity) << "event " << i;
    EXPECT_EQ(a[i].channel, b[i].channel) << "event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
  }
}

TEST(SweepCapture, CapturedJobMatchesSoloRerunAndChangesNothing) {
  // One (K, replication) shard of a parallel sweep feeds a flight
  // recorder segment and a slot series; both must equal a solo simulator
  // run with the same derived seed, and attaching the capture must not
  // perturb the sweep.
  const std::vector<double> grid{25.0, 50.0, 100.0};
  const std::size_t capture_point = 1;
  const int capture_replication = 2;

  net::SweepConfig cfg = base_config(4);
  tcw::obs::FlightRecorder sweep_flight({cfg.base_seed, 1.0, 1u << 18});
  tcw::obs::SlotSeries sweep_series;
  cfg.capture_request = {{sweep_flight.segment("sweep"), &sweep_series},
                         capture_point,
                         capture_replication};
  const auto captured_points =
      sweep(cfg, net::ProtocolVariant::Controlled, grid);
  const tcw::obs::FlightRecorder::Segment& sweep_seg =
      *sweep_flight.segment("sweep");
  EXPECT_GT(sweep_seg.total(), 0u);
  EXPECT_GT(sweep_series.bucket_count(), 0u);

  // Solo rerun of exactly that shard: same config knobs, same policy,
  // same derived stream seed.
  net::AggregateConfig solo_cfg;
  solo_cfg.policy = net::policy_for(net::ProtocolVariant::Controlled,
                                    grid[capture_point],
                                    cfg.heuristic_window_width());
  solo_cfg.message_length = cfg.message_length;
  solo_cfg.success_overhead = cfg.success_overhead;
  solo_cfg.t_end = cfg.t_end;
  solo_cfg.warmup = cfg.warmup;
  solo_cfg.seed = tcw::sim::derive_stream_seed(
      cfg.base_seed, capture_point,
      static_cast<std::size_t>(capture_replication));
  tcw::obs::FlightRecorder solo_flight({cfg.base_seed, 1.0, 1u << 18});
  tcw::obs::SlotSeries solo_series;
  solo_cfg.capture = {solo_flight.segment("solo"), &solo_series};
  net::AggregateSimulator solo(
      solo_cfg, std::make_unique<tcw::chan::PoissonProcess>(cfg.lambda()));
  solo.run();

  const tcw::obs::FlightRecorder::Segment& solo_seg =
      *solo_flight.segment("solo");
  EXPECT_EQ(sweep_seg.total(), solo_seg.total());
  for (std::size_t k = 0; k < tcw::obs::kFlightEventKinds; ++k) {
    const auto kind = static_cast<tcw::obs::FlightEventKind>(k);
    EXPECT_EQ(sweep_seg.count(kind), solo_seg.count(kind));
  }
  expect_same_events(sweep_seg.events(), solo_seg.events());
  EXPECT_EQ(sweep_series.to_csv_rows("job"), solo_series.to_csv_rows("job"));

  // Capture is observation only: the captured sweep's numbers are
  // bit-identical to an uncaptured serial sweep.
  const auto uncaptured =
      sweep(base_config(1), net::ProtocolVariant::Controlled, grid);
  expect_bitwise_equal(captured_points, uncaptured);
}

TEST(SweepCapture, CapturedShardWorksUnderExternalScheduler) {
  // The same plumbing through a scheduler-bound run_sweep: only the
  // designated shard feeds the capture, and results stay bit-identical.
  const std::vector<double> grid{30.0, 60.0};
  net::SweepConfig cfg = base_config(0);
  tcw::obs::FlightRecorder flight({cfg.base_seed, 1.0, 1u << 18});
  tcw::obs::SlotSeries series;
  cfg.capture_request = {{flight.segment("captured"), &series}, 0, 1};

  tcw::exec::ThreadPool pool(2);
  tcw::exec::SweepScheduler scheduler(pool);
  auto handle = net::run_sweep(
      {.config = cfg, .constraints = grid,
       .variant = net::ProtocolVariant::Controlled},
      {.scheduler = &scheduler, .name = "captured"});
  scheduler.run();
  EXPECT_GT(flight.segment("captured")->total(), 0u);
  EXPECT_GT(series.bucket_count(), 0u);

  // The captured shard alone: the series spans one replication's run.
  net::SweepConfig solo_cfg = base_config(1);
  tcw::obs::SlotSeries solo_series;
  solo_cfg.capture_request = {{nullptr, &solo_series}, 0, 1};
  const auto solo_points =
      sweep(solo_cfg, net::ProtocolVariant::Controlled, grid);
  EXPECT_EQ(series.to_csv_rows("job"), solo_series.to_csv_rows("job"));

  const auto uncaptured =
      sweep(base_config(1), net::ProtocolVariant::Controlled, grid);
  expect_bitwise_equal(handle.points(), uncaptured);
  expect_bitwise_equal(solo_points, uncaptured);
}

}  // namespace
