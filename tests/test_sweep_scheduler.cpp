// Tier-1 contract of the sharded multi-sweep scheduler: every shard of
// every registered sweep runs exactly once over the shared pool; idle
// workers steal shards from sweeps that still have work; per-sweep
// results are bit-identical to standalone runs for any thread count and
// any sweep submission order; shard exceptions propagate out of run().
#include "exec/sweep_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "net/experiment.hpp"
#include "obs/registry.hpp"

namespace {

using tcw::exec::SchedulerReport;
using tcw::exec::SweepScheduler;
using tcw::exec::ThreadPool;
namespace net = tcw::net;

std::vector<std::function<void()>> counting_shards(
    std::vector<std::atomic<int>>& counters) {
  std::vector<std::function<void()>> shards;
  shards.reserve(counters.size());
  for (auto& c : counters) {
    shards.push_back([&c] { c.fetch_add(1); });
  }
  return shards;
}

TEST(SweepScheduler, RunsEveryShardOfEverySweepOnce) {
  ThreadPool pool(3);
  SweepScheduler scheduler(pool);
  std::vector<std::atomic<int>> a(5);
  std::vector<std::atomic<int>> b(7);
  EXPECT_EQ(scheduler.add_sweep("a", counting_shards(a)), 0u);
  EXPECT_EQ(scheduler.add_sweep("b", counting_shards(b)), 1u);
  scheduler.add_sweep("empty", {});
  EXPECT_EQ(scheduler.sweep_count(), 3u);
  EXPECT_EQ(scheduler.shard_count(), 12u);

  const SchedulerReport report = scheduler.run();

  for (const auto& c : a) EXPECT_EQ(c.load(), 1);
  for (const auto& c : b) EXPECT_EQ(c.load(), 1);
  EXPECT_EQ(report.threads, 3u);
  EXPECT_EQ(report.shards, 12u);
  ASSERT_EQ(report.sweeps.size(), 3u);
  EXPECT_EQ(report.sweeps[0].name, "a");
  EXPECT_EQ(report.sweeps[0].shards, 5u);
  EXPECT_EQ(report.sweeps[1].name, "b");
  EXPECT_EQ(report.sweeps[1].shards, 7u);
  EXPECT_EQ(report.sweeps[2].shards, 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
  // run() consumed the graph; the scheduler is reusable.
  EXPECT_EQ(scheduler.sweep_count(), 0u);
  EXPECT_EQ(scheduler.shard_count(), 0u);
}

TEST(SweepScheduler, IdleWorkersStealShardsFromOtherSweeps) {
  // Sweep "blocker" holds one shard that cannot finish until every shard
  // of sweep "stolen" has run. With 2 workers this completes only if the
  // second worker, finding its home sweep drained, pulls the other
  // sweep's shards while the first shard is still executing -- a
  // scheduler that runs sweeps strictly one at a time would time out.
  ThreadPool pool(2);
  SweepScheduler scheduler(pool);
  std::atomic<int> stolen_done{0};
  std::atomic<bool> timed_out{false};

  std::vector<std::function<void()>> blocker;
  blocker.push_back([&stolen_done, &timed_out] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (stolen_done.load() < 4) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  scheduler.add_sweep("blocker", std::move(blocker));

  std::vector<std::function<void()>> stolen;
  for (int i = 0; i < 4; ++i) {
    stolen.push_back([&stolen_done] { stolen_done.fetch_add(1); });
  }
  scheduler.add_sweep("stolen", std::move(stolen));

  scheduler.run();
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(stolen_done.load(), 4);
}

TEST(SweepScheduler, SingleWorkerRunsInRegistrationOrder) {
  ThreadPool pool(1);
  SweepScheduler scheduler(pool);
  std::vector<int> order;
  std::vector<std::function<void()>> first;
  for (int i = 0; i < 3; ++i) {
    first.push_back([&order, i] { order.push_back(i); });
  }
  std::vector<std::function<void()>> second;
  for (int i = 3; i < 5; ++i) {
    second.push_back([&order, i] { order.push_back(i); });
  }
  scheduler.add_sweep("first", std::move(first));
  scheduler.add_sweep("second", std::move(second));
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SweepScheduler, ShardExceptionPropagatesAndSchedulerStaysUsable) {
  ThreadPool pool(3);
  SweepScheduler scheduler(pool);
  std::vector<std::function<void()>> shards;
  for (int i = 0; i < 8; ++i) {
    shards.push_back([i] {
      if (i == 5) throw std::runtime_error("shard boom");
    });
  }
  scheduler.add_sweep("exploding", std::move(shards));
  EXPECT_THROW(scheduler.run(), std::runtime_error);

  // The failed graph was consumed; a fresh sweep runs normally.
  std::vector<std::atomic<int>> counters(4);
  scheduler.add_sweep("after", counting_shards(counters));
  const SchedulerReport report = scheduler.run();
  EXPECT_EQ(report.shards, 4u);
  for (const auto& c : counters) EXPECT_EQ(c.load(), 1);
}

TEST(SweepScheduler, SerialPathPropagatesExceptionToo) {
  ThreadPool pool(1);
  SweepScheduler scheduler(pool);
  scheduler.add_sweep(
      "serial", {[] { throw std::logic_error("serial shard"); }});
  EXPECT_THROW(scheduler.run(), std::logic_error);
}

TEST(SweepScheduler, ManyConcurrentShardExceptionsYieldExactlyOne) {
  ThreadPool pool(4);
  SweepScheduler scheduler(pool);
  std::vector<std::function<void()>> shards;
  for (int i = 0; i < 12; ++i) {
    shards.push_back([i] {
      throw std::runtime_error("boom " + std::to_string(i));
    });
  }
  scheduler.add_sweep("all-throw", std::move(shards));
  try {
    scheduler.run();
    FAIL() << "run() should have rethrown a shard exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u) << e.what();
  }
  // No second exception is pending: an empty run is clean.
  EXPECT_NO_THROW(scheduler.run());
}

TEST(SweepScheduler, ReportAccountsBusyTimeAndUtilization) {
  ThreadPool pool(2);
  SweepScheduler scheduler(pool);
  std::vector<std::function<void()>> shards;
  for (int i = 0; i < 8; ++i) {
    shards.push_back(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); });
  }
  scheduler.add_sweep("sleepy", std::move(shards));
  const SchedulerReport report = scheduler.run();
  EXPECT_GT(report.busy_seconds, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.worker_utilization, 0.0);
  EXPECT_LE(report.worker_utilization, 1.0 + 1e-9);
  ASSERT_EQ(report.sweeps.size(), 1u);
  EXPECT_GT(report.sweeps[0].shards_per_second, 0.0);
  EXPECT_GE(report.busy_seconds, report.sweeps[0].busy_seconds - 1e-12);

  const std::string json = report.bench_json("unit");
  EXPECT_NE(json.find("\"suite\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":8"), std::string::npos);
  EXPECT_NE(json.find("\"worker_utilization\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sleepy\""), std::string::npos);
}

TEST(SweepScheduler, ReportInvariantsHoldAcrossSweepsAndThreadCounts) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    SweepScheduler scheduler(pool);
    std::vector<std::atomic<int>> a(5);
    std::vector<std::atomic<int>> b(3);
    std::vector<std::atomic<int>> c(9);
    scheduler.add_sweep("a", counting_shards(a));
    scheduler.add_sweep("b", counting_shards(b));
    scheduler.add_sweep("c", counting_shards(c));
    const SchedulerReport report = scheduler.run();

    EXPECT_EQ(report.threads, threads);
    EXPECT_GE(report.worker_utilization, 0.0);
    EXPECT_LE(report.worker_utilization, 1.0 + 1e-9);
    // Per-sweep shard counts sum to the consolidated total.
    std::size_t sweep_shards = 0;
    double sweep_busy = 0.0;
    for (const auto& s : report.sweeps) {
      sweep_shards += s.shards;
      sweep_busy += s.busy_seconds;
      EXPECT_GE(s.busy_seconds, 0.0);
      EXPECT_GE(s.wall_seconds, 0.0);
      // A sweep's summed shard time fits inside threads * its wall span.
      EXPECT_LE(s.busy_seconds,
                static_cast<double>(threads) * s.wall_seconds + 1e-6);
    }
    EXPECT_EQ(sweep_shards, report.shards);
    EXPECT_EQ(report.shards, 17u);
    EXPECT_NEAR(report.busy_seconds, sweep_busy, 1e-9);
    // Total busy time cannot exceed the threads * wall-clock envelope.
    EXPECT_LE(report.busy_seconds,
              static_cast<double>(threads) * report.wall_seconds + 1e-6);
  }
}

// ---- loss-curve integration: the determinism contract end to end ----

net::SweepConfig small_config() {
  net::SweepConfig cfg;
  cfg.offered_load = 0.5;
  cfg.message_length = 25.0;
  cfg.t_end = 15000.0;
  cfg.warmup = 1500.0;
  cfg.replications = 2;
  return cfg;
}

void expect_points_equal(const std::vector<net::SweepPoint>& a,
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

TEST(SweepScheduler, ScheduledSweepsMatchStandaloneForEveryThreadCount) {
  const std::vector<double> grid{25.0, 50.0, 100.0};
  net::SweepConfig cfg = small_config();
  cfg.threads = 1;
  const auto standalone_controlled =
      net::run_sweep({.config = cfg, .constraints = grid,
                      .variant = net::ProtocolVariant::Controlled})
          .points();
  const auto standalone_fcfs =
      net::run_sweep({.config = cfg, .constraints = grid,
                      .variant = net::ProtocolVariant::FcfsNoDiscard})
          .points();

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {1, 2, hw}) {
    ThreadPool pool(static_cast<unsigned>(threads));
    SweepScheduler scheduler(pool);
    auto controlled = net::run_sweep(
        {.config = cfg, .constraints = grid,
         .variant = net::ProtocolVariant::Controlled},
        {.scheduler = &scheduler, .name = "controlled"});
    auto fcfs = net::run_sweep(
        {.config = cfg, .constraints = grid,
         .variant = net::ProtocolVariant::FcfsNoDiscard},
        {.scheduler = &scheduler, .name = "fcfs"});
    EXPECT_EQ(controlled.jobs(), grid.size() * 2);
    const SchedulerReport report = scheduler.run();
    EXPECT_EQ(report.shards, grid.size() * 2 * 2);
    expect_points_equal(controlled.points(), standalone_controlled);
    expect_points_equal(fcfs.points(), standalone_fcfs);
  }
}

TEST(SweepScheduler, UnboundSweepRunsAsASuiteOfOne) {
  // run_sweep without a scheduler binding registers its shards on a
  // local scheduler and runs it: one scheduler run, one shard per
  // (K, replication) job, for any worker count.
  auto& registry = tcw::obs::Registry::global();
  const auto counter = [&registry](const char* name) {
    return registry.counter(name).value();
  };
  const std::vector<double> grid{25.0, 50.0, 100.0};
  for (const int threads : {1, 2}) {
    net::SweepConfig cfg = small_config();
    cfg.threads = threads;
    const std::uint64_t runs0 = counter("exec.scheduler.runs");
    const std::uint64_t shards0 = counter("exec.scheduler.shards_home") +
                                  counter("exec.scheduler.shards_stolen");
    const auto handle =
        net::run_sweep({.config = cfg, .constraints = grid,
                        .variant = net::ProtocolVariant::Controlled});
    EXPECT_EQ(counter("exec.scheduler.runs") - runs0, 1u) << threads;
    EXPECT_EQ(counter("exec.scheduler.shards_home") +
                  counter("exec.scheduler.shards_stolen") - shards0,
              handle.jobs())
        << threads;
    EXPECT_EQ(handle.jobs(), grid.size() * 2);
    EXPECT_EQ(handle.points().size(), grid.size());
  }
}

TEST(SweepScheduler, SweepSubmissionOrderDoesNotChangeResults) {
  const std::vector<double> grid{30.0, 75.0};
  const net::SweepConfig cfg = small_config();

  ThreadPool pool(3);
  SweepScheduler forward(pool);
  auto fwd_a = net::run_sweep({.config = cfg, .constraints = grid,
                               .variant = net::ProtocolVariant::Controlled},
                              {.scheduler = &forward, .name = "a"});
  auto fwd_b = net::run_sweep({.config = cfg, .constraints = grid,
                               .variant = net::ProtocolVariant::LcfsNoDiscard},
                              {.scheduler = &forward, .name = "b"});
  forward.run();

  SweepScheduler reversed(pool);
  auto rev_b = net::run_sweep({.config = cfg, .constraints = grid,
                               .variant = net::ProtocolVariant::LcfsNoDiscard},
                              {.scheduler = &reversed, .name = "b"});
  auto rev_a = net::run_sweep({.config = cfg, .constraints = grid,
                               .variant = net::ProtocolVariant::Controlled},
                              {.scheduler = &reversed, .name = "a"});
  reversed.run();

  expect_points_equal(fwd_a.points(), rev_a.points());
  expect_points_equal(fwd_b.points(), rev_b.points());
}

TEST(SweepScheduler, CustomPolicySweepMatchesStandalone) {
  const std::vector<double> grid{40.0, 80.0};
  const net::SweepConfig cfg = small_config();
  const auto factory = [](double k) {
    return tcw::core::ControlPolicy::optimal(k, 40.0);
  };
  const auto standalone =
      net::run_sweep(
          {.config = cfg, .constraints = grid, .make_policy = factory})
          .points();

  ThreadPool pool(2);
  SweepScheduler scheduler(pool);
  auto scheduled = net::run_sweep(
      {.config = cfg, .constraints = grid, .make_policy = factory},
      {.scheduler = &scheduler, .name = "custom"});
  scheduler.run();
  expect_points_equal(scheduled.points(), standalone);
}

}  // namespace
