// The packet flight recorder: pure-hash sampling determinism (zero RNG
// draws, reproducible across segments, recorders, and thread counts),
// bounded-ring event retention, JSON export, and full-rate captures of
// both window-engine kernels whose event counts match the kernels' own
// slot accounting -- plus the BoundedRing tiny-capacity wraparound
// regression (the ring backs every flight-recorder segment).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chan/arrivals.hpp"
#include "net/aggregate_sim.hpp"
#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/ring.hpp"

namespace tcw {
namespace {

using obs::BoundedRing;
using obs::FlightEvent;
using obs::FlightEventKind;
using obs::FlightRecorder;

// ------------------------------------------------------- BoundedRing

TEST(BoundedRing, CapacityOneKeepsOnlyLatest) {
  BoundedRing<int> ring(1);
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_EQ(ring.size(), 0u);
  for (int i = 1; i <= 5; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.dropped(), 4u);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{5}));
}

TEST(BoundedRing, CapacityZeroClampsToOne) {
  // A misconfigured capture degrades to "keep the last value", not UB.
  BoundedRing<int> ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(7);
  ring.push(8);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{8}));
  EXPECT_EQ(ring.dropped(), 1u);
}

TEST(BoundedRing, TinyCapacityWraparoundOldestFirst) {
  // The regression this ring was extracted for: at capacities 2 and 3
  // the snapshot must stay oldest-first through every wrap phase.
  for (std::size_t capacity : {2u, 3u}) {
    BoundedRing<int> ring(capacity);
    std::vector<int> expected;
    for (int i = 0; i < 10; ++i) {
      ring.push(i);
      expected.push_back(i);
      if (expected.size() > capacity) {
        expected.erase(expected.begin());
      }
      EXPECT_EQ(ring.snapshot(), expected)
          << "capacity " << capacity << " after push " << i;
      EXPECT_EQ(ring.size(), expected.size());
      EXPECT_EQ(ring.total(), static_cast<std::uint64_t>(i + 1));
    }
    EXPECT_EQ(ring.dropped(), 10u - capacity);
  }
}

TEST(BoundedRing, ClearResetsButKeepsCapacity) {
  BoundedRing<int> ring(2);
  ring.push(1);
  ring.push(2);
  ring.push(3);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  ring.push(9);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{9}));
}

// ---------------------------------------------------- FlightRecorder

TEST(FlightRecorder, SampleRateOneRecordsEverything) {
  FlightRecorder rec({12345u, 1.0, 64});
  FlightRecorder::Segment* seg = rec.segment("run");
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(seg->sampled(static_cast<double>(i) + 0.25, i % 3));
  }
}

TEST(FlightRecorder, SampleRateZeroRecordsNothing) {
  FlightRecorder rec({12345u, 0.0, 64});
  FlightRecorder::Segment* seg = rec.segment("run");
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(seg->sampled(static_cast<double>(i) + 0.25, i % 3));
  }
}

TEST(FlightRecorder, SamplingIsDeterministicAcrossSegmentsAndRecorders) {
  // The decision is a pure hash of (arrival, channel) against the seed
  // plane: two segments of one recorder, and segments of a second
  // recorder with the same base seed, must agree on every packet.
  FlightRecorder rec_a({987654321u, 0.5, 64});
  FlightRecorder rec_b({987654321u, 0.5, 64});
  FlightRecorder::Segment* a1 = rec_a.segment("one");
  FlightRecorder::Segment* a2 = rec_a.segment("two");
  FlightRecorder::Segment* b = rec_b.segment("other");
  std::size_t sampled = 0;
  for (int i = 0; i < 1000; ++i) {
    const double arrival = i * 1.618;
    const std::uint32_t channel = i % 4;
    const bool hit = a1->sampled(arrival, channel);
    EXPECT_EQ(a2->sampled(arrival, channel), hit);
    EXPECT_EQ(b->sampled(arrival, channel), hit);
    if (hit) ++sampled;
  }
  // Rate 0.5 over 1000 hash draws: comfortably inside [300, 700].
  EXPECT_GT(sampled, 300u);
  EXPECT_LT(sampled, 700u);
}

TEST(FlightRecorder, DifferentSeedsSampleDifferently) {
  FlightRecorder rec_a({1u, 0.5, 64});
  FlightRecorder rec_b({2u, 0.5, 64});
  FlightRecorder::Segment* a = rec_a.segment("x");
  FlightRecorder::Segment* b = rec_b.segment("x");
  std::size_t differs = 0;
  for (int i = 0; i < 1000; ++i) {
    const double arrival = i * 2.71828;
    if (a->sampled(arrival, 0) != b->sampled(arrival, 0)) ++differs;
  }
  EXPECT_GT(differs, 100u);
}

TEST(FlightRecorder, RecordCountsKindsAndDropsOldest) {
  FlightRecorder rec({7u, 1.0, 2});
  FlightRecorder::Segment* seg = rec.segment("run");
  seg->record(1.0, FlightEventKind::kArrival, 1.0, 10.0, 0);
  seg->record(2.0, FlightEventKind::kAdmit, 1.0, 9.0, 0);
  seg->record(3.0, FlightEventKind::kCollision, 1.0, 8.0, 0);
  seg->record(4.0, FlightEventKind::kSuccess, 1.0, 7.0, 0);
  EXPECT_EQ(seg->count(FlightEventKind::kArrival), 1u);
  EXPECT_EQ(seg->count(FlightEventKind::kSuccess), 1u);
  EXPECT_EQ(seg->count(FlightEventKind::kExpiry), 0u);
  EXPECT_EQ(seg->total(), 4u);
  EXPECT_EQ(seg->dropped(), 2u);
  const std::vector<FlightEvent> events = seg->events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kCollision);
  EXPECT_EQ(events[1].kind, FlightEventKind::kSuccess);
  EXPECT_DOUBLE_EQ(events[1].laxity, 7.0);
}

TEST(FlightRecorder, SegmentLookupIsStableAndConcurrentCreationSafe) {
  FlightRecorder rec({3u, 1.0, 16});
  FlightRecorder::Segment* first = rec.segment("tag");
  EXPECT_EQ(rec.segment("tag"), first);
  // Concurrent creation of distinct tags must not race (mutex-guarded);
  // run under TSan in tier-1.
  std::vector<std::thread> threads;
  std::vector<FlightRecorder::Segment*> got(8, nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&rec, &got, t] {
      got[static_cast<std::size_t>(t)] =
          rec.segment("thread" + std::to_string(t % 4));
      got[static_cast<std::size_t>(t)]->sampled(1.0, 0);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)],
              rec.segment("thread" + std::to_string(t % 4)));
  }
}

TEST(FlightRecorder, JsonExportIsTagSortedAndWellFormed) {
  FlightRecorder rec({11u, 1.0, 8});
  rec.segment("zeta")->record(1.0, FlightEventKind::kArrival, 1.0, 5.0, 0);
  rec.segment("alpha")->record(2.0, FlightEventKind::kExpiry, 1.0, 0.0, 1);
  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"format\":\"tcw-flight-v1\""), std::string::npos);
  const std::size_t alpha = json.find("\"alpha\"");
  const std::size_t zeta = json.find("\"zeta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, zeta);  // tag-sorted, deterministic export
  EXPECT_NE(json.find("\"expiry\""), std::string::npos);
}

// A full-rate capture of a window-engine run: one kSuccess per carried
// message, one kCollision per collided window slot (the window probe
// tracks one colliding packet), every counted sender discard among the
// kExpiry events, and the retained events in time order. A kArrival
// event is stamped with the arrival instant; with per-station arrival
// streams the stations are drained one after another, so those stamps
// are only ordered when `arrivals_ordered`.
void expect_capture_matches_usage(const FlightRecorder::Segment& seg,
                                  const net::SimMetrics& m,
                                  bool arrivals_ordered) {
  EXPECT_EQ(seg.count(FlightEventKind::kSuccess), m.usage.messages_carried());
  EXPECT_EQ(seg.count(FlightEventKind::kCollision),
            static_cast<std::uint64_t>(m.usage.collision_slots()));
  EXPECT_GE(seg.count(FlightEventKind::kExpiry), m.lost_sender);
  EXPECT_GT(m.usage.collision_slots(), 0.0);
  EXPECT_GT(m.lost_sender, 0u);
  EXPECT_EQ(seg.dropped(), 0u);
  const std::vector<FlightEvent> events = seg.events();
  ASSERT_FALSE(events.empty());
  double last = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!arrivals_ordered && events[i].kind == FlightEventKind::kArrival) {
      continue;
    }
    EXPECT_GE(events[i].time, last) << "event " << i;
    last = events[i].time;
  }
}

TEST(FlightRecorder, AggregateWindowCaptureCountsMatchUsage) {
  FlightRecorder rec({20261983u, 1.0, 1u << 18});
  FlightRecorder::Segment* seg = rec.segment("aggregate");
  net::AggregateConfig cfg;
  cfg.policy = core::ControlPolicy::optimal(50.0, 54.0);
  cfg.message_length = 25.0;
  cfg.t_end = 20000.0;
  cfg.warmup = 1000.0;
  cfg.capture.flight = seg;
  net::AggregateSimulator sim(cfg,
                              std::make_unique<chan::PoissonProcess>(0.025));
  expect_capture_matches_usage(*seg, sim.run(), /*arrivals_ordered=*/true);
}

TEST(FlightRecorder, NetworkWindowCaptureCountsMatchUsage) {
  FlightRecorder rec({20261983u, 1.0, 1u << 18});
  FlightRecorder::Segment* seg = rec.segment("network");
  net::NetworkConfig cfg;
  cfg.policy = core::ControlPolicy::optimal(60.0, 50.0);
  cfg.message_length = 25.0;
  cfg.t_end = 10000.0;
  cfg.warmup = 500.0;
  cfg.capture.flight = seg;
  auto network = net::Network::homogeneous_poisson(cfg, 4, 0.02);
  expect_capture_matches_usage(*seg, network.run(),
                               /*arrivals_ordered=*/false);
}

}  // namespace
}  // namespace tcw
