// Distributed sweep execution: lease claim/reclaim semantics, the shared
// segmented ShardCache, and the worker/merge drivers producing CSVs
// byte-identical to a single-process run -- including after a worker
// "crash" (abandoned leases + torn segment).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/dist_gate.hpp"
#include "exec/dist_lease.hpp"
#include "exec/shard_cache.hpp"
#include "exec/sweep_scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "study.hpp"
#include "study_dist.hpp"

namespace {

namespace exec = tcw::exec;
namespace bench = tcw::bench;
namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Fresh scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The fast embedding configuration test_study also uses: 9 jobs total.
const std::vector<std::string> kWindowArgs{"--t-end=3000", "--reps=1"};

TEST(DistLease, ClaimReleaseContention) {
  const std::string dir = scratch_dir("lease_basic");
  exec::LeaseManager a({dir, "worker-a", 60.0, 0.0});
  exec::LeaseManager b({dir, "worker-b", 60.0, 0.0});
  const exec::ShardKey key{0x1234u, 0x5678u};

  EXPECT_TRUE(a.try_claim(key));
  EXPECT_EQ(a.held(), 1u);
  EXPECT_FALSE(b.try_claim(key));  // live lease: contention, no reclaim
  EXPECT_EQ(b.contended(), 1u);
  EXPECT_EQ(b.reclaimed(), 0u);

  a.release(key);
  EXPECT_EQ(a.held(), 0u);
  EXPECT_TRUE(b.try_claim(key));
  b.release(key);
  EXPECT_EQ(exec::count_live_leases(dir, 60.0), 0u);
}

TEST(DistLease, DestructorReleasesHeldLeases) {
  const std::string dir = scratch_dir("lease_dtor");
  const exec::ShardKey key{1u, 2u};
  {
    exec::LeaseManager a({dir, "worker-a", 60.0, 0.0});
    EXPECT_TRUE(a.try_claim(key));
    EXPECT_EQ(exec::count_live_leases(dir, 60.0), 1u);
  }
  // Clean shutdown must not leave a lease for others to wait out.
  EXPECT_EQ(exec::count_live_leases(dir, 60.0), 0u);
}

TEST(DistLease, StaleLeaseReclaim) {
  const std::string dir = scratch_dir("lease_stale");
  const exec::ShardKey key{42u, 43u};
  exec::LeaseManager dead({dir, "dead", 0.05, 0.0});
  EXPECT_TRUE(dead.try_claim(key));
  dead.abandon_for_test();  // simulate SIGKILL: the lease file stays
  EXPECT_EQ(exec::count_live_leases(dir, 60.0), 1u);

  exec::LeaseManager b({dir, "worker-b", 0.05, 0.0});
  sleep_seconds(0.15);  // let the lease age past stale_seconds
  EXPECT_TRUE(b.try_claim(key));
  EXPECT_EQ(b.reclaimed(), 1u);
  EXPECT_EQ(b.held(), 1u);
  b.release(key);
}

TEST(DistLease, HeartbeatKeepsLeaseFresh) {
  // Staleness is staged by backdating the lease mtime two minutes, far
  // past the peer's 60 s window, so no assertion depends on how promptly
  // the heartbeat thread gets scheduled.
  const std::string dir = scratch_dir("lease_beat");
  const exec::ShardKey key{7u, 8u};
  exec::LeaseManager a({dir, "worker-a", 60.0, 0.05});
  EXPECT_TRUE(a.try_claim(key));
  const std::string path = a.lease_path(key);
  const auto backdate = [&path] {
    fs::last_write_time(path, fs::file_time_type::clock::now() -
                                  std::chrono::seconds(120));
    return fs::last_write_time(path);
  };
  const fs::file_time_type stale_mtime = backdate();
  a.start_heartbeat();
  // The shard is taking long, but heartbeats keep refreshing the mtime.
  // Poll with a generous deadline so a starved heartbeat thread (loaded
  // host, sanitizer build) only slows the test down.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fs::last_write_time(path) <= stale_mtime &&
         std::chrono::steady_clock::now() < deadline) {
    sleep_seconds(0.01);
  }
  ASSERT_GT(fs::last_write_time(path), stale_mtime)
      << "heartbeat never refreshed the lease";
  // A peer that treats 60 s as stale must NOT reclaim the refreshed lease.
  exec::LeaseManager b({dir, "worker-b", 60.0, 0.0});
  EXPECT_FALSE(b.try_claim(key));
  EXPECT_EQ(b.reclaimed(), 0u);
  a.stop_heartbeat();
  backdate();  // without heartbeats it really goes stale
  EXPECT_TRUE(b.try_claim(key));
  EXPECT_EQ(b.reclaimed(), 1u);
  a.abandon_for_test();  // b owns the lease file now; a must not unlink it
  b.release(key);
}

TEST(DistGate, EveryKeyHasExactlyOneHomeWorker) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    const exec::ShardKey key{0x9E3779B97F4A7C15ULL * (i + 1), i * 31 + 7};
    for (unsigned total : {1u, 2u, 4u, 7u}) {
      unsigned homes = 0;
      for (unsigned idx = 0; idx < total; ++idx) {
        if (exec::DistWorkerGate::is_home(key, idx, total)) ++homes;
      }
      EXPECT_EQ(homes, 1u) << "key " << i << " total " << total;
    }
  }
}

TEST(SharedStore, SegmentsMergeAcrossWriters) {
  const std::string store = scratch_dir("shared_seg") + "/study.shards";
  const exec::ShardKey k1{1u, 10u};
  const exec::ShardKey k2{2u, 10u};

  exec::ShardCache a(store, exec::ShardCache::SharedOptions{"a"});
  exec::ShardCache b(store, exec::ShardCache::SharedOptions{"b"});
  a.insert(k1, {1.5, 2.5});
  b.insert(k2, {3.5});

  // b picks up a's append via rescan (and not its own records twice).
  EXPECT_FALSE(b.contains(k1));
  EXPECT_EQ(b.rescan(), 1u);
  EXPECT_TRUE(b.contains(k1));
  EXPECT_TRUE(b.contains(k2));

  // A third reader sees both writers' segments at open.
  exec::ShardCache c(store, exec::ShardCache::SharedOptions{"c"});
  EXPECT_EQ(c.entries(), 2u);
  std::vector<double> payload;
  EXPECT_TRUE(c.lookup(k1, &payload));
  EXPECT_EQ(payload, (std::vector<double>{1.5, 2.5}));
}

TEST(SharedStore, TornTailIsRetriedNotCorrupt) {
  const std::string dir = scratch_dir("shared_torn");
  const std::string store = dir + "/study.shards";
  exec::ShardCache a(store, exec::ShardCache::SharedOptions{"a"});
  a.insert({1u, 9u}, {1.0});
  a.insert({2u, 9u}, {2.0});

  // Find a's segment and chop off the last 8 bytes: a torn tail exactly
  // as a killed writer would leave it.
  std::string seg;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().string().find(".w-a") != std::string::npos) {
      seg = e.path().string();
    }
  }
  ASSERT_FALSE(seg.empty());
  const std::string bytes = slurp(seg);
  fs::resize_file(seg, bytes.size() - 8);

  exec::ShardCache b(store, exec::ShardCache::SharedOptions{"b"});
  EXPECT_TRUE(b.contains({1u, 9u}));   // intact prefix kept
  EXPECT_FALSE(b.contains({2u, 9u}));  // torn record not consumed
  EXPECT_EQ(b.corrupt_segments(), 0u);  // torn != corrupt: may still grow
}

TEST(SharedStore, PerSegmentCorruptionKeepsOtherSegments) {
  const std::string dir = scratch_dir("shared_corrupt");
  const std::string store = dir + "/study.shards";
  exec::ShardCache a(store, exec::ShardCache::SharedOptions{"a"});
  exec::ShardCache b(store, exec::ShardCache::SharedOptions{"b"});
  a.insert({1u, 5u}, {1.0});
  a.insert({2u, 5u}, {2.0});
  b.insert({3u, 5u}, {3.0});

  // Flip a byte inside a's SECOND record: complete record, bad checksum.
  std::string seg;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().string().find(".w-a") != std::string::npos) {
      seg = e.path().string();
    }
  }
  ASSERT_FALSE(seg.empty());
  std::string bytes = slurp(seg);
  bytes[bytes.size() - 12] ^= 0x5A;
  {
    std::ofstream out(seg, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  exec::ShardCache c(store, exec::ShardCache::SharedOptions{"c"});
  EXPECT_TRUE(c.contains({1u, 5u}));   // valid prefix of the bad segment
  EXPECT_FALSE(c.contains({2u, 5u}));  // corrupt record dropped
  EXPECT_TRUE(c.contains({3u, 5u}));   // other segments unaffected
  EXPECT_EQ(c.corrupt_segments(), 1u);

  // Merge-time compaction folds the surviving records into the base
  // store and removes every segment file.
  EXPECT_TRUE(c.compact_shared());
  exec::ShardCache d(store, exec::ShardCache::SharedOptions{"d"});
  EXPECT_EQ(d.entries(), 2u);
  EXPECT_EQ(d.corrupt_segments(), 0u);
  std::size_t segment_files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().string().find(".seg") != std::string::npos) ++segment_files;
  }
  EXPECT_EQ(segment_files, 0u);
}

TEST(SharedStore, LegacySingleProcessModeUnchanged) {
  // The shared mode must not leak into the legacy resume path: a plain
  // Resume cache still compacts its own store at open.
  const std::string store = scratch_dir("shared_legacy") + "/solo.shards";
  {
    exec::ShardCache cache(store, exec::ShardCache::Mode::Fresh);
    cache.insert({1u, 1u}, {1.0});
    EXPECT_FALSE(cache.shared());
    EXPECT_EQ(cache.rescan(), 0u);  // no-op outside shared mode
    EXPECT_FALSE(cache.compact_shared());
  }
  exec::ShardCache cache(store, exec::ShardCache::Mode::Resume);
  EXPECT_EQ(cache.loaded(), 1u);
}

/// Reference CSV: the ordinary single-process run.
std::string single_process_csv(const std::string& study,
                               const std::string& dir,
                               const std::vector<std::string>& extra) {
  const std::string csv = dir + "/single.csv";
  bench::StudyCommonOptions common;
  common.threads = 1;
  common.csv = csv;
  EXPECT_EQ(bench::run_study(study, common, extra), 0);
  return slurp(csv);
}

TEST(DistExec, PartitionedWorkersThenMergeByteIdentical) {
  const std::string dir = scratch_dir("dist_partition");
  const std::string reference =
      single_process_csv("ablation_window_size", dir, kWindowArgs);

  bench::StudyCommonOptions common;
  common.threads = 2;
  common.cache_dir = dir + "/cache";
  bench::DistOptions dist;
  dist.total = 2;
  dist.steal = false;
  dist.heartbeat_seconds = 0;
  for (unsigned idx : {0u, 1u}) {
    dist.index = idx;
    dist.worker_id = "w" + std::to_string(idx);
    EXPECT_EQ(bench::run_study_workers(common, dist,
                                       {"ablation_window_size"}, kWindowArgs),
              0);
    EXPECT_TRUE(fs::exists(common.cache_dir + "/workers/w" +
                           std::to_string(idx) + ".json"));
  }

  bench::StudyCommonOptions merge_common;
  merge_common.threads = 1;
  merge_common.cache_dir = common.cache_dir;
  merge_common.csv = dir + "/merged.csv";
  bench::DistOptions merge_dist;
  EXPECT_EQ(bench::run_study_merge(merge_common, merge_dist,
                                   {"ablation_window_size"}, kWindowArgs),
            0);
  EXPECT_EQ(slurp(dir + "/merged.csv"), reference);
  // Compaction ran: segments folded into the base store.
  EXPECT_TRUE(fs::exists(common.cache_dir + "/ablation_window_size.shards"));
  for (const auto& e : fs::directory_iterator(common.cache_dir)) {
    EXPECT_EQ(e.path().string().find(".seg"), std::string::npos)
        << e.path().string();
  }
}

TEST(DistExec, MergeRefusesWhileShardsMissing) {
  const std::string dir = scratch_dir("dist_missing");
  bench::StudyCommonOptions common;
  common.threads = 1;
  common.cache_dir = dir + "/cache";
  bench::DistOptions dist;
  dist.total = 2;  // only worker 0 runs; worker 1's partition is missing
  dist.index = 0;
  dist.steal = false;
  dist.worker_id = "w0";
  dist.heartbeat_seconds = 0;
  EXPECT_EQ(bench::run_study_workers(common, dist, {"ablation_window_size"},
                                     kWindowArgs),
            0);

  bench::StudyCommonOptions merge_common;
  merge_common.cache_dir = common.cache_dir;
  merge_common.csv = dir + "/merged.csv";
  EXPECT_EQ(bench::run_study_merge(merge_common, bench::DistOptions{},
                                   {"ablation_window_size"}, kWindowArgs),
            1);
  EXPECT_FALSE(fs::exists(dir + "/merged.csv"));
}

TEST(DistExec, CrashedWorkerLeasesReclaimedMergeByteIdentical) {
  const std::string dir = scratch_dir("dist_crash");
  const std::string study = "ablation_window_size";
  const std::string reference = single_process_csv(study, dir, kWindowArgs);
  const std::string cache_dir = dir + "/cache";

  // Enumerate the shard universe exactly as a worker would (shared cache
  // + gate), without running anything.
  std::vector<exec::ShardKey> universe;
  {
    exec::ThreadPool pool(1);
    exec::SweepScheduler scheduler(pool);
    exec::ShardCache cache(bench::study_store_path(cache_dir, study),
                           exec::ShardCache::SharedOptions{"probe"});
    exec::CoverageGate gate;
    const bench::StudyEntry* entry = bench::find_study(study);
    ASSERT_NE(entry, nullptr);
    auto instance = entry->make();
    {
      tcw::Flags flags(study, "probe");
      instance->register_flags(flags);
      std::vector<const char*> argv{study.c_str()};
      for (const std::string& a : kWindowArgs) argv.push_back(a.c_str());
      ASSERT_TRUE(
          flags.parse(static_cast<int>(argv.size()), argv.data()));
    }
    bench::StudyCommonOptions probe_common;
    bench::StudyContext ctx(entry->spec, probe_common, scheduler, &cache);
    ctx.set_gate(&gate);
    instance->schedule(ctx);
    universe = gate.universe();
  }
  ASSERT_GE(universe.size(), 4u);

  // Simulate a worker killed mid-run: it held leases on two shards (never
  // released, files left behind) and left a torn half-record segment.
  {
    exec::LeaseManager dead({cache_dir + "/leases", "dead", 60.0, 0.0});
    ASSERT_TRUE(dead.try_claim(universe[0]));
    ASSERT_TRUE(dead.try_claim(universe[1]));
    dead.abandon_for_test();
  }
  {
    const std::string seg =
        bench::study_store_path(cache_dir, study) + ".w-dead-p0.seg";
    std::FILE* f = std::fopen(seg.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char torn[] = "TCWSHC1\n\x01\x02\x03";  // header + partial record
    std::fwrite(torn, 1, sizeof torn - 1, f);
    std::fclose(f);
  }
  ASSERT_EQ(exec::count_live_leases(cache_dir + "/leases", 60.0), 2u);

  sleep_seconds(0.15);  // let the dead worker's leases go stale

  bench::StudyCommonOptions common;
  common.threads = 2;
  common.cache_dir = cache_dir;
  bench::DistOptions dist;  // drain: partition 0/1, steal everything
  dist.worker_id = "restarted";
  dist.stale_seconds = 0.1;
  dist.heartbeat_seconds = 0;
  EXPECT_EQ(bench::run_study_workers(common, dist, {study}, kWindowArgs), 0);

  // The restarted worker must have reclaimed both abandoned leases.
  const std::string sidecar =
      slurp(cache_dir + "/workers/restarted.json");
  EXPECT_NE(sidecar.find("\"reclaimed\":2"), std::string::npos) << sidecar;

  bench::StudyCommonOptions merge_common;
  merge_common.cache_dir = cache_dir;
  merge_common.csv = dir + "/merged.csv";
  bench::DistOptions merge_dist;
  merge_dist.stale_seconds = 0.1;
  EXPECT_EQ(
      bench::run_study_merge(merge_common, merge_dist, {study}, kWindowArgs),
      0);
  EXPECT_EQ(slurp(dir + "/merged.csv"), reference);
  // Merge swept the stale leases away with the segments.
  EXPECT_EQ(exec::count_live_leases(cache_dir + "/leases", 1e9), 0u);
}

/// Parse the flat {"name":count,...} object that follows `marker` in
/// `text` (worker sidecar "registry" / merge manifest "merged_registry").
std::map<std::string, std::uint64_t> parse_counter_object(
    const std::string& text, const std::string& marker) {
  std::map<std::string, std::uint64_t> out;
  std::size_t at = text.find(marker);
  EXPECT_NE(at, std::string::npos) << marker;
  if (at == std::string::npos) return out;
  std::size_t i = text.find('{', at + marker.size());
  EXPECT_NE(i, std::string::npos);
  ++i;
  while (i < text.size() && text[i] != '}') {
    const std::size_t q0 = text.find('"', i);
    const std::size_t q1 = text.find('"', q0 + 1);
    const std::size_t colon = text.find(':', q1 + 1);
    if (q0 == std::string::npos || q1 == std::string::npos ||
        colon == std::string::npos) {
      ADD_FAILURE() << "malformed counter object after " << marker;
      break;
    }
    const std::string name = text.substr(q0 + 1, q1 - q0 - 1);
    out[name] = std::strtoull(text.c_str() + colon + 1, nullptr, 10);
    const std::size_t next = text.find_first_of(",}", colon + 1);
    if (next == std::string::npos) break;
    i = text[next] == ',' ? next + 1 : next;
  }
  return out;
}

TEST(DistExec, MergedRegistryEqualsSidecarSums) {
  const std::string dir = scratch_dir("dist_registry");
  const std::string study = "ablation_window_size";
  const std::string cache_dir = dir + "/cache";

  // Two partitioned workers, each leaving a sidecar with its registry
  // delta (counters its shards incremented, baseline-subtracted so
  // in-process test runs don't bleed into each other).
  std::map<std::string, std::uint64_t> expected;
  for (unsigned idx : {0u, 1u}) {
    bench::StudyCommonOptions common;
    common.threads = 2;
    common.cache_dir = cache_dir;
    bench::DistOptions dist;
    dist.index = idx;
    dist.total = 2;
    dist.steal = false;
    dist.worker_id = "rw" + std::to_string(idx);
    dist.heartbeat_seconds = 0;
    ASSERT_EQ(bench::run_study_workers(common, dist, {study}, kWindowArgs),
              0);
    const std::string sidecar =
        slurp(cache_dir + "/workers/rw" + std::to_string(idx) + ".json");
    for (const auto& [name, value] :
         parse_counter_object(sidecar, "\"registry\":")) {
      expected[name] += value;
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_GT(expected["net.aggregate.probe_slots"], 0u);

  // The merge manifest's merged_registry must equal the sidecar sums
  // exactly -- the cluster-wide totals are a pure fold of the deltas.
  bench::StudyCommonOptions merge_common;
  merge_common.cache_dir = cache_dir;
  merge_common.csv = dir + "/merged.csv";
  merge_common.obs.manifest_out = dir + "/manifest.json";
  ASSERT_EQ(bench::run_study_merge(merge_common, bench::DistOptions{},
                                   {study}, kWindowArgs),
            0);
  const std::map<std::string, std::uint64_t> merged = parse_counter_object(
      slurp(dir + "/manifest.json"), "\"merged_registry\":");
  EXPECT_EQ(merged, expected);
}

TEST(DistExec, ConcurrentWorkersMergeByteIdentical) {
  const std::string dir = scratch_dir("dist_concurrent");
  const std::string study = "ablation_window_size";
  const std::string reference = single_process_csv(study, dir, kWindowArgs);
  const std::string cache_dir = dir + "/cache";

  // Two workers of a 2-partition fleet running in the same wall-clock
  // window (exercises lease contention + segment interleaving under
  // TSan). Stealing on, so either may finish the other's partition.
  auto worker = [&](unsigned idx) {
    bench::StudyCommonOptions common;
    common.threads = 2;
    common.cache_dir = cache_dir;
    bench::DistOptions dist;
    dist.index = idx;
    dist.total = 2;
    dist.worker_id = "cw" + std::to_string(idx);
    dist.stale_seconds = 60.0;
    dist.heartbeat_seconds = 0.05;
    EXPECT_EQ(bench::run_study_workers(common, dist, {study}, kWindowArgs),
              0);
  };
  std::thread t0(worker, 0u);
  std::thread t1(worker, 1u);
  t0.join();
  t1.join();

  bench::StudyCommonOptions merge_common;
  merge_common.cache_dir = cache_dir;
  merge_common.csv = dir + "/merged.csv";
  EXPECT_EQ(bench::run_study_merge(merge_common, bench::DistOptions{},
                                   {study}, kWindowArgs),
            0);
  EXPECT_EQ(slurp(dir + "/merged.csv"), reference);
}

}  // namespace
