#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using tcw::exec::resolve_threads;
using tcw::exec::ThreadPool;

TEST(ResolveThreads, LiteralWhenPositive) {
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ResolveThreads, ZeroAndNegativeMeanHardware) {
  const unsigned hw = resolve_threads(0);
  EXPECT_GE(hw, 1u);
  EXPECT_EQ(resolve_threads(-3), hw);
}

TEST(ThreadPool, RunsEverySubmittedJobOnce) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitWithZeroJobsReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, WaitRethrowsFirstJobException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error is consumed: pool stays usable afterwards.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, JobsCanSubmitMoreJobsRecursively) {
  // Scheduler runners fan work out from inside pool jobs; the queue must
  // accept submissions from worker threads without deadlocking wait().
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::function<void(int)> job = [&pool, &count, &job](int depth) {
    count.fetch_add(1);
    if (depth < 6) {
      pool.submit([&job, depth] { job(depth + 1); });
      pool.submit([&job, depth] { job(depth + 1); });
    }
  };
  pool.submit([&job] { job(0); });
  pool.wait();
  // Full binary tree of depth 6: 2^7 - 1 jobs.
  EXPECT_EQ(count.load(), 127);
}

TEST(ThreadPool, WaitRethrowsExactlyOneOfManyConcurrentExceptions) {
  // Four jobs rendezvous so they are all in flight, then all throw at
  // once; wait() must surface exactly one of them and swallow none
  // silently (the rest are intentionally dropped as later errors).
  ThreadPool pool(4);
  std::atomic<int> ready{0};
  for (int i = 0; i < 4; ++i) {
    pool.submit([&ready, i] {
      ready.fetch_add(1);
      while (ready.load() < 4) std::this_thread::yield();
      throw std::runtime_error("concurrent " + std::to_string(i));
    });
  }
  try {
    pool.wait();
    FAIL() << "wait() should have rethrown a job exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("concurrent ", 0), 0u)
        << e.what();
  }
  // The single captured error was consumed; a second wait is clean.
  EXPECT_NO_THROW(pool.wait());
}

TEST(ThreadPool, DestructorLogsUnobservedJobException) {
  testing::internal::CaptureStderr();
  {
    ThreadPool pool(2);
    // Deliberately no wait(): destruction drains the queue, so the
    // throwing job still runs and its error is captured, then dropped.
    pool.submit([] { throw std::runtime_error("never observed"); });
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("pending job exception"), std::string::npos) << err;
}

TEST(ThreadPool, CleanDestructionLogsNothing) {
  testing::internal::CaptureStderr();
  {
    ThreadPool pool(2);
    pool.submit([] {});
    pool.wait();
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(ThreadPool, SingleWorkerStillDrainsQueue) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.wait();
  // One worker executes in submission order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
