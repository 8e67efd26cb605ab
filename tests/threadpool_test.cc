// Tests for the work-stealing ThreadPool (DESIGN.md §9): completion of
// plain and batched schedules, cross-worker stealing, WaitIdle semantics,
// the defined Schedule-during-shutdown behavior (run inline on the
// caller, counted by threadpool.scheduled_after_shutdown), and ParallelFor
// (DESIGN.md §15): exactly-once shards that never wait on a queued task.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/threadpool.h"

namespace tfrepro {
namespace {

TEST(ThreadPoolTest, RunsAllScheduledTasks) {
  constexpr int kTasks = 1000;
  std::atomic<int> ran{0};
  {
    ThreadPool pool("tp_all", 4);
    for (int i = 0; i < kTasks; ++i) {
      pool.Schedule([&ran]() { ran.fetch_add(1); });
    }
    pool.WaitIdle();
    EXPECT_EQ(ran.load(), kTasks);
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, ScheduleBatchRunsEveryTask) {
  constexpr int kTasks = 257;  // not a multiple of the worker count
  std::atomic<int> ran{0};
  ThreadPool pool("tp_batch", 4);
  std::vector<std::function<void()>> batch;
  for (int i = 0; i < kTasks; ++i) {
    batch.push_back([&ran]() { ran.fetch_add(1); });
  }
  pool.ScheduleBatch(std::move(batch));
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), kTasks);
  pool.ScheduleBatch({});  // empty batch is a no-op, not a crash
  pool.WaitIdle();
}

TEST(ThreadPoolTest, TasksScheduledFromOneWorkerAreStolen) {
  // All tasks are pushed from a single worker thread, so they land on that
  // worker's own queue; the only way another thread runs one is by
  // stealing. The tasks sleep so one worker cannot drain the queue alone
  // before the others wake.
  constexpr int kTasks = 64;
  ThreadPool pool("tp_steal", 4);
  std::mutex mu;
  std::set<std::thread::id> runners;
  std::atomic<int> ran{0};
  pool.Schedule([&]() {
    for (int i = 0; i < kTasks; ++i) {
      pool.Schedule([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        {
          std::lock_guard<std::mutex> lock(mu);
          runners.insert(std::this_thread::get_id());
        }
        ran.fetch_add(1);
      });
    }
  });
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), kTasks);
  // With 4 workers and 64ms of serial sleep, at least one task must have
  // been stolen off the scheduling worker's queue.
  EXPECT_GE(runners.size(), 2u);
}

TEST(ThreadPoolTest, WaitIdleWaitsForInFlightTasks) {
  ThreadPool pool("tp_idle", 2);
  std::atomic<bool> finished{false};
  pool.Schedule([&finished]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    finished.store(true);
  });
  pool.WaitIdle();
  EXPECT_TRUE(finished.load());
}

TEST(ThreadPoolTest, ScheduleAfterShutdownRunsInlineOnCaller) {
  metrics::Counter* after_shutdown = metrics::Registry::Global()->GetCounter(
      "threadpool.scheduled_after_shutdown", {{"pool", "tp_shut"}});
  int64_t before = after_shutdown->value();

  std::atomic<bool> inline_ran{false};
  std::atomic<bool> observed_shutdown{false};
  std::thread::id worker_tid;
  std::thread::id inline_tid;
  {
    ThreadPool pool("tp_shut", 2);
    std::atomic<bool> entered{false};
    pool.Schedule([&]() {
      worker_tid = std::this_thread::get_id();
      entered.store(true);
      // Hold this worker until the destructor begins, then schedule: the
      // pool must run the task inline on this thread rather than enqueue
      // work no worker will ever pop (or drop it silently).
      while (!pool.IsShuttingDown()) std::this_thread::yield();
      observed_shutdown.store(true);
      pool.Schedule([&]() {
        inline_tid = std::this_thread::get_id();
        inline_ran.store(true);
      });
    });
    while (!entered.load()) std::this_thread::yield();
    // Destructor runs here while the worker task is still spinning.
  }
  EXPECT_TRUE(observed_shutdown.load());
  EXPECT_TRUE(inline_ran.load());
  EXPECT_EQ(inline_tid, worker_tid);
  EXPECT_GE(after_shutdown->value(), before + 1);
}

TEST(ThreadPoolTest, DestructorDrainsStragglerTasks) {
  // Tasks still queued when the destructor runs are executed (inline by the
  // destructor), never dropped: a scheduled task always runs exactly once.
  constexpr int kRounds = 20;
  constexpr int kTasks = 64;
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool("tp_drain", 2);
      for (int i = 0; i < kTasks; ++i) {
        pool.Schedule([&ran]() { ran.fetch_add(1); });
      }
      // No WaitIdle: destruction races the workers.
    }
    EXPECT_EQ(ran.load(), kTasks) << "round " << round;
  }
}

// Runs ParallelFor over [0, total) and returns how often each index ran.
std::vector<int> ParallelForHits(ThreadPool* pool, int64_t total,
                                 int64_t shard_size) {
  std::vector<std::atomic<int>> hits(total);
  pool->ParallelFor(total, shard_size, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  std::vector<int> out;
  for (std::atomic<int>& h : hits) out.push_back(h.load());
  return out;
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool("tp_pfor", 4);
  for (int64_t total : {0, 1, 7, 64, 1000}) {
    for (int64_t shard : {1, 3, 64, 5000}) {
      EXPECT_EQ(ParallelForHits(&pool, total, shard),
                std::vector<int>(total, 1))
          << "total " << total << " shard " << shard;
    }
  }
}

TEST(ThreadPoolTest, ParallelForOnOneThreadPoolRunsInline) {
  ThreadPool pool("tp_pfor_one", 1);
  std::set<std::thread::id> runners;
  pool.ParallelFor(100, 10, [&](int64_t, int64_t) {
    runners.insert(std::this_thread::get_id());  // inline: no lock needed
  });
  EXPECT_EQ(runners, std::set<std::thread::id>{std::this_thread::get_id()});
  EXPECT_EQ(ParallelForHits(&pool, 100, 7), std::vector<int>(100, 1));
}

TEST(ThreadPoolTest, ParallelForFromTaskCompletesWhileOtherWorkersBlocked) {
  // Three of four workers are parked on a latch that opens only after the
  // ParallelFor returns, so its helper tasks cannot run: the calling worker
  // must run every shard itself instead of waiting for them.
  constexpr int kWorkers = 4;
  ThreadPool pool("tp_pfor_busy", kWorkers);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  int parked = 0;
  for (int i = 0; i < kWorkers - 1; ++i) {
    pool.Schedule([&]() {
      std::unique_lock<std::mutex> lock(mu);
      ++parked;
      cv.notify_all();
      cv.wait(lock, [&]() { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return parked == kWorkers - 1; });
  }
  std::atomic<bool> finished{false};
  std::vector<int> hits;
  pool.Schedule([&]() {
    hits = ParallelForHits(&pool, 64, 4);
    finished.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!finished.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(finished.load()) << "ParallelFor waited on a queued helper";
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.WaitIdle();
  EXPECT_EQ(hits, std::vector<int>(64, 1));
}

TEST(ThreadPoolTest, ParallelForDuringShutdownCompletes) {
  // Called from a task while the destructor is joining the workers: the
  // helpers run inline (Schedule-after-shutdown), and every index still
  // runs exactly once before the destructor can finish.
  std::vector<int> hits;
  {
    ThreadPool pool("tp_pfor_shut", 2);
    std::atomic<bool> entered{false};
    pool.Schedule([&]() {
      entered.store(true);
      while (!pool.IsShuttingDown()) std::this_thread::yield();
      hits = ParallelForHits(&pool, 100, 10);
    });
    while (!entered.load()) std::this_thread::yield();
  }
  EXPECT_EQ(hits, std::vector<int>(100, 1));
}

}  // namespace
}  // namespace tfrepro
