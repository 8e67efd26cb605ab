// A work-stealing thread pool used by devices and the dataflow executor to
// run kernels in parallel (paper §5: "dispatches kernels to local devices
// and runs kernels in parallel when possible").
//
// Each worker owns a private task deque; Schedule from a worker thread
// pushes onto that worker's own queue, Schedule from outside round-robins
// across queues. Workers pop their own queue FIFO and steal from the back
// of other queues when empty, so a wide fan-out (the executor scheduling
// many newly-ready nodes) no longer serializes on one mutex
// (DESIGN.md §9).

#ifndef TFREPRO_CORE_THREADPOOL_H_
#define TFREPRO_CORE_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"

namespace tfrepro {

class ThreadPool {
 public:
  ThreadPool(const std::string& name, int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn` for asynchronous execution.
  //
  // Shutdown semantics: once the destructor has begun, Schedule runs `fn`
  // inline on the calling thread (counted by the
  // threadpool.scheduled_after_shutdown metric) instead of enqueueing work
  // no worker will ever run. Running inline keeps the step making forward
  // progress and keeps WaitIdle callers from hanging on a silently dropped
  // task; the only schedulers still alive during shutdown are tasks of this
  // pool draining their last steps, which are already asynchronous.
  void Schedule(std::function<void()> fn);

  // Enqueues a batch with a single wake-up pass: tasks are spread across
  // worker queues and sleeping workers are woken once (one notify for a
  // single task, a broadcast for more), instead of one lock + notify per
  // task. Used by the executor when a node completion readies several
  // successors at once.
  void ScheduleBatch(std::vector<std::function<void()>> fns);

  // Runs fn(begin, end) once for each shard [begin, end) of [0, total): the
  // shards are consecutive and `shard_size` long, the last possibly shorter.
  // The caller claims and runs shards itself while up to num_threads() - 1
  // helper tasks claim the rest, and it returns once every shard has
  // finished. It waits only for shards another thread has already started,
  // never for a queued task, so a call from a worker while every other
  // worker is busy (or while the pool shuts down) still completes. With one
  // thread or one shard everything runs inline. Intra-op parallelism for
  // kernels (DESIGN.md §15).
  void ParallelFor(int64_t total, int64_t shard_size,
                   const std::function<void(int64_t, int64_t)>& fn);

  int num_threads() const { return static_cast<int>(threads_.size()); }

  // True once the destructor has started; schedules observed after this run
  // inline on the caller.
  bool IsShuttingDown() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  // Blocks until the queue is empty and all workers are idle. Intended for
  // tests; regular shutdown happens in the destructor.
  void WaitIdle();

 private:
  struct Task {
    std::function<void()> fn;
    int64_t enqueue_micros = 0;
  };

  // One worker's private deque. Its mutex is uncontended except when a
  // thief probes the queue, so pushes/pops are near-free compared to the
  // old single shared queue.
  struct Worker {
    std::mutex mu;
    std::deque<Task> q;
  };

  void WorkerLoop(int index);
  // Pops from this worker's own queue (front: FIFO in program order).
  bool PopOwn(int index, Task* task);
  // Steals from the back of another worker's queue, scanning from
  // index + 1 so thieves spread out.
  bool Steal(int index, Task* task);
  void PushTask(int queue_index, Task task);
  void RunTask(Task task);
  void WakeWorkers(int64_t num_new_tasks);
  // Stamps sampled tasks and batches the task counter (see kSampleEvery).
  void SampleOnSchedule(Task* task);

  // Registry instruments tagged {"pool", name}. Wait time and queue depth
  // are sampled (1 task in kSampleEvery) — per-task clock reads and shared
  // histogram updates are too hot for the executor's fan-out path.
  static constexpr int64_t kSampleEvery = 64;  // power of two
  metrics::Counter* tasks_metric_;
  metrics::Counter* after_shutdown_metric_;
  metrics::Gauge* queue_depth_metric_;
  metrics::Histogram* task_wait_ms_metric_;
  // Enqueue→steal latency of sampled tasks that were executed by a thief
  // rather than their home worker; with the wakeup-batch gauge below, the
  // instrument for tuning batched-wakeup fan-out (ROADMAP follow-on).
  metrics::Histogram* steal_latency_us_metric_;
  // Size of the last Schedule/ScheduleBatch that actually woke sleepers.
  metrics::Gauge* wakeup_batch_metric_;
  std::atomic<int64_t> sample_counter_{0};
  std::atomic<int64_t> tasks_unflushed_{0};

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Tasks enqueued but not yet popped / threads running a task. active_ is
  // raised before pending_ drops at pop time, so the pool never looks idle
  // while a task is in flight.
  std::atomic<int64_t> pending_{0};
  std::atomic<int64_t> active_{0};
  std::atomic<int64_t> next_queue_{0};  // round-robin for external pushes
  std::atomic<bool> shutdown_{false};

  // wake_mu_ only guards the sleep/wake handshake (condition variables and
  // the sleeper count); it is never held while pushing or popping tasks.
  // Schedule takes it only when a worker is actually asleep.
  std::mutex wake_mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::atomic<int> sleepers_{0};
};

}  // namespace tfrepro

#endif  // TFREPRO_CORE_THREADPOOL_H_
