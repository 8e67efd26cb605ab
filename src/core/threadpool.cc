#include "core/threadpool.h"

#include <algorithm>
#include <cassert>

namespace tfrepro {

namespace {

// Identifies the pool (and worker slot) the current thread belongs to, so
// Schedule from a worker pushes to that worker's own queue instead of
// taking the round-robin path.
thread_local ThreadPool* tls_pool = nullptr;
thread_local int tls_index = -1;

}  // namespace

ThreadPool::ThreadPool(const std::string& name, int num_threads) {
  assert(num_threads >= 1);
  metrics::Registry* reg = metrics::Registry::Global();
  const metrics::TagMap tags{{"pool", name}};
  tasks_metric_ = reg->GetCounter("threadpool.tasks", tags);
  after_shutdown_metric_ =
      reg->GetCounter("threadpool.scheduled_after_shutdown", tags);
  queue_depth_metric_ = reg->GetGauge("threadpool.queue_depth", tags);
  task_wait_ms_metric_ = reg->GetHistogram("threadpool.task_wait_ms", {}, tags);
  steal_latency_us_metric_ = reg->GetHistogram(
      "threadpool.steal_latency_us",
      {5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000, 100000}, tags);
  wakeup_batch_metric_ = reg->GetGauge("threadpool.wakeup_batch", tags);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i]() { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  shutdown_.store(true, std::memory_order_release);
  // Serialize with workers entering the wait: any worker that read
  // shutdown_ == false is either still scanning queues or holds wake_mu_;
  // taking the lock once guarantees it observes the flag or the broadcast.
  { std::lock_guard<std::mutex> lock(wake_mu_); }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
  // A Schedule racing with shutdown may have enqueued after the workers
  // drained and exited; run the stragglers here so no task is ever lost.
  for (std::unique_ptr<Worker>& w : workers_) {
    for (Task& task : w->q) {
      task.fn();
    }
    w->q.clear();
  }
  const int64_t unflushed =
      tasks_unflushed_.exchange(0, std::memory_order_relaxed);
  if (unflushed > 0) tasks_metric_->Increment(unflushed);
}

void ThreadPool::SampleOnSchedule(Task* task) {
  // Wait time and queue depth are sampled 1-in-64: a clock read plus a
  // shared histogram update per task measurably slows the executor's
  // fan-out path, and the sampled distribution is just as useful. The task
  // counter is batched onto sample ticks too: even a relaxed fetch_add per
  // task ping-pongs the counter's cache line between every worker
  // scheduling downstream nodes.
  tasks_unflushed_.fetch_add(1, std::memory_order_relaxed);
  if ((sample_counter_.fetch_add(1, std::memory_order_relaxed) &
       (kSampleEvery - 1)) == 0) {
    task->enqueue_micros = metrics::NowMicros();
    queue_depth_metric_->Set(pending_.load(std::memory_order_relaxed) + 1);
    tasks_metric_->Increment(
        tasks_unflushed_.exchange(0, std::memory_order_relaxed));
  }
}

void ThreadPool::PushTask(int queue_index, Task task) {
  Worker& w = *workers_[queue_index];
  std::lock_guard<std::mutex> lock(w.mu);
  w.q.push_back(std::move(task));
}

void ThreadPool::WakeWorkers(int64_t num_new_tasks) {
  // pending_ was raised (seq_cst) before this load: either we observe a
  // sleeper and notify under the lock, or the racing worker observes
  // pending_ > 0 in its wait predicate and never sleeps.
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  wakeup_batch_metric_->Set(num_new_tasks);
  std::lock_guard<std::mutex> lock(wake_mu_);
  if (num_new_tasks == 1) {
    work_cv_.notify_one();
  } else {
    work_cv_.notify_all();
  }
}

void ThreadPool::Schedule(std::function<void()> fn) {
  if (shutdown_.load(std::memory_order_acquire)) {
    after_shutdown_metric_->Increment();
    fn();  // see header: run inline rather than drop (or hang WaitIdle)
    return;
  }
  Task task{std::move(fn), /*enqueue_micros=*/0};
  SampleOnSchedule(&task);
  const int n = static_cast<int>(workers_.size());
  const int qi =
      tls_pool == this
          ? tls_index
          : static_cast<int>(
                next_queue_.fetch_add(1, std::memory_order_relaxed) % n);
  PushTask(qi, std::move(task));
  pending_.fetch_add(1, std::memory_order_seq_cst);
  WakeWorkers(1);
}

void ThreadPool::ScheduleBatch(std::vector<std::function<void()>> fns) {
  if (fns.empty()) return;
  if (shutdown_.load(std::memory_order_acquire)) {
    after_shutdown_metric_->Increment(static_cast<int64_t>(fns.size()));
    for (std::function<void()>& fn : fns) fn();
    return;
  }
  const int n = static_cast<int>(workers_.size());
  int qi = tls_pool == this
               ? tls_index
               : static_cast<int>(
                     next_queue_.fetch_add(1, std::memory_order_relaxed) % n);
  for (std::function<void()>& fn : fns) {
    Task task{std::move(fn), /*enqueue_micros=*/0};
    SampleOnSchedule(&task);
    PushTask(qi, std::move(task));
    qi = (qi + 1) % n;
  }
  pending_.fetch_add(static_cast<int64_t>(fns.size()),
                     std::memory_order_seq_cst);
  WakeWorkers(static_cast<int64_t>(fns.size()));
}

namespace {

// The shards of one ParallelFor. Helper tasks share it by shared_ptr: one
// dequeued after every shard was claimed (even after ParallelFor returned)
// only bumps `next` and leaves, so `fn` is never used past the call.
struct Shards {
  int64_t total = 0;
  int64_t size = 0;
  int64_t count = 0;
  const std::function<void(int64_t, int64_t)>* fn = nullptr;
  std::atomic<int64_t> next{0};

  std::mutex mu;
  std::condition_variable all_done;
  int64_t done = 0;  // guarded by mu

  // Claims and runs shards until none is left unclaimed.
  void Drain() {
    for (int64_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      (*fn)(i * size, std::min(total, (i + 1) * size));
      std::lock_guard<std::mutex> lock(mu);
      if (++done == count) all_done.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::ParallelFor(int64_t total, int64_t shard_size,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (total <= 0) return;
  shard_size = std::max<int64_t>(1, shard_size);
  const int64_t count = (total + shard_size - 1) / shard_size;
  const int64_t helpers = std::min<int64_t>(count, num_threads()) - 1;
  if (helpers <= 0) {
    for (int64_t begin = 0; begin < total; begin += shard_size) {
      fn(begin, std::min(total, begin + shard_size));
    }
    return;
  }
  auto shards = std::make_shared<Shards>();
  shards->total = total;
  shards->size = shard_size;
  shards->count = count;
  shards->fn = &fn;
  ScheduleBatch(std::vector<std::function<void()>>(
      helpers, [shards]() { shards->Drain(); }));
  shards->Drain();
  // Every shard is claimed; the unfinished ones are running on helpers.
  std::unique_lock<std::mutex> lock(shards->mu);
  shards->all_done.wait(lock, [&]() { return shards->done == count; });
}

bool ThreadPool::PopOwn(int index, Task* task) {
  Worker& w = *workers_[index];
  std::lock_guard<std::mutex> lock(w.mu);
  if (w.q.empty()) return false;
  *task = std::move(w.q.front());
  w.q.pop_front();
  // active_ rises before pending_ drops so the pool never looks idle while
  // a task is in flight between the two updates.
  active_.fetch_add(1, std::memory_order_seq_cst);
  pending_.fetch_sub(1, std::memory_order_seq_cst);
  return true;
}

bool ThreadPool::Steal(int index, Task* task) {
  const int n = static_cast<int>(workers_.size());
  for (int i = 1; i < n; ++i) {
    Worker& w = *workers_[(index + i) % n];
    std::lock_guard<std::mutex> lock(w.mu);
    if (w.q.empty()) continue;
    // Steal from the back: the owner pops the front, so thieves and owner
    // meet only when a single task is left.
    *task = std::move(w.q.back());
    w.q.pop_back();
    active_.fetch_add(1, std::memory_order_seq_cst);
    pending_.fetch_sub(1, std::memory_order_seq_cst);
    if (task->enqueue_micros != 0) {  // sampled in SampleOnSchedule
      steal_latency_us_metric_->Record(
          static_cast<double>(metrics::NowMicros() - task->enqueue_micros));
    }
    return true;
  }
  return false;
}

void ThreadPool::RunTask(Task task) {
  if (task.enqueue_micros != 0) {  // sampled in SampleOnSchedule
    queue_depth_metric_->Set(pending_.load(std::memory_order_relaxed));
    task_wait_ms_metric_->Record(
        static_cast<double>(metrics::NowMicros() - task.enqueue_micros) /
        1000.0);
  }
  task.fn();
  active_.fetch_sub(1, std::memory_order_seq_cst);
  if (pending_.load(std::memory_order_seq_cst) == 0 &&
      active_.load(std::memory_order_seq_cst) == 0) {
    std::lock_guard<std::mutex> lock(wake_mu_);
    idle_cv_.notify_all();
  }
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  idle_cv_.wait(lock, [this]() {
    return pending_.load(std::memory_order_seq_cst) == 0 &&
           active_.load(std::memory_order_seq_cst) == 0;
  });
  const int64_t unflushed =
      tasks_unflushed_.exchange(0, std::memory_order_relaxed);
  if (unflushed > 0) tasks_metric_->Increment(unflushed);
}

void ThreadPool::WorkerLoop(int index) {
  tls_pool = this;
  tls_index = index;
  for (;;) {
    Task task;
    if (PopOwn(index, &task) || Steal(index, &task)) {
      RunTask(std::move(task));
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (shutdown_.load(std::memory_order_acquire)) return;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    work_cv_.wait(lock, [this]() {
      return shutdown_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_seq_cst) > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace tfrepro
