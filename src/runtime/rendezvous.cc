#include "runtime/rendezvous.h"

#include <condition_variable>
#include <string_view>
#include <vector>

#include "core/metrics.h"

namespace tfrepro {

namespace {

// Process-wide rendezvous instruments (DESIGN.md §8): send/recv counts,
// bytes moved, and how long blocked Recvs waited for their value.
struct RendezvousMetrics {
  metrics::Counter* sends;
  metrics::Counter* recvs;
  metrics::Counter* bytes_sent;
  metrics::Counter* recvs_blocked;
  metrics::Histogram* recv_wait_ms;
  // Entries currently buffered across all live LocalRendezvous objects.
  // Both read 0 once every step's rendezvous has been destroyed; a non-zero
  // steady-state value is a leak (chaos_test asserts on these).
  metrics::Gauge* live_items;
  metrics::Gauge* live_waiters;
};

const RendezvousMetrics& GetRendezvousMetrics() {
  static RendezvousMetrics m = []() {
    metrics::Registry* r = metrics::Registry::Global();
    return RendezvousMetrics{
        r->GetCounter("rendezvous.sends"),
        r->GetCounter("rendezvous.recvs"),
        r->GetCounter("rendezvous.bytes_sent"),
        r->GetCounter("rendezvous.recvs_blocked"),
        r->GetHistogram("rendezvous.recv_wait_ms"),
        r->GetGauge("rendezvous.live_items"),
        r->GetGauge("rendezvous.live_waiters"),
    };
  }();
  return m;
}

// The "/job:X/task:N" prefixes of a key's send and recv devices; false for
// a key with fewer than two fields.
bool KeyTasks(std::string_view key, std::string_view* send_task,
              std::string_view* recv_task) {
  const size_t first = key.find(';');
  if (first == std::string_view::npos) return false;
  const size_t second = key.find(';', first + 1);
  if (second == std::string_view::npos) return false;
  auto task_of = [](std::string_view device) {
    return device.substr(0, device.find("/device:"));
  };
  *send_task = task_of(key.substr(0, first));
  *recv_task = task_of(key.substr(first + 1, second - first - 1));
  return true;
}

}  // namespace

std::string RendezvousKey(const std::string& send_device,
                          const std::string& recv_device,
                          const std::string& tensor_name, int64_t frame_iter) {
  return send_device + ";" + recv_device + ";" + tensor_name + ";" +
         std::to_string(frame_iter);
}

bool IsCrossTaskKey(const std::string& key) {
  std::string_view send_task, recv_task;
  return KeyTasks(key, &send_task, &recv_task) && send_task != recv_task;
}

std::string RecvTaskOfKey(const std::string& key) {
  std::string_view send_task, recv_task;
  if (!KeyTasks(key, &send_task, &recv_task)) return std::string();
  return std::string(recv_task);
}

Status Rendezvous::Recv(const std::string& key, Tensor* value, bool* is_dead) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  RecvAsync(key, [&](const Status& s, const Tensor& t, bool dead) {
    std::lock_guard<std::mutex> lock(mu);
    status = s;
    *value = t;
    *is_dead = dead;
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&]() { return done; });
  return status;
}

Status LocalRendezvous::Send(const std::string& key, const Tensor& value,
                             bool is_dead) {
  return Send(key, KeyHash(key), value, is_dead);
}

void LocalRendezvous::RecvAsync(const std::string& key, DoneCallback done) {
  RecvAsync(key, KeyHash(key), std::move(done));
}

Status LocalRendezvous::Send(const std::string& key, uint64_t key_hash,
                             const Tensor& value, bool is_dead) {
  const RendezvousMetrics& m = GetRendezvousMetrics();
  m.sends->Increment();
  if (!is_dead) m.bytes_sent->Increment(value.TotalBytes());
  Shard& s = shard(key_hash);
  Waiter waiter;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.aborted.ok()) return s.aborted;
    auto wit = s.waiting.find(key);
    if (wit != s.waiting.end() && !wit->second.empty()) {
      waiter = std::move(wit->second.front());
      wit->second.pop_front();
      if (wit->second.empty()) s.waiting.erase(wit);
    } else {
      s.ready[key].push_back(Item{value, is_dead});
      m.live_items->Add(1);
      return Status::OK();
    }
  }
  m.live_waiters->Add(-1);
  m.recv_wait_ms->Record(
      static_cast<double>(metrics::NowMicros() - waiter.wait_start_micros) /
      1000.0);
  waiter.done(Status::OK(), value, is_dead);
  return Status::OK();
}

void LocalRendezvous::RecvAsync(const std::string& key, uint64_t key_hash,
                                DoneCallback done) {
  GetRendezvousMetrics().recvs->Increment();
  Shard& s = shard(key_hash);
  Item item;
  {
    std::unique_lock<std::mutex> lock(s.mu);
    if (!s.aborted.ok()) {
      Status aborted = s.aborted;
      lock.unlock();
      done(aborted, Tensor(), false);
      return;
    }
    auto rit = s.ready.find(key);
    if (rit == s.ready.end() || rit->second.empty()) {
      GetRendezvousMetrics().recvs_blocked->Increment();
      GetRendezvousMetrics().live_waiters->Add(1);
      s.waiting[key].push_back(Waiter{std::move(done), metrics::NowMicros()});
      return;
    }
    item = std::move(rit->second.front());
    rit->second.pop_front();
    if (rit->second.empty()) s.ready.erase(rit);
    GetRendezvousMetrics().live_items->Add(-1);
  }
  done(Status::OK(), item.value, item.is_dead);
}

void LocalRendezvous::StartAbort(const Status& status) {
  {
    std::lock_guard<std::mutex> lock(abort_mu_);
    if (abort_started_) return;  // already aborted
    abort_started_ = true;
  }
  const Status aborted =
      status.ok() ? Cancelled("rendezvous aborted") : status;
  const RendezvousMetrics& m = GetRendezvousMetrics();
  // Fan the abort out shard by shard: mark the shard so future Send/Recv
  // fail fast, drop buffered items, and collect parked waiters to fire
  // outside the shard lock.
  std::vector<DoneCallback> waiters;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.aborted = aborted;
    for (auto& [key, queue] : s.waiting) {
      for (Waiter& w : queue) waiters.push_back(std::move(w.done));
    }
    int64_t items = 0;
    for (const auto& [key, queue] : s.ready) {
      items += static_cast<int64_t>(queue.size());
    }
    if (items > 0) m.live_items->Add(-items);
    s.waiting.clear();
    s.ready.clear();
  }
  if (!waiters.empty()) {
    m.live_waiters->Add(-static_cast<int64_t>(waiters.size()));
  }
  for (DoneCallback& cb : waiters) {
    cb(aborted, Tensor(), false);
  }
}

LocalRendezvous::~LocalRendezvous() {
  // Drop whatever is still buffered (e.g. a Send whose Recv was pruned, or
  // a Recv parked when the step died) so the live-entry gauges balance.
  const RendezvousMetrics& m = GetRendezvousMetrics();
  int64_t items = 0;
  int64_t waiters = 0;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [key, queue] : s.ready) {
      items += static_cast<int64_t>(queue.size());
    }
    for (const auto& [key, queue] : s.waiting) {
      waiters += static_cast<int64_t>(queue.size());
    }
  }
  if (items != 0) m.live_items->Add(-items);
  if (waiters != 0) m.live_waiters->Add(-waiters);
}

}  // namespace tfrepro
