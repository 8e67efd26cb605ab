#include "distributed/health_prober.h"

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "runtime/tracing.h"

namespace tfrepro {
namespace distributed {

namespace {

// Each round's wait is perturbed uniformly within ±kJitterFraction·interval.
constexpr double kJitterFraction = 0.1;

}  // namespace

HealthProber::HealthProber(Cluster* cluster, const Options& options,
                           std::string session,
                           std::function<void(WorkerInterface*)> on_dead)
    : cluster_(cluster),
      options_(options),
      session_(std::move(session)),
      on_dead_(std::move(on_dead)),
      jitter_state_(reinterpret_cast<uintptr_t>(this) | 1) {
  if (options_.miss_threshold < 1) options_.miss_threshold = 1;
  thread_ = std::thread([this]() { Loop(); });
}

HealthProber::~HealthProber() { Stop(); }

void HealthProber::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Already stopped; just make sure the thread is reaped.
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

int HealthProber::misses(const std::string& task) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = misses_.find(task);
  return it == misses_.end() ? 0 : it->second;
}

double HealthProber::JitteredIntervalSeconds() {
  // xorshift64* — cheap, no global RNG state touched. Only the prober
  // thread reads jitter_state_.
  jitter_state_ ^= jitter_state_ >> 12;
  jitter_state_ ^= jitter_state_ << 25;
  jitter_state_ ^= jitter_state_ >> 27;
  const uint64_t r = jitter_state_ * 0x2545F4914F6CDD1DULL;
  // Uniform in [-1, 1), scaled to the jitter fraction of the interval.
  const double unit = static_cast<double>(r >> 11) / 4503599627370496.0 * 2.0 -
                      1.0;
  return options_.interval_seconds * (1.0 + unit * kJitterFraction);
}

void HealthProber::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    if (cv_.wait_for(lock,
                     std::chrono::duration<double>(JitteredIntervalSeconds()),
                     [this]() { return stopping_; })) {
      return;
    }
    lock.unlock();
    ProbeRound();
    lock.lock();
  }
}

void HealthProber::ProbeRound() {
  // One shared block per round, jointly owned by this frame and every
  // probe's done-callback: a parked (hung) probe callback may outlive the
  // round — and even the prober — so results can never live on this stack.
  struct RoundState {
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::string, Status> answered;
    size_t outstanding = 0;
  };
  auto state = std::make_shared<RoundState>();

  std::vector<WorkerInterface*> workers = cluster_->workers();
  metrics::Registry* reg = metrics::Registry::Global();
  state->outstanding = workers.size();
  for (WorkerInterface* worker : workers) {
    const std::string task = worker->task_name();
    reg->GetCounter("health.probe_sent", {{"session", session_}, {"task", task}})
        ->Increment();
    worker->PingAsync([state, task](Status s) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->answered[task] = std::move(s);
      if (--state->outstanding == 0) state->cv.notify_all();
    });
  }

  // The probe's own timeout path: wait for answers, then judge each task on
  // what arrived. A parked callback simply never shows up in `answered`.
  std::map<std::string, Status> answered;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait_for(lock,
                       std::chrono::duration<double>(options_.interval_seconds),
                       [&state]() { return state->outstanding == 0; });
    answered = state->answered;
  }

  for (WorkerInterface* worker : workers) {
    const std::string task = worker->task_name();
    const metrics::TagMap tags{{"session", session_}, {"task", task}};
    auto it = answered.find(task);
    const bool ok = it != answered.end() && it->second.ok();
    bool declare_dead = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      if (ok) {
        misses_[task] = 0;
      } else {
        declare_dead = ++misses_[task] >= options_.miss_threshold;
      }
    }
    if (ok) {
      reg->GetCounter("health.probe_ok", tags)->Increment();
      continue;
    }
    reg->GetCounter("health.probe_miss", tags)->Increment();
    if (declare_dead) {
      reg->GetCounter("health.probe_dead_marked", tags)->Increment();
      RecordGlobalInstant("health.task_dead", task,
                          {{"session", session_},
                           {"misses", std::to_string(misses(task))}});
      if (on_dead_) on_dead_(worker);
    }
  }
}

}  // namespace distributed
}  // namespace tfrepro
