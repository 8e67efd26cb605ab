#include "distributed/fault_injector.h"

#include <chrono>
#include <sstream>
#include <thread>

#include "core/metrics.h"
#include "runtime/tracing.h"

namespace tfrepro {
namespace distributed {

FaultInjector::FaultInjector(uint64_t seed) : rng_(seed) {}

void FaultInjector::RecordInjectedLocked(const std::string& kind,
                                         const std::string& task,
                                         int64_t index) {
  events_.push_back(InjectedEvent{kind, task, index, metrics::NowMicros()});
  metrics::Registry::Global()
      ->GetCounter("fault.injected", {{"kind", kind}})
      ->Increment();
  RecordGlobalInstant("fault." + kind, task,
                      {{"index", std::to_string(index)}});
}

void FaultInjector::KillTaskAtDispatch(const std::string& task, int64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  kill_at_[task].insert(nth);
}

void FaultInjector::HangTaskAtDispatch(const std::string& task, int64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  hang_at_[task].insert(nth);
}

void FaultInjector::DelayTask(const std::string& task, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (seconds <= 0.0) {
    delays_.erase(task);
  } else {
    delays_[task] = seconds;
  }
}

void FaultInjector::DropNthTransfer(int64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_transfer_at_.insert(nth);
}

void FaultInjector::KillRandomly(double probability) {
  std::lock_guard<std::mutex> lock(mu_);
  kill_probability_ = probability;
}

void FaultInjector::KillTaskNow(const std::string& task) {
  std::lock_guard<std::mutex> lock(mu_);
  if (down_.count(task) > 0) return;
  down_.insert(task);
  ++kills_;
  log_.push_back("kill " + task + " (idle)");
  RecordInjectedLocked("kill", task, 0);
}

void FaultInjector::HangProbeAt(const std::string& task, int64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  hang_probe_at_[task].insert(nth);
}

FaultInjector::Decision FaultInjector::OnDispatch(const std::string& task) {
  std::lock_guard<std::mutex> lock(mu_);
  if (down_.count(task) > 0) {
    // A dead task refuses every dispatch until restarted; this is the
    // "connection refused" fast path, not a new kill.
    return Decision{Action::kKill, 0.0};
  }
  int64_t n = ++dispatch_counts_[task];
  auto scripted_kill = kill_at_.find(task);
  bool kill = scripted_kill != kill_at_.end() &&
              scripted_kill->second.count(n) > 0;
  if (!kill && kill_probability_ > 0.0) {
    kill = rng_.UniformDouble() < kill_probability_;
  }
  if (kill) {
    down_.insert(task);
    ++kills_;
    log_.push_back("kill " + task + " @dispatch " + std::to_string(n));
    RecordInjectedLocked("kill", task, n);
    return Decision{Action::kKill, 0.0};
  }
  auto scripted_hang = hang_at_.find(task);
  if (scripted_hang != hang_at_.end() && scripted_hang->second.count(n) > 0) {
    ++hangs_;
    log_.push_back("hang " + task + " @dispatch " + std::to_string(n));
    RecordInjectedLocked("hang", task, n);
    return Decision{Action::kHang, 0.0};
  }
  Decision d;
  auto delay = delays_.find(task);
  if (delay != delays_.end()) {
    d.delay_seconds = delay->second;
    log_.push_back("delay " + task + " @dispatch " + std::to_string(n));
  }
  return d;
}

FaultInjector::Decision FaultInjector::OnProbe(const std::string& task) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = ++probe_counts_[task];
  if (down_.count(task) > 0) {
    // A dead process refuses the probe outright (connection refused); the
    // prober counts it as a miss without waiting out the timeout.
    return Decision{Action::kKill, 0.0};
  }
  auto scripted = hang_probe_at_.find(task);
  if (scripted != hang_probe_at_.end() && scripted->second.count(n) > 0) {
    log_.push_back("hang_probe " + task + " @probe " + std::to_string(n));
    return Decision{Action::kHang, 0.0};
  }
  Decision d;
  auto delay = delays_.find(task);
  if (delay != delays_.end()) d.delay_seconds = delay->second;
  return d;
}

bool FaultInjector::OnTransfer(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = ++transfer_count_;
  if (drop_transfer_at_.count(n) > 0) {
    ++dropped_transfers_;
    log_.push_back("drop transfer " + std::to_string(n) + " (" + key + ")");
    RecordInjectedLocked("drop_transfer", key, n);
    return true;
  }
  return false;
}

bool FaultInjector::TransferDropPending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !drop_transfer_at_.empty() &&
         *drop_transfer_at_.rbegin() > transfer_count_;
}

void FaultInjector::ParkHung(const std::string& task,
                             std::function<void(Status)> done) {
  std::lock_guard<std::mutex> lock(mu_);
  parked_[task].push_back(std::move(done));
}

bool FaultInjector::IsDown(const std::string& task) const {
  std::lock_guard<std::mutex> lock(mu_);
  return down_.count(task) > 0;
}

std::vector<std::string> FaultInjector::DownTasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::string>(down_.begin(), down_.end());
}

void FaultInjector::MarkRestarted(const std::string& task) {
  std::vector<std::function<void(Status)>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    down_.erase(task);
    auto it = parked_.find(task);
    if (it != parked_.end()) {
      dropped.swap(it->second);
      parked_.erase(it);
    }
    log_.push_back("restart " + task);
    RecordInjectedLocked("restart", task, 0);
  }
  // `dropped` destructs outside the lock, releasing any step state the hung
  // callbacks kept alive.
}

int64_t FaultInjector::kills() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kills_;
}

int64_t FaultInjector::hangs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hangs_;
}

int64_t FaultInjector::dropped_transfers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_transfers_;
}

int64_t FaultInjector::dispatches(const std::string& task) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dispatch_counts_.find(task);
  return it == dispatch_counts_.end() ? 0 : it->second;
}

int64_t FaultInjector::probes(const std::string& task) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = probe_counts_.find(task);
  return it == probe_counts_.end() ? 0 : it->second;
}

int64_t FaultInjector::transfers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transfer_count_;
}

std::vector<std::string> FaultInjector::DecisionLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

std::vector<FaultInjector::InjectedEvent> FaultInjector::injected_events()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void FaultInjectingWorker::RunSubgraphsAsync(
    const std::string& handle, const Executor::Args& args,
    std::function<void(Status)> done) {
  if (!injector_sees_transfers_ && injector_->TransferDropPending()) {
    done(Unimplemented(
        "transfer drops are injected in process only; over sockets "
        "tensors go from worker to worker"));
    return;
  }
  Apply(injector_->OnDispatch(task_name()), "is down", std::move(done),
        [base = base_, handle, args](std::function<void(Status)> done) {
          base->RunSubgraphsAsync(handle, args, std::move(done));
        });
}

void FaultInjectingWorker::PingAsync(std::function<void(Status)> done) {
  Apply(injector_->OnProbe(task_name()), "refused probe", std::move(done),
        [base = base_](std::function<void(Status)> done) {
          base->PingAsync(std::move(done));
        });
}

void FaultInjectingWorker::Apply(
    const FaultInjector::Decision& decision, const char* refusal,
    std::function<void(Status)> done,
    std::function<void(std::function<void(Status)>)> call) {
  switch (decision.action) {
    case FaultInjector::Action::kKill:
      // A dead process: the call is refused at once, like a connection
      // error. The master treats Unavailable as retryable.
      done(Unavailable("task " + task_name() + " " + refusal));
      return;
    case FaultInjector::Action::kHang:
      // A hung process: no answer, ever. The callback is parked (so
      // whatever step state it owns stays alive) until the task restarts;
      // only the master's deadline or the prober's timeout gets past it.
      injector_->ParkHung(task_name(), std::move(done));
      return;
    case FaultInjector::Action::kProceed:
      break;
  }
  if (decision.delay_seconds <= 0.0) {
    call(std::move(done));
    return;
  }
  // A straggler: the whole call goes out late.
  delay_pool_->Schedule([call = std::move(call), done = std::move(done),
                         delay = decision.delay_seconds]() mutable {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    call(std::move(done));
  });
}

Status FaultInjectingRendezvous::Send(const std::string& key,
                                      const Tensor& value, bool is_dead) {
  return Send(key, KeyHash(key), value, is_dead);
}

Status FaultInjectingRendezvous::Send(const std::string& key,
                                      uint64_t key_hash, const Tensor& value,
                                      bool is_dead) {
  if (IsCrossTaskKey(key) && injector_->OnTransfer(key)) {
    // Swallow the transfer: the matching Recv never fires, as if the
    // message were lost on the wire. The step deadline is the only cure.
    return Status::OK();
  }
  return base_->Send(key, key_hash, value, is_dead);
}

void FaultInjectingRendezvous::RecvAsync(const std::string& key,
                                         DoneCallback done) {
  RecvAsync(key, KeyHash(key), std::move(done));
}

void FaultInjectingRendezvous::RecvAsync(const std::string& key,
                                         uint64_t key_hash,
                                         DoneCallback done) {
  base_->RecvAsync(key, key_hash, std::move(done));
}

void FaultInjectingRendezvous::StartAbort(const Status& status) {
  base_->StartAbort(status);
}

}  // namespace distributed
}  // namespace tfrepro
