#include "distributed/cluster.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <thread>

#include "distributed/fault_injector.h"
#include "distributed/rpc/process_cluster.h"

namespace tfrepro {
namespace distributed {

Status ThrottledRendezvous::Send(const std::string& key, const Tensor& value,
                                 bool is_dead) {
  return Send(key, KeyHash(key), value, is_dead);
}

Status ThrottledRendezvous::Send(const std::string& key, uint64_t key_hash,
                                 const Tensor& value, bool is_dead) {
  double delay = IsCrossTaskKey(key)
                     ? model_.TransferSeconds(value.TotalBytes())
                     : 0.0;
  if (delay <= 0.0) {
    return inner_->Send(key, key_hash, value, is_dead);
  }
  // Deliver after the modeled wire time, off a timer thread. The lambda
  // shares ownership of the inner rendezvous: an aborted step can destroy
  // this wrapper while a delayed delivery is still sleeping.
  timer_pool_->Schedule([inner = inner_, key, key_hash, value, is_dead,
                         delay]() {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    (void)inner->Send(key, key_hash, value, is_dead);
  });
  return Status::OK();
}

void ThrottledRendezvous::RecvAsync(const std::string& key,
                                    DoneCallback done) {
  RecvAsync(key, KeyHash(key), std::move(done));
}

void ThrottledRendezvous::RecvAsync(const std::string& key, uint64_t key_hash,
                                    DoneCallback done) {
  inner_->RecvAsync(key, key_hash, std::move(done));
}

void ThrottledRendezvous::StartAbort(const Status& status) {
  inner_->StartAbort(status);
}

TaskWorker::TaskWorker(const std::string& job, int task_index, int num_threads,
                       int num_devices, FaultInjector* injector)
    : job_(job),
      task_index_(task_index),
      injector_(injector),
      pool_("worker", num_threads) {
  for (int i = 0; i < num_devices; ++i) {
    device_mgr_.AddDevice(NewCpuDevice(job, task_index, i, &pool_));
  }
}

Status TaskWorker::RegisterSubgraph(const std::string& handle,
                                    const std::string& segment,
                                    std::shared_ptr<const Graph> partition,
                                    const std::string& device_name) {
  Result<Device*> device = device_mgr_.LookupDevice(device_name);
  TF_RETURN_IF_ERROR(device.status());
  Result<std::unique_ptr<Executor>> executor =
      Executor::Create(partition.get(), device.value(), segment);
  TF_RETURN_IF_ERROR(executor.status());
  // The executor's _Fetch kernels have validated their int "index" attrs.
  int num_fetch_slots = 0;
  for (Node* node : partition->nodes()) {
    if (node->op() != "_Fetch") continue;
    const int64_t index = node->GetAttr("index").i();
    if (index < 0 || index >= std::numeric_limits<int>::max()) {
      return InvalidArgument("_Fetch index " + std::to_string(index) +
                             " out of range");
    }
    num_fetch_slots = std::max(num_fetch_slots, static_cast<int>(index) + 1);
  }
  std::lock_guard<std::mutex> lock(mu_);
  Registration& registration = subgraphs_[handle];
  registration.num_fetch_slots =
      std::max(registration.num_fetch_slots, num_fetch_slots);
  registration.graphs.push_back(
      RegisteredGraph{std::move(partition), std::move(executor).value()});
  return Status::OK();
}

void TaskWorker::RunSubgraphsAsync(const std::string& handle,
                                   const Executor::Args& args,
                                   std::function<void(Status)> done) {
  double delay_seconds = 0.0;
  if (injector_ != nullptr) {
    FaultInjector::Decision decision = injector_->OnDispatch(task_name());
    switch (decision.action) {
      case FaultInjector::Action::kKill:
        // A dead process: the dispatch is refused immediately, like a
        // connection error. The master treats Unavailable as retryable.
        done(Unavailable("task " + task_name() + " is down"));
        return;
      case FaultInjector::Action::kHang:
        // A hung process: no response, ever. The callback is parked (so
        // whatever step state it owns stays alive) and only the master's
        // step deadline can unblock the step.
        injector_->ParkHung(task_name(), std::move(done));
        return;
      case FaultInjector::Action::kProceed:
        delay_seconds = decision.delay_seconds;
        break;
    }
  }
  if (delay_seconds > 0.0) {
    // Straggler: run the whole dispatch late, off a pool thread.
    pool_.Schedule([this, handle, args, done = std::move(done),
                    delay_seconds]() mutable {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(delay_seconds));
      RunSubgraphsNow(handle, args, std::move(done));
    });
    return;
  }
  RunSubgraphsNow(handle, args, std::move(done));
}

void TaskWorker::PingAsync(std::function<void(Status)> done) {
  if (injector_ != nullptr) {
    FaultInjector::Decision decision = injector_->OnProbe(task_name());
    switch (decision.action) {
      case FaultInjector::Action::kKill:
        done(Unavailable("task " + task_name() + " refused probe"));
        return;
      case FaultInjector::Action::kHang:
        // Park the probe callback like a hung dispatch: it never fires and
        // is only released when the task restarts or the injector dies. The
        // prober's own timeout path must cope.
        injector_->ParkHung(task_name(), std::move(done));
        return;
      case FaultInjector::Action::kProceed:
        if (decision.delay_seconds > 0.0) {
          pool_.Schedule([done = std::move(done),
                          delay = decision.delay_seconds]() {
            std::this_thread::sleep_for(std::chrono::duration<double>(delay));
            done(Status::OK());
          });
          return;
        }
        break;
    }
  }
  // Answer off a pool thread, like a real RPC response.
  pool_.Schedule([done = std::move(done)]() { done(Status::OK()); });
}

void TaskWorker::RunSubgraphsNow(const std::string& handle,
                                 const Executor::Args& args,
                                 std::function<void(Status)> done) {
  std::vector<Executor*> executors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = subgraphs_.find(handle);
    if (it == subgraphs_.end()) {
      done(NotFound("task " + task_name() + " has no subgraphs for handle '" +
                    handle + "'"));
      return;
    }
    for (const RegisteredGraph& rg : it->second.graphs) {
      executors.push_back(rg.executor.get());
    }
  }
  if (executors.size() == 1) {
    // One partition: its completion is the task's.
    executors[0]->RunAsync(args, std::move(done));
    return;
  }
  struct SharedState {
    std::mutex mu;
    Status status;
    size_t remaining;
    std::function<void(Status)> done;
  };
  auto state = std::make_shared<SharedState>();
  state->remaining = executors.size();
  state->done = std::move(done);
  for (Executor* executor : executors) {
    executor->RunAsync(args, [state](const Status& s) {
      bool finished = false;
      Status final_status;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->status.ok() && !s.ok()) state->status = s;
        finished = (--state->remaining == 0);
        final_status = state->status;
      }
      if (finished) state->done(final_status);
    });
  }
}

bool TaskWorker::HasSubgraphs(const std::string& handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  return subgraphs_.count(handle) > 0;
}

Result<int> TaskWorker::NumFetchSlots(const std::string& handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subgraphs_.find(handle);
  if (it == subgraphs_.end()) {
    return NotFound("task " + task_name() + " has no subgraphs for handle '" +
                    handle + "'");
  }
  return it->second.num_fetch_slots;
}

void TaskWorker::Reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Destroy executors before wiping the device kernel caches: executors
    // hold raw pointers to segment-cached stateful kernels.
    subgraphs_.clear();
    incarnation_.fetch_add(1);
  }
  for (Device* device : device_mgr_.ListDevices()) {
    device->ResetState();
  }
}

int64_t TaskWorker::incarnation() const { return incarnation_.load(); }

Status ValidateSpec(const ClusterSpec& spec) {
  if (spec.jobs.empty()) {
    return InvalidArgument("cluster spec has no jobs");
  }
  for (const auto& [job, count] : spec.jobs) {
    if (count <= 0) {
      return InvalidArgument("job '" + job + "' has no tasks");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Cluster>> Cluster::Create(const ClusterSpec& spec,
                                                 const Options& options) {
  std::string transport = spec.transport;
  if (transport.empty()) {
    const char* env = std::getenv("TFREPRO_TRANSPORT");
    transport = (env != nullptr) ? env : "";
  }
  if (transport.empty() || transport == "inprocess") {
    Result<std::unique_ptr<InProcessCluster>> cluster =
        InProcessCluster::Create(spec, options);
    TF_RETURN_IF_ERROR(cluster.status());
    return std::unique_ptr<Cluster>(std::move(cluster).value());
  }
  if (transport == "socket") {
    Result<std::unique_ptr<rpc::ProcessCluster>> cluster =
        rpc::ProcessCluster::Create(spec, options);
    TF_RETURN_IF_ERROR(cluster.status());
    return std::unique_ptr<Cluster>(std::move(cluster).value());
  }
  return InvalidArgument("unknown cluster transport '" + transport +
                         "' (expected 'inprocess' or 'socket')");
}

InProcessCluster::InProcessCluster(const ClusterSpec& spec,
                                   const Options& options)
    : Cluster(spec, options.fault_injector),
      network_(options.network),
      net_timer_(options.network.on()
                     ? std::make_unique<ThreadPool>("net_timer", 2)
                     : nullptr) {
  for (const auto& [job, count] : spec.jobs) {
    for (int i = 0; i < count; ++i) {
      workers_.push_back(std::make_unique<TaskWorker>(
          job, i, options.threads_per_task, options.devices_per_task,
          options.fault_injector));
    }
  }
}

Result<std::unique_ptr<InProcessCluster>> InProcessCluster::Create(
    const ClusterSpec& spec, const Options& options) {
  TF_RETURN_IF_ERROR(ValidateSpec(spec));
  return std::unique_ptr<InProcessCluster>(
      new InProcessCluster(spec, options));
}

Result<TaskWorker*> InProcessCluster::task_worker(const std::string& job,
                                                  int task_index) const {
  for (const auto& w : workers_) {
    if (w->job() == job && w->task_index() == task_index) {
      return w.get();
    }
  }
  return NotFound("no task /job:" + job + "/task:" +
                  std::to_string(task_index) + " in cluster");
}

Result<WorkerInterface*> InProcessCluster::worker(const std::string& job,
                                                  int task_index) const {
  Result<TaskWorker*> w = task_worker(job, task_index);
  TF_RETURN_IF_ERROR(w.status());
  return static_cast<WorkerInterface*>(w.value());
}

Status InProcessCluster::RestartTask(const std::string& job, int task_index) {
  Result<TaskWorker*> w = task_worker(job, task_index);
  TF_RETURN_IF_ERROR(w.status());
  w.value()->Reset();
  if (fault_injector_ != nullptr) {
    fault_injector_->MarkRestarted(w.value()->task_name());
  }
  return Status::OK();
}

bool InProcessCluster::TaskIsDown(WorkerInterface* worker) const {
  return fault_injector_ != nullptr &&
         fault_injector_->IsDown(worker->task_name());
}

std::shared_ptr<Rendezvous> InProcessCluster::NewStepRendezvous(
    const std::string& session, int64_t step_id) {
  (void)session;
  (void)step_id;
  std::shared_ptr<Rendezvous> rendezvous;
  if (net_timer_ != nullptr) {
    rendezvous = std::make_shared<ThrottledRendezvous>(network_,
                                                       net_timer_.get());
  } else {
    rendezvous = std::make_shared<LocalRendezvous>();
  }
  if (fault_injector_ != nullptr) {
    rendezvous = std::make_shared<FaultInjectingRendezvous>(
        fault_injector_, std::move(rendezvous));
  }
  return rendezvous;
}

std::vector<WorkerInterface*> InProcessCluster::workers() const {
  std::vector<WorkerInterface*> out;
  for (const auto& w : workers_) out.push_back(w.get());
  return out;
}

std::vector<Device*> InProcessCluster::all_devices() const {
  std::vector<Device*> devices;
  for (const auto& w : workers_) {
    for (Device* d : w->device_mgr()->ListDevices()) {
      devices.push_back(d);
    }
  }
  return devices;
}

}  // namespace distributed
}  // namespace tfrepro
