#include "distributed/cluster.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "distributed/fault_injector.h"
#include "distributed/rpc/process_cluster.h"

namespace tfrepro {
namespace distributed {

TaskWorker::TaskWorker(const std::string& job, int task_index, int num_threads,
                       int num_devices)
    : job_(job),
      task_index_(task_index),
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

void TaskWorker::PingAsync(std::function<void(Status)> done) {
  pool_.Schedule([done = std::move(done)]() { done(Status::OK()); });
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

Cluster::Cluster(const ClusterSpec& spec, FaultInjector* injector,
                 bool injector_sees_transfers)
    : spec_(spec),
      fault_injector_(injector),
      injector_sees_transfers_(injector_sees_transfers) {
  if (injector == nullptr) return;
  int num_tasks = 0;
  for (const auto& [job, count] : spec.jobs) num_tasks += count;
  // Room for two delayed calls per task at once (say, a dispatch and a
  // probe) before one waits behind another.
  delay_pool_ = std::make_unique<ThreadPool>("fault-delay", 2 * num_tasks);
}

void Cluster::AddWorker(std::unique_ptr<WorkerInterface> worker) {
  WorkerInterface* handed_out = worker.get();
  owned_.push_back(std::move(worker));
  if (fault_injector_ != nullptr) {
    owned_.push_back(std::make_unique<FaultInjectingWorker>(
        handed_out, fault_injector_, delay_pool_.get(),
        injector_sees_transfers_));
    handed_out = owned_.back().get();
  }
  workers_.push_back(handed_out);
}

Result<WorkerInterface*> Cluster::worker(const std::string& job,
                                         int task_index) const {
  for (WorkerInterface* w : workers_) {
    if (w->job() == job && w->task_index() == task_index) return w;
  }
  return NotFound("no task /job:" + job + "/task:" +
                  std::to_string(task_index) + " in cluster");
}

InProcessCluster::InProcessCluster(const ClusterSpec& spec,
                                   const Options& options)
    : Cluster(spec, options.fault_injector, /*injector_sees_transfers=*/true) {
  for (const auto& [job, count] : spec.jobs) {
    for (int i = 0; i < count; ++i) {
      auto task = std::make_unique<TaskWorker>(
          job, i, options.threads_per_task, options.devices_per_task);
      tasks_.push_back(task.get());
      AddWorker(std::move(task));
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
  for (TaskWorker* w : tasks_) {
    if (w->job() == job && w->task_index() == task_index) return w;
  }
  return NotFound("no task /job:" + job + "/task:" +
                  std::to_string(task_index) + " in cluster");
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
  if (fault_injector_ == nullptr) return std::make_shared<LocalRendezvous>();
  return std::make_shared<FaultInjectingRendezvous>(
      fault_injector_, std::make_shared<LocalRendezvous>());
}

std::vector<Device*> InProcessCluster::all_devices() const {
  std::vector<Device*> devices;
  for (TaskWorker* w : tasks_) {
    for (Device* d : w->device_mgr()->ListDevices()) {
      devices.push_back(d);
    }
  }
  return devices;
}

}  // namespace distributed
}  // namespace tfrepro
