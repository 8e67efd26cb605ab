#include "distributed/rpc/process_cluster.h"

#include <errno.h>
#include <fcntl.h>
#include <limits.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>

#include "core/metrics.h"
#include "distributed/fault_injector.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

namespace {

// How long a spawned worker may take to report its port.
constexpr double kSpawnTimeoutSeconds = 10.0;

Result<std::string> ResolveWorkerBinary() {
  std::vector<std::string> candidates;
  const char* env = std::getenv("TFREPRO_WORKER_BINARY");
  if (env != nullptr && env[0] != '\0') candidates.push_back(env);
  char exe[PATH_MAX];
  ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n > 0) {
    exe[n] = '\0';
    std::string dir(exe);
    size_t slash = dir.rfind('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    candidates.push_back(dir + "/worker_main");
    candidates.push_back(dir + "/../bin/worker_main");
    candidates.push_back(dir + "/bin/worker_main");
  }
  for (const std::string& candidate : candidates) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  std::string tried;
  for (const std::string& candidate : candidates) {
    if (!tried.empty()) tried += ", ";
    tried += candidate;
  }
  return NotFound("worker_main binary not found (tried: " + tried +
                  "); set TFREPRO_WORKER_BINARY");
}

}  // namespace

SocketStepRendezvous::SocketStepRendezvous(ProcessCluster* cluster,
                                           int64_t step_id,
                                           const StepRouting& routing)
    : cluster_(cluster), session_(routing.session), step_id_(step_id) {
  routing.AppendToBytes(&routing_);
}

SocketStepRendezvous::~SocketStepRendezvous() {
  if (cluster_ != nullptr) cluster_->EndStep(session_, step_id_);
}

Status SocketStepRendezvous::Send(const std::string& key, const Tensor& value,
                                  bool is_dead) {
  (void)value;
  (void)is_dead;
  return FailedPrecondition("the master moves no tensors over sockets: " +
                            key);
}

void SocketStepRendezvous::RecvAsync(const std::string& key,
                                     DoneCallback done) {
  done(FailedPrecondition("the master moves no tensors over sockets: " + key),
       Tensor(), false);
}

void SocketStepRendezvous::StartAbort(const Status& status) {
  // The workers' waiters park in their own processes: tell each of them.
  if (cluster_ != nullptr) {
    cluster_->CancelStepOnWorkers(session_, step_id_, status);
  }
}

ProcessCluster::ProcessCluster(const ClusterSpec& spec, const Options& options)
    : Cluster(spec, options.fault_injector, /*injector_sees_transfers=*/false),
      options_(options),
      shadow_pool_("process-cluster", 2) {}

Result<std::unique_ptr<ProcessCluster>> ProcessCluster::Create(
    const ClusterSpec& spec, const Options& options) {
  TF_RETURN_IF_ERROR(ValidateSpec(spec));
  std::unique_ptr<ProcessCluster> cluster(new ProcessCluster(spec, options));
  TF_RETURN_IF_ERROR(cluster->Initialize());
  return cluster;
}

Status ProcessCluster::Initialize() {
  Result<std::string> binary = ResolveWorkerBinary();
  TF_RETURN_IF_ERROR(binary.status());
  worker_binary_ = binary.value();
  for (const auto& [job, count] : spec_.jobs) {
    for (int i = 0; i < count; ++i) {
      auto task = std::make_unique<Task>();
      task->job = job;
      task->task_index = i;
      for (int d = 0; d < options_.devices_per_task; ++d) {
        task->shadow_devices.push_back(NewCpuDevice(job, i, d, &shadow_pool_));
      }
      TF_RETURN_IF_ERROR(SpawnProcess(task.get()));
      auto stub = std::make_unique<RemoteWorker>(
          job, i, task->port, options_.rpc_deadline_seconds);
      task->stub = stub.get();
      AddWorker(std::move(stub));
      tasks_.push_back(std::move(task));
    }
  }
  return Status::OK();
}

ProcessCluster::~ProcessCluster() {
  // Graceful drain: ask every live worker to exit...
  for (const auto& task : tasks_) {
    bool live;
    {
      std::lock_guard<std::mutex> lock(procs_mu_);
      live = !ProcessGoneLocked(task.get());
    }
    if (live && task->stub != nullptr) {
      (void)task->stub->channel()->CallSync(Method::kShutdown, std::string(),
                                            /*deadline_seconds=*/1.0);
    }
  }
  // ...give them a moment to oblige...
  const int64_t drain_deadline = metrics::NowMicros() + 2000000;
  for (const auto& task : tasks_) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(procs_mu_);
        if (ProcessGoneLocked(task.get())) break;
        if (metrics::NowMicros() >= drain_deadline) {
          // ...then SIGKILL the stragglers.
          ReapLocked(task.get(), /*force_kill=*/true);
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (const auto& task : tasks_) {
    if (task->stub != nullptr) task->stub->channel()->Shutdown();
  }
}

Status ProcessCluster::SpawnProcess(Task* task) {
  // Close-on-exec, so a sibling spawned meanwhile never inherits the pipe;
  // only this child clears the flag on its write end.
  int ready[2];
  if (::pipe2(ready, O_CLOEXEC) != 0) return StatusFromErrno(errno, "pipe2");
  std::vector<std::string> args = {
      worker_binary_,
      "--job=" + task->job,
      "--task=" + std::to_string(task->task_index),
      "--ready_fd=" + std::to_string(ready[1]),
      "--threads=" + std::to_string(options_.threads_per_task),
      "--devices=" + std::to_string(options_.devices_per_task),
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    Status s = StatusFromErrno(errno, "fork");
    ::close(ready[0]);
    ::close(ready[1]);
    return s;
  }
  if (pid == 0) {
    ::fcntl(ready[1], F_SETFD, 0);
    ::execv(worker_binary_.c_str(), argv.data());
    _exit(127);  // exec failed; the parent sees EOF before a port
  }
  ::close(ready[1]);

  // Readiness handshake: the child writes its port and a newline, and
  // keeps the pipe open as its lifeline.
  const std::string task_name =
      "/job:" + task->job + "/task:" + std::to_string(task->task_index);
  const int64_t deadline =
      metrics::NowMicros() + static_cast<int64_t>(kSpawnTimeoutSeconds * 1e6);
  std::string text;
  while (text.find('\n') == std::string::npos) {
    const int64_t left_ms = (deadline - metrics::NowMicros()) / 1000;
    pollfd pfd{ready[0], POLLIN, 0};
    const int polled =
        left_ms > 0 ? ::poll(&pfd, 1, static_cast<int>(left_ms)) : 0;
    if (polled < 0 && errno == EINTR) continue;
    if (polled <= 0) {
      ::close(ready[0]);
      ::kill(pid, SIGKILL);
      int wstatus = 0;
      ::waitpid(pid, &wstatus, 0);
      return DeadlineExceeded("worker process for " + task_name +
                              " did not report its port in " +
                              std::to_string(kSpawnTimeoutSeconds) + "s");
    }
    char buf[32];
    const ssize_t n = ::read(ready[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: the child died (or closed the pipe)
    text.append(buf, static_cast<size_t>(n));
  }
  const int port = text.find('\n') == std::string::npos
                       ? 0
                       : std::atoi(text.c_str());
  if (port <= 0) {
    // EOF before a port: the child died during startup. The kill only
    // matters for a child that closed the pipe yet lives on.
    ::close(ready[0]);
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    return Internal("worker process for " + task_name +
                    " exited during startup (status " +
                    std::to_string(wstatus) + ")");
  }
  std::lock_guard<std::mutex> lock(procs_mu_);
  task->pid = pid;
  task->port = port;
  task->lifeline = ready[0];
  task->reaped = false;
  return Status::OK();
}

Result<ProcessCluster::Task*> ProcessCluster::FindTask(const std::string& job,
                                                       int task_index) const {
  for (const auto& task : tasks_) {
    if (task->job == job && task->task_index == task_index) return task.get();
  }
  return NotFound("no task /job:" + job + "/task:" +
                  std::to_string(task_index) + " in cluster");
}

std::vector<Device*> ProcessCluster::all_devices() const {
  std::vector<Device*> out;
  for (const auto& task : tasks_) {
    for (const auto& device : task->shadow_devices) out.push_back(device.get());
  }
  return out;
}

bool ProcessCluster::ProcessGoneLocked(Task* task) const {
  if (task->reaped || task->pid < 0) return true;
  int wstatus = 0;
  pid_t r = ::waitpid(task->pid, &wstatus, WNOHANG);
  if (r == task->pid || (r < 0 && errno == ECHILD)) {
    task->MarkReaped();
    return true;
  }
  return false;
}

void ProcessCluster::ReapLocked(Task* task, bool force_kill) {
  if (ProcessGoneLocked(task)) return;
  if (force_kill) ::kill(task->pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(task->pid, &wstatus, 0);
  task->MarkReaped();
}

bool ProcessCluster::TaskIsDown(WorkerInterface* worker) const {
  if (fault_injector_ != nullptr &&
      fault_injector_->IsDown(worker->task_name())) {
    return true;
  }
  Result<Task*> task = FindTask(worker->job(), worker->task_index());
  if (!task.ok()) return false;
  std::lock_guard<std::mutex> lock(procs_mu_);
  return ProcessGoneLocked(task.value());
}

Status ProcessCluster::RestartTask(const std::string& job, int task_index) {
  Result<Task*> found = FindTask(job, task_index);
  TF_RETURN_IF_ERROR(found.status());
  Task* task = found.value();
  {
    std::lock_guard<std::mutex> lock(procs_mu_);
    ReapLocked(task, /*force_kill=*/true);
  }
  TF_RETURN_IF_ERROR(SpawnProcess(task));
  // The stub survives the restart: only its target changes, and its bumped
  // incarnation tells the master that registered subgraphs are gone.
  task->stub->TargetRestartedProcess(task->port);
  if (fault_injector_ != nullptr) {
    fault_injector_->MarkRestarted(task->stub->task_name());
  }
  return Status::OK();
}

Status ProcessCluster::KillTaskProcess(const std::string& job,
                                       int task_index) {
  Result<Task*> found = FindTask(job, task_index);
  TF_RETURN_IF_ERROR(found.status());
  Task* task = found.value();
  std::lock_guard<std::mutex> lock(procs_mu_);
  if (ProcessGoneLocked(task)) {
    return FailedPrecondition("task /job:" + job + "/task:" +
                              std::to_string(task_index) +
                              " has no live process to kill");
  }
  ::kill(task->pid, SIGKILL);
  // Deliberately not reaped here: TaskIsDown's WNOHANG collects the corpse
  // when the master next looks, just like a monitor discovering a crash.
  return Status::OK();
}

std::shared_ptr<Rendezvous> ProcessCluster::NewStepRendezvous(
    const std::string& session, int64_t step_id) {
  StepRouting routing;
  routing.session = session;
  {
    std::lock_guard<std::mutex> lock(steps_mu_);
    live_steps_.emplace(session, step_id);
    routing.step_floor =
        live_steps_.lower_bound({session, std::numeric_limits<int64_t>::min()})
            ->second;
  }
  {
    std::lock_guard<std::mutex> lock(procs_mu_);
    for (const auto& task : tasks_) {
      routing.ports[task->stub->task_name()] = task->port;
    }
  }
  return std::make_shared<SocketStepRendezvous>(this, step_id, routing);
}

void ProcessCluster::EndStep(const std::string& session, int64_t step_id) {
  std::lock_guard<std::mutex> lock(steps_mu_);
  live_steps_.erase({session, step_id});
}

void ProcessCluster::CancelStepOnWorkers(const std::string& session,
                                         int64_t step_id,
                                         const Status& reason) {
  std::string body;
  AppendString(&body, session);
  AppendInt64(&body, step_id);
  AppendStatus(&body, reason);
  for (const auto& task : tasks_) {
    // Fire-and-forget: a dead worker fails the call fast (backoff window),
    // a live one aborts its local waiters. Either way nobody blocks here.
    task->stub->channel()->Call(
        Method::kCancelStep, std::string(body), nullptr, 0,
        /*deadline_seconds=*/1.0, [](const Status&, std::string) {});
  }
}

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro
