// Multi-process cluster (DESIGN.md §11): every task of the ClusterSpec is
// a real OS process running worker_main, spawned with fork/exec and spoken
// to through a RemoteWorker stub. The master keeps:
//
//   * one RemoteWorker (and its RpcChannel) per task — the stable identity
//     the master holds across restarts; restarting a task swaps the process
//     behind the stub, never the stub itself;
//   * shadow CPU devices mirroring each process's devices by name, so
//     placement and partitioning run unchanged (kernels never execute on
//     them);
//   * the live steps of each session, whose lowest step id is the floor
//     every RunGraph carries (worker_service.h).
//
// Cross-task tensors never pass through this process: each RunGraph
// carries every task's current port, and workers push tensors to each
// other directly.
//
// Process lifecycle: the parent hands the child the write end of a pipe
// (--ready_fd); the child binds an ephemeral service port and writes it
// there with a newline. The parent polls the read end for up to 10 s; EOF
// before a port means the child died during startup. The child keeps its
// end open and the parent holds the read end until it reaps the child, so
// the pipe is a lifeline: when this process dies, the kernel closes the
// read end and the worker exits instead of living on as an orphan.
// Liveness is waitpid(WNOHANG): TaskIsDown reaps and reports a SIGKILLed
// child, and RestartTask respawns it, retargets the stub, bumps the
// incarnation and lets the master's existing re-register +
// checkpoint-recovery path do the rest. Destruction drains gracefully:
// Shutdown RPC, bounded wait, SIGKILL stragglers.
//
// KillTaskProcess is the chaos hook: SIGKILL a live worker, no respawn, no
// bookkeeping — exactly what a machine failure looks like to the master.

#ifndef TFREPRO_DISTRIBUTED_RPC_PROCESS_CLUSTER_H_
#define TFREPRO_DISTRIBUTED_RPC_PROCESS_CLUSTER_H_

#include <sys/types.h>
#include <unistd.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/threadpool.h"
#include "distributed/cluster.h"
#include "distributed/rpc/remote_worker.h"
#include "distributed/rpc/worker_service.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

class ProcessCluster;

// The master's rendezvous for one step over sockets. The master runs no
// kernels and tensors go worker to worker, so it matches no tensors. It
// carries the step's routing, which every RunGraph of the step appends,
// and StartAbort fans CancelStep out to the workers. `cluster` is told when
// the step ends, which can raise the session's floor; a stub driven
// without a cluster passes null.
class SocketStepRendezvous : public Rendezvous {
 public:
  SocketStepRendezvous(ProcessCluster* cluster, int64_t step_id,
                       const StepRouting& routing);
  ~SocketStepRendezvous() override;

  SocketStepRendezvous(const SocketStepRendezvous&) = delete;
  SocketStepRendezvous& operator=(const SocketStepRendezvous&) = delete;

  // StepRouting::AppendToBytes of the step's routing.
  const std::string& routing() const { return routing_; }

  Status Send(const std::string& key, const Tensor& value,
              bool is_dead) override;
  void RecvAsync(const std::string& key, DoneCallback done) override;
  void StartAbort(const Status& status) override;

 private:
  ProcessCluster* cluster_;
  const std::string session_;
  const int64_t step_id_;
  std::string routing_;
};

class ProcessCluster : public Cluster {
 public:
  using Options = Cluster::Options;

  static Result<std::unique_ptr<ProcessCluster>> Create(
      const ClusterSpec& spec, const Options& options);

  ~ProcessCluster() override;

  std::vector<Device*> all_devices() const override;

  Status RestartTask(const std::string& job, int task_index) override;
  bool TaskIsDown(WorkerInterface* worker) const override;

  // A SocketStepRendezvous whose routing names the session's current floor
  // and every task's port.
  std::shared_ptr<Rendezvous> NewStepRendezvous(const std::string& session,
                                                int64_t step_id) override;

  // Chaos hook: SIGKILL the task's live process and do nothing else — the
  // master must notice (failed dispatch or missed probes) and recover on
  // its own. Errors if the process is already gone.
  Status KillTaskProcess(const std::string& job, int task_index);

  // Fans CancelStep to every worker (fire-and-forget, short deadline);
  // called by a step's rendezvous on abort.
  void CancelStepOnWorkers(const std::string& session, int64_t step_id,
                           const Status& reason);

  // Called by a step's rendezvous when it is destroyed.
  void EndStep(const std::string& session, int64_t step_id);

 private:
  struct Task {
    std::string job;
    int task_index = 0;
    RemoteWorker* stub = nullptr;  // owned by the base
    pid_t pid = -1;
    int port = 0;
    int lifeline = -1;    // the pipe's read end, held until the reap
    bool reaped = false;  // waitpid already collected the child
    std::vector<std::unique_ptr<Device>> shadow_devices;

    void MarkReaped() {
      reaped = true;
      if (lifeline >= 0) ::close(lifeline);
      lifeline = -1;
    }
  };

  ProcessCluster(const ClusterSpec& spec, const Options& options);

  Status Initialize();
  // fork/exec of worker_main; on success fills task->pid, task->port and
  // task->lifeline.
  Status SpawnProcess(Task* task);
  // SIGKILLs (if needed) and reaps the task's process. Must hold procs_mu_.
  void ReapLocked(Task* task, bool force_kill);

  Result<Task*> FindTask(const std::string& job, int task_index) const;
  // waitpid(WNOHANG) check-and-reap. Must hold procs_mu_.
  bool ProcessGoneLocked(Task* task) const;

  Options options_;
  std::string worker_binary_;
  // The shadow devices' pool: constant folding at compile time runs its
  // kernels on the first of them.
  ThreadPool shadow_pool_;
  std::vector<std::unique_ptr<Task>> tasks_;
  // Guards pid/reaped/port/lifeline state: TaskIsDown (any thread) races RestartTask
  // and the destructor on waitpid, which collects each child exactly once.
  mutable std::mutex procs_mu_;
  // (session, step id) of every step whose rendezvous is alive.
  std::mutex steps_mu_;
  std::set<std::pair<std::string, int64_t>> live_steps_;
};

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_RPC_PROCESS_CLUSTER_H_
