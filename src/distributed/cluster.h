// Cluster substrate (paper §3.3). Each task ("/job:ps/task:0",
// "/job:worker/task:3", ...) is a worker owning devices, a threadpool and
// registered subgraphs. Two transports implement the same interfaces and
// differ only in how they move bytes and run tasks:
//
//   * "inprocess" (default): every task is a TaskWorker object in this
//     process, dispatch is a function call, transfers go through a shared
//     rendezvous.
//   * "socket": every task is a real OS process (worker_main) spoken to
//     over length-prefixed TCP frames (src/distributed/rpc/, DESIGN.md
//     §11); cross-task tensors go from the sending process straight to
//     the receiving one. A killed process is a genuinely dead peer:
//     connections reset, dispatches fail with retryable errors, and the
//     master's recovery paths (§4.3) restart the process and restore from
//     a checkpoint.
//
// The master only sees the abstract Cluster / WorkerInterface types, so
// every fault-tolerance path (probing, restart, re-registration, recovery)
// is transport-independent. Injected dispatch and probe faults are decided
// above both transports too: with a FaultInjector set, worker() and
// workers() hand out each task behind a FaultInjectingWorker
// (fault_injector.h).

#ifndef TFREPRO_DISTRIBUTED_CLUSTER_H_
#define TFREPRO_DISTRIBUTED_CLUSTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/threadpool.h"
#include "runtime/device.h"
#include "runtime/executor.h"
#include "runtime/rendezvous.h"

namespace tfrepro {
namespace distributed {

class FaultInjector;

// Jobs and their task counts, e.g. {{"ps", 2}, {"worker", 4}}.
struct ClusterSpec {
  std::map<std::string, int> jobs;
  // Transport selector: "inprocess" | "socket". Empty = the
  // TFREPRO_TRANSPORT environment variable, falling back to "inprocess".
  std::string transport;
};

// One task of the cluster, as the master sees it: subgraph registration,
// step dispatch, liveness probing. Implemented by TaskWorker (in-process)
// and rpc::RemoteWorker (a stub speaking to a worker_main process), and by
// the FaultInjectingWorker that fronts either when an injector is set.
class WorkerInterface {
 public:
  virtual ~WorkerInterface() = default;

  virtual const std::string& job() const = 0;
  virtual int task_index() const = 0;
  std::string task_name() const {
    return "/job:" + job() + "/task:" + std::to_string(task_index());
  }

  // Registers one per-device partition under (handle, device); creates its
  // executor (remotely: ships the serialized partition to the worker
  // process). The partition is immutable and may be shared with the
  // master, which keeps it to re-register after a restart. `handle` names
  // the step's subgraph set; `segment` keys kernel sharing and must be
  // stable for the whole session so stateful kernels (variables, queues)
  // are shared across step signatures.
  virtual Status RegisterSubgraph(const std::string& handle,
                                  const std::string& segment,
                                  std::shared_ptr<const Graph> partition,
                                  const std::string& device_name) = 0;

  // Runs all subgraphs registered under `handle` for one step; `done` fires
  // once with the first error (or OK). This is the "one small message to
  // each participating task" of §3.3. `done` may fire from another thread
  // — or, for a hung in-process task or an injected hang, never (the
  // master's deadline is the only exit then; the socket transport always
  // fails a dispatch whose deadline expires).
  virtual void RunSubgraphsAsync(const std::string& handle,
                                 const Executor::Args& args,
                                 std::function<void(Status)> done) = 0;

  // Liveness probe (paper §4.3 health monitoring), answered through the
  // same transport as a dispatch so real failures and injected ones apply.
  virtual void PingAsync(std::function<void(Status)> done) = 0;

  virtual bool HasSubgraphs(const std::string& handle) const = 0;

  // Incremented by each restart; lets the master distinguish "the task I
  // registered subgraphs on" from "its restarted successor".
  virtual int64_t incarnation() const = 0;
};

// One task of the in-process cluster: devices + threadpool + registered
// subgraphs.
class TaskWorker : public WorkerInterface {
 public:
  TaskWorker(const std::string& job, int task_index, int num_threads,
             int num_devices);

  const std::string& job() const override { return job_; }
  int task_index() const override { return task_index_; }
  DeviceMgr* device_mgr() { return &device_mgr_; }

  Status RegisterSubgraph(const std::string& handle,
                          const std::string& segment,
                          std::shared_ptr<const Graph> partition,
                          const std::string& device_name) override;

  void RunSubgraphsAsync(const std::string& handle, const Executor::Args& args,
                         std::function<void(Status)> done) override;

  // Answered off a pool thread, like a real RPC response.
  void PingAsync(std::function<void(Status)> done) override;

  bool HasSubgraphs(const std::string& handle) const override;

  // The call-frame size the subgraphs registered under `handle` fill: their
  // largest _Fetch index + 1. NotFound for an unknown handle.
  Result<int> NumFetchSlots(const std::string& handle) const;

  // Wipes every registered subgraph/executor and all device state (cached
  // kernels, resources) — the task comes back as a fresh process with empty
  // memory. The master re-registers subgraphs and the recovery hook
  // restores variables from a checkpoint (§4.3). Must not race with
  // in-flight steps on this task. Bumps incarnation().
  void Reset();

  int64_t incarnation() const override;

 private:
  std::string job_;
  int task_index_;
  ThreadPool pool_;
  DeviceMgr device_mgr_;
  mutable std::mutex mu_;
  struct RegisteredGraph {
    std::shared_ptr<const Graph> graph;
    std::unique_ptr<Executor> executor;
  };
  struct Registration {
    std::vector<RegisteredGraph> graphs;
    int num_fetch_slots = 0;
  };
  std::map<std::string, Registration> subgraphs_;
  std::atomic<int64_t> incarnation_{1};
};

// Owns every task of a cluster, behind whichever transport. The master and
// health prober program against this interface only.
class Cluster {
 public:
  struct Options {
    int threads_per_task = 2;
    int devices_per_task = 1;
    // Optional fault injector (not owned; must outlive the cluster). Every
    // step dispatch and health probe consults it through the
    // FaultInjectingWorker each task is handed out behind; in process it
    // also sees every cross-task transfer. Over sockets transfers go worker
    // to worker, out of its sight, so a step with a transfer drop pending
    // fails with Unimplemented.
    FaultInjector* fault_injector = nullptr;

    // --- socket transport only ---
    // Per-RPC deadline for control calls (Register/Ping/Shutdown), for each
    // worker's SendTensor acks, and the floor for RunGraph (which stretches
    // to the step deadline). The worker_main binary comes from
    // TFREPRO_WORKER_BINARY, else alongside the current executable.
    double rpc_deadline_seconds = 5.0;
  };

  virtual ~Cluster() = default;

  // Builds a cluster on the transport `spec.transport` selects (empty =
  // env TFREPRO_TRANSPORT, then "inprocess").
  static Result<std::unique_ptr<Cluster>> Create(const ClusterSpec& spec,
                                                 const Options& options);
  static Result<std::unique_ptr<Cluster>> Create(const ClusterSpec& spec) {
    return Create(spec, Options{});
  }

  // The workers the master drives: each task's own, or with an injector set
  // the FaultInjectingWorker in front of it.
  Result<WorkerInterface*> worker(const std::string& job,
                                  int task_index) const;
  std::vector<WorkerInterface*> workers() const { return workers_; }

  // Every device in the cluster, for placement. Over the socket transport
  // these are master-side shadow devices mirroring each process's devices
  // by name; kernels never run on them.
  virtual std::vector<Device*> all_devices() const = 0;

  // Restarts a (killed) task in place. The WorkerInterface object — and
  // every pointer to it — stays valid; only what it fronts is reborn
  // (wiped state in-process; a fresh OS process over sockets). Bumps the
  // worker's incarnation and marks it healthy in the fault injector.
  virtual Status RestartTask(const std::string& job, int task_index) = 0;

  // True when the transport knows `worker` cannot currently serve a step
  // (fault injector says down; socket: the process was reaped). Used by
  // the master to fail fast before dispatch and to pick restart victims on
  // retry.
  virtual bool TaskIsDown(WorkerInterface* worker) const = 0;

  // The rendezvous of step `step_id` of `session`, built for this
  // transport. In process it is the transfer chain itself; over sockets the
  // tensors move between worker processes, and the master's rendezvous
  // fans a step abort out to them (see rpc/process_cluster.h). The caller
  // mints step ids and builds their rendezvous under one lock, so a
  // session's steps are created in step-id order.
  virtual std::shared_ptr<Rendezvous> NewStepRendezvous(
      const std::string& session, int64_t step_id) = 0;

  const ClusterSpec& spec() const { return spec_; }
  FaultInjector* fault_injector() const { return fault_injector_; }

 protected:
  // `injector_sees_transfers`: this transport's step rendezvous passes
  // cross-task transfers through the injector, so a scripted drop can fire.
  Cluster(const ClusterSpec& spec, FaultInjector* injector,
          bool injector_sees_transfers);

  // Takes one task's worker and hands it out through worker() and
  // workers(), behind a FaultInjectingWorker when an injector is set.
  void AddWorker(std::unique_ptr<WorkerInterface> worker);

  ClusterSpec spec_;
  FaultInjector* fault_injector_ = nullptr;

 private:
  const bool injector_sees_transfers_;
  // Each task's own worker and, with an injector, its FaultInjectingWorker.
  std::vector<std::unique_ptr<WorkerInterface>> owned_;
  std::vector<WorkerInterface*> workers_;  // handed out, in task order
  // Sleeps out injected delays, never on a task's own threads; only with an
  // injector. Declared last so that it drains before the workers it
  // dispatches to are destroyed.
  std::unique_ptr<ThreadPool> delay_pool_;
};

// Every task's worker lives in this process.
class InProcessCluster : public Cluster {
 public:
  using Options = Cluster::Options;

  static Result<std::unique_ptr<InProcessCluster>> Create(
      const ClusterSpec& spec, const Options& options);
  static Result<std::unique_ptr<InProcessCluster>> Create(
      const ClusterSpec& spec) {
    return Create(spec, Options{});
  }

  std::vector<Device*> all_devices() const override;

  Status RestartTask(const std::string& job, int task_index) override;
  bool TaskIsDown(WorkerInterface* worker) const override;

  // A sharded LocalRendezvous, fault-injecting when an injector is set.
  std::shared_ptr<Rendezvous> NewStepRendezvous(const std::string& session,
                                                int64_t step_id) override;

 private:
  InProcessCluster(const ClusterSpec& spec, const Options& options);
  Result<TaskWorker*> task_worker(const std::string& job,
                                  int task_index) const;
  std::vector<TaskWorker*> tasks_;  // owned by the base
};

// InvalidArgument unless `spec` names at least one job, each with a task.
Status ValidateSpec(const ClusterSpec& spec);

}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_CLUSTER_H_
