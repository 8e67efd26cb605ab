// Master-side stub for one worker process (DESIGN.md §11): implements
// WorkerInterface over an RpcChannel, so the master's compile/dispatch/
// probe/recovery machinery is byte-for-byte the same code as in-process.
//
// The stub only moves bytes. Injected faults are decided above it, by the
// FaultInjectingWorker a ProcessCluster hands out in front of it when an
// injector is set (fault_injector.h); real process death needs no injector
// at all — the connection resets and the channel fails the call with a
// retryable error.
//
// A dispatch's Executor::Args::rendezvous must be the step's
// SocketStepRendezvous (process_cluster.h): RunGraph appends its routing.

#ifndef TFREPRO_DISTRIBUTED_RPC_REMOTE_WORKER_H_
#define TFREPRO_DISTRIBUTED_RPC_REMOTE_WORKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/status.h"
#include "distributed/cluster.h"
#include "distributed/rpc/rpc_channel.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

class RemoteWorker : public WorkerInterface {
 public:
  RemoteWorker(const std::string& job, int task_index, int port,
               double rpc_deadline_seconds);

  const std::string& job() const override { return job_; }
  int task_index() const override { return task_index_; }

  Status RegisterSubgraph(const std::string& handle, const std::string& segment,
                          std::shared_ptr<const Graph> partition,
                          const std::string& device_name) override;

  void RunSubgraphsAsync(const std::string& handle, const Executor::Args& args,
                         std::function<void(Status)> done) override;

  void PingAsync(std::function<void(Status)> done) override;

  bool HasSubgraphs(const std::string& handle) const override;

  int64_t incarnation() const override { return incarnation_.load(); }

  // --- used by ProcessCluster on restart ---
  // Points the channel at the respawned process and bumps incarnation, so
  // the master re-registers subgraphs instead of trusting stale ones.
  void TargetRestartedProcess(int port);

  RpcChannel* channel() { return &channel_; }

 private:
  const std::string job_;
  const int task_index_;
  const double rpc_deadline_seconds_;
  mutable RpcChannel channel_;
  std::atomic<int64_t> incarnation_{1};
};

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_RPC_REMOTE_WORKER_H_
