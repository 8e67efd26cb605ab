// The server side of one worker process (DESIGN.md §11). worker_main
// instantiates a WorkerService, which owns:
//
//   * a TaskWorker — the same devices/executors/subgraph registry the
//     in-process transport uses, so kernels behave identically under both
//     transports;
//   * an RpcServer answering the master's RPCs (RegisterSubgraph, RunGraph,
//     Ping, HasSubgraphs, CancelStep, Shutdown) and the tensors its peers
//     push (SendTensor);
//   * one lazily dialed RpcChannel per peer task, through which this task's
//     cross-task Sends go straight to the receiving process.
//
// A step context holds the step's call frame, cancellation manager and
// WorkerRendezvous. Contexts are keyed by (session, step id) — two
// sessions on one cluster both count steps from 1 — and created on first
// touch: a peer's push can reach this task before its RunGraph does, and
// the RunGraph then adopts the context the push created. A context is
// dropped when its RunGraph answers (after the executors have finished and
// every cross-task Send has been acknowledged, shipping the initialized
// fetch slots back) or on CancelStep.
//
// Each RunGraph carries its session's step floor: the lowest step id whose
// master-side rendezvous is still alive. A step below it is over at the
// master, so its context is retired: dropped when no RunGraph adopted it
// (a step aborted before this task's RunGraph arrived, or a push that
// landed after CancelStep), aborted when one did. A push below the floor
// is answered Aborted.

#ifndef TFREPRO_DISTRIBUTED_RPC_WORKER_SERVICE_H_
#define TFREPRO_DISTRIBUTED_RPC_WORKER_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "distributed/cluster.h"
#include "distributed/rpc/rpc_channel.h"
#include "distributed/rpc/rpc_server.h"
#include "runtime/kernel.h"
#include "runtime/rendezvous.h"
#include "runtime/tracing.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

// The fields a RunGraph carries after `traced`, the same for every task of
// a step: what a worker needs to push the step's cross-task tensors
// straight to their receivers.
struct StepRouting {
  std::string session;     // with the step id, names the step's contexts
  int64_t step_floor = 0;  // the session's lowest live step id
  std::map<std::string, int64_t> ports;  // "/job:ps/task:0" -> its port

  void AppendToBytes(std::string* out) const;
  bool ParseFromBytes(const std::string& in, size_t* offset);
};

class WorkerService;

// Per-step rendezvous inside a worker process. Every Recv waits in the
// process-local LocalRendezvous: a same-task value is Sent into it
// directly, a cross-task value is pushed into it by the sending process
// (Deliver).
//
// A cross-task Send is asynchronous and acknowledged: it writes the
// SendTensor frame to the receiving task and returns; the receiver's
// answer is the ack. The first failed ack aborts the step's local waiters
// and cancels its kernels at once, and later Sends fail with it.
// WhenSendsAcked holds the step's RunGraph answer until every ack is in, so
// the master never ends a step with tensors in flight and a failed send
// fails the step.
//
// Acks arrive on a peer channel's reader thread, which must never block on
// a write: the abort a failed ack sets off resumes kernels whose
// downstream cross-task Sends write to peers, so it runs on the service's
// recv-done pool, as does a RunGraph answer released by the last ack.
class WorkerRendezvous : public Rendezvous,
                         public std::enable_shared_from_this<WorkerRendezvous> {
 public:
  // `service` must outlive this rendezvous and `cancellation` every ack of
  // the step (the step context owns both). Create with make_shared:
  // in-flight acks hold a reference.
  WorkerRendezvous(WorkerService* service, std::string session,
                   int64_t step_id, CancellationManager* cancellation);

  Status Send(const std::string& key, const Tensor& value,
              bool is_dead) override;
  void RecvAsync(const std::string& key, DoneCallback done) override;
  void StartAbort(const Status& status) override;

  // A value a peer pushed for this step.
  Status Deliver(const std::string& key, const Tensor& value, bool is_dead);

  // Called once, after the step's executors finished with
  // `executors_status`. `done` receives the step's first error — an
  // executor's or a failed ack's — once every Send has been acknowledged:
  // inline when none is in flight, otherwise from the recv-done pool.
  void WhenSendsAcked(const Status& executors_status,
                      std::function<void(Status)> done);

 private:
  // Runs on a peer channel's reader thread (or inline in Send when the
  // write fails at once).
  void OnAck(const Status& status);
  // Counts one arrived ack; the last one releases the RunGraph answer.
  void CountAck();

  WorkerService* service_;
  const std::string session_;
  const int64_t step_id_;
  CancellationManager* cancellation_;
  LocalRendezvous local_;

  std::mutex ack_mu_;
  int64_t acks_pending_ = 0;
  Status step_status_;  // first error: a failed ack or the executors'
  std::function<void(Status)> acked_;  // set while acks are pending
};

class WorkerService {
 public:
  struct Options {
    std::string job;
    int task_index = 0;
    int num_threads = 2;
    int num_devices = 1;
    // Deadline for this worker's own outbound RPCs (each SendTensor ack).
    double rpc_deadline_seconds = 5.0;
  };

  explicit WorkerService(const Options& options);
  ~WorkerService();

  // Binds the service socket (port 0 = ephemeral, see port()) and starts
  // answering RPCs.
  Status Start(int port);
  int port() const { return server_.port(); }

  // Blocks until a Shutdown RPC arrives (or RequestShutdown is called).
  void WaitForShutdown();
  void RequestShutdown();

  // Live step contexts: running steps, and steps a push created that no
  // RunGraph has adopted yet.
  int num_step_contexts() const;

 private:
  friend class WorkerRendezvous;

  using StepKey = std::pair<std::string, int64_t>;  // (session, step id)

  struct StepCtx {
    CancellationManager cancellation;
    std::shared_ptr<WorkerRendezvous> rendezvous;
    bool adopted = false;  // a RunGraph runs this step
    // Set by the adopting RunGraph.
    std::unique_ptr<CallFrame> frame;
    Executor::Args args;  // outlives the async executor run
    // Set when the master requested a traced step (DESIGN.md §12): the
    // collected StepStats ride back on the RunGraph response together with
    // the request-receive / response-build timestamps the master needs for
    // clock-skew normalization.
    std::unique_ptr<TraceCollector> trace;
    int64_t recv_micros = 0;  // w0: when the RunGraph request arrived
  };

  struct Peer {
    int64_t port = 0;
    std::unique_ptr<RpcChannel> channel;
  };

  void HandleRegisterSubgraph(const std::string& body,
                              std::shared_ptr<RpcServer::Responder> responder);
  void HandleRunGraph(const std::string& body,
                      std::shared_ptr<RpcServer::Responder> responder);
  void HandleSendTensor(const std::string& body,
                        std::shared_ptr<RpcServer::Responder> responder);
  void HandleCancelStep(const std::string& body,
                        std::shared_ptr<RpcServer::Responder> responder);

  // Sets *ctx to the context of `key`, created on first touch; Aborted
  // below its session's floor. Must hold steps_mu_.
  Status TouchStepLocked(const StepKey& key, std::shared_ptr<StepCtx>* ctx);
  // Raises the session's floor to `floor`: contexts below it no RunGraph
  // adopted are dropped, and every context below it is appended to
  // `retired` for the caller to abort outside the lock. Must hold
  // steps_mu_.
  void RaiseFloorLocked(const std::string& session, int64_t floor,
                        std::vector<std::shared_ptr<StepCtx>>* retired);
  static void Abort(StepCtx* ctx, const Status& status);

  // Points each peer's channel at the port the step names for it.
  void RetargetPeers(const std::map<std::string, int64_t>& ports);
  // The channel to `task`; nullptr if no RunGraph named its port.
  RpcChannel* PeerChannel(const std::string& task);

  Options options_;
  // Runs pushed-value deliveries (and through them, downstream executor
  // nodes), the aborts failed acks set off, and RunGraph answers released
  // by a step's last ack. Declared before worker_ and the peers so it is
  // destroyed after them: by then the destructor's drain guarantees it is
  // idle.
  ThreadPool recv_done_pool_;
  TaskWorker worker_;

  std::mutex peers_mu_;
  std::map<std::string, Peer> peers_;

  RpcServer server_;

  mutable std::mutex steps_mu_;
  // Signalled whenever a step finishes; the destructor waits on it so no
  // executor callback can outlive the members it touches.
  std::condition_variable steps_done_cv_;
  std::map<StepKey, std::shared_ptr<StepCtx>> steps_;
  std::map<std::string, int64_t> floors_;  // per session

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_RPC_WORKER_SERVICE_H_
