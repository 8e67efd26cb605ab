// The server side of one worker process (DESIGN.md §11). worker_main
// instantiates a WorkerService, which owns:
//
//   * a TaskWorker — the same devices/executors/subgraph registry the
//     in-process transport uses, so kernels behave identically under both
//     transports;
//   * an RpcServer answering the master's control RPCs (RegisterSubgraph,
//     RunGraph, Ping, HasSubgraphs, CancelStep, Shutdown);
//   * an RpcChannel to the master's rendezvous hub, through which every
//     cross-task tensor flows.
//
// Each RunGraph builds a per-step context: the call frame rebuilt from the
// shipped feeds, a cancellation manager, and a WorkerRendezvous that routes
// same-task transfers through a process-local rendezvous and cross-task
// transfers to the hub. When the step's executors have finished and every
// cross-task Send has been acknowledged, the initialized fetch slots are
// shipped back in the response and the context is dropped.
//
// CancelStep lets the master abort a step whose failure it noticed first
// (another worker died): local waiters park in the process-local
// rendezvous, which the hub's abort cannot reach, so the master must tell
// each surviving worker explicitly.

#ifndef TFREPRO_DISTRIBUTED_RPC_WORKER_SERVICE_H_
#define TFREPRO_DISTRIBUTED_RPC_WORKER_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/status.h"
#include "distributed/cluster.h"
#include "distributed/rpc/rpc_channel.h"
#include "distributed/rpc/rpc_server.h"
#include "runtime/kernel.h"
#include "runtime/rendezvous.h"
#include "runtime/tracing.h"

namespace tfrepro {
namespace distributed {

class DataServiceHandler;

namespace rpc {

// Per-step rendezvous inside a worker process. Same-task keys (both
// endpoint devices on this process's task) use a process-local
// LocalRendezvous; cross-task keys go to the master's hub.
//
// Send is asynchronous and acknowledged: it writes the SendTensor frame
// (bounded by the send deadline) and returns; the hub's answer is the ack.
// The first failed ack aborts the step's local waiters and cancels its
// kernels at once, and later Sends fail with it. WhenSendsAcked holds the
// step's RunGraph answer until every ack is in, so the master never tears
// down a step with tensors in flight and a failed send fails the step.
//
// Recv long-polls the hub (no deadline: a legitimate Recv may wait
// arbitrarily long, and a dead master resets the connection, which fails
// the poll with a retryable error). Recv completions are dispatched onto
// `done_pool`, never run inline on the hub channel's reader thread, because
// that thread must never block on a write: the executor continues
// downstream nodes inside `done`, and a downstream cross-task Send writes
// to the hub on the very connection the reader drains — with the socket
// buffers full, neither side would make progress.
class WorkerRendezvous : public Rendezvous,
                         public std::enable_shared_from_this<WorkerRendezvous> {
 public:
  // `hub` and `done_pool` must outlive this rendezvous, `cancellation`
  // must outlive every ack of the step (the step context owns both).
  // `send_deadline_seconds` bounds each SendTensor ack (the hub answers
  // at once; only a wedged master can stall it). Create with make_shared:
  // in-flight acks hold a reference.
  WorkerRendezvous(RpcChannel* hub, ThreadPool* done_pool, int64_t step_id,
                   double send_deadline_seconds,
                   CancellationManager* cancellation);

  Status Send(const std::string& key, const Tensor& value,
              bool is_dead) override;
  void RecvAsync(const std::string& key, DoneCallback done) override;
  void StartAbort(const Status& status) override;

  // Called once, after the step's executors finished with
  // `executors_status`. `done` receives the step's first error — an
  // executor's or a failed ack's — once every Send has been acknowledged:
  // inline when none is in flight, otherwise from `done_pool`.
  void WhenSendsAcked(const Status& executors_status,
                      std::function<void(Status)> done);

  // A key is cross-task when its send and recv devices name different
  // tasks ("/job:worker/task:0/..." vs "/job:ps/task:1/...").
  static bool IsCrossTaskKey(const std::string& key);

 private:
  // Runs on the hub channel's reader thread (or inline in Send when the
  // write fails at once).
  void OnAck(const Status& status);
  // Counts one arrived ack; the last one releases the RunGraph answer.
  void CountAck();

  RpcChannel* hub_;
  ThreadPool* done_pool_;
  const int64_t step_id_;
  const double send_deadline_seconds_;
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
    // Port of the master's rendezvous hub.
    int hub_port = 0;
    // Deadline for this worker's own outbound RPCs (each SendTensor ack).
    double rpc_deadline_seconds = 5.0;
  };

  explicit WorkerService(const Options& options);
  ~WorkerService();

  // Hosts a shared data service on this worker's RPC port: GetElement
  // frames are answered by `handler` (distributed/data_service.h). Must be
  // called before Start; without it GetElement answers FailedPrecondition.
  // This is how a pipeline task is just another worker process — spawn
  // worker_main with --data_files=... and point DataServiceClients at its
  // port.
  void AttachDataService(std::shared_ptr<DataServiceHandler> handler);

  // Binds the service socket (port 0 = ephemeral, see port()) and starts
  // answering RPCs.
  Status Start(int port);
  int port() const { return server_.port(); }

  // Blocks until a Shutdown RPC arrives (or RequestShutdown is called).
  void WaitForShutdown();
  void RequestShutdown();

 private:
  struct StepCtx {
    std::unique_ptr<CallFrame> frame;
    CancellationManager cancellation;
    std::shared_ptr<WorkerRendezvous> rendezvous;
    Executor::Args args;  // outlives the async executor run
    // Set when the master requested a traced step (DESIGN.md §12): the
    // collected StepStats ride back on the RunGraph response together with
    // the request-receive / response-build timestamps the master needs for
    // clock-skew normalization.
    std::unique_ptr<TraceCollector> trace;
    int64_t recv_micros = 0;  // w0: when the RunGraph request arrived
  };

  void HandleRegisterSubgraph(const std::string& body,
                              std::shared_ptr<RpcServer::Responder> responder);
  void HandleRunGraph(const std::string& body,
                      std::shared_ptr<RpcServer::Responder> responder);
  void HandleCancelStep(const std::string& body,
                        std::shared_ptr<RpcServer::Responder> responder);

  Options options_;
  // Answers GetElement when this worker doubles as the pipeline task.
  std::shared_ptr<DataServiceHandler> data_service_;
  // Runs hub-recv completions (and through them, downstream executor
  // nodes) and RunGraph answers released by a step's last ack. Declared
  // before worker_/hub_ so it is destroyed after them: by then the steps_
  // drain below guarantees it is idle.
  ThreadPool recv_done_pool_;
  TaskWorker worker_;
  RpcChannel hub_;
  RpcServer server_;

  std::mutex steps_mu_;
  // Signalled whenever a step finishes; the destructor waits on it so no
  // executor callback can outlive the members it touches.
  std::condition_variable steps_done_cv_;
  std::map<int64_t, std::shared_ptr<StepCtx>> steps_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_RPC_WORKER_SERVICE_H_
