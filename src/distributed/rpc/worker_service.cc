#include "distributed/rpc/worker_service.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "distributed/data_service.h"
#include "distributed/fault_injector.h"
#include "graph/graph_io.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

WorkerRendezvous::WorkerRendezvous(RpcChannel* hub, ThreadPool* done_pool,
                                   int64_t step_id,
                                   double send_deadline_seconds,
                                   CancellationManager* cancellation)
    : hub_(hub),
      done_pool_(done_pool),
      step_id_(step_id),
      send_deadline_seconds_(send_deadline_seconds),
      cancellation_(cancellation) {}

bool WorkerRendezvous::IsCrossTaskKey(const std::string& key) {
  return distributed::IsCrossTaskKey(key);
}

Status WorkerRendezvous::Send(const std::string& key, const Tensor& value,
                              bool is_dead) {
  if (!IsCrossTaskKey(key)) return local_.Send(key, value, is_dead);
  {
    std::lock_guard<std::mutex> lock(ack_mu_);
    if (!step_status_.ok()) return step_status_;
    ++acks_pending_;
  }
  std::string body;
  AppendInt64(&body, step_id_);
  AppendString(&body, key);
  AppendInt64(&body, is_dead ? 1 : 0);
  const char* payload = nullptr;
  size_t payload_len = 0;
  AppendTensorMeta(value, &body, &payload, &payload_len);
  // The frame (payload included) is written before Call returns, so
  // `value` need not outlive this Send; the ack arrives later.
  hub_->Call(Method::kSendTensor, std::move(body), payload, payload_len,
             send_deadline_seconds_,
             [self = shared_from_this()](const Status& transport,
                                         std::string response) {
               Status status = transport;
               size_t offset = 0;
               if (status.ok() && !ReadStatus(response, &offset, &status)) {
                 status = DataLoss("malformed SendTensor response");
               }
               self->OnAck(status);
             });
  return Status::OK();
}

void WorkerRendezvous::OnAck(const Status& status) {
  bool first_error = false;
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(ack_mu_);
    if (step_status_.ok()) {
      step_status_ = status;
      first_error = true;
    }
  }
  if (!first_error) {
    CountAck();
    return;
  }
  // The tensor may never reach its Recv: fail the step now rather than
  // leave its waiters parked until a deadline. Aborted kernels resume the
  // executor, whose transfers write to the hub, so this runs on the pool,
  // not the reader thread; the ack is counted only afterwards, which keeps
  // the step context (and `cancellation_`) alive until then.
  done_pool_->Schedule([self = shared_from_this(), status]() {
    self->local_.StartAbort(status);
    self->cancellation_->StartCancel();
    self->CountAck();
  });
}

void WorkerRendezvous::CountAck() {
  std::function<void(Status)> acked;
  Status step_status;
  {
    std::lock_guard<std::mutex> lock(ack_mu_);
    if (--acks_pending_ > 0 || !acked_) return;
    acked = std::move(acked_);
    step_status = step_status_;
  }
  // Off the hub channel's reader thread: answering RunGraph is a write.
  done_pool_->Schedule([acked = std::move(acked), step_status]() {
    acked(step_status);
  });
}

void WorkerRendezvous::WhenSendsAcked(const Status& executors_status,
                                      std::function<void(Status)> done) {
  Status step_status;
  {
    std::lock_guard<std::mutex> lock(ack_mu_);
    if (step_status_.ok()) step_status_ = executors_status;
    if (acks_pending_ > 0) {
      acked_ = std::move(done);
      return;
    }
    step_status = step_status_;
  }
  done(step_status);
}

void WorkerRendezvous::RecvAsync(const std::string& key, DoneCallback done) {
  if (!IsCrossTaskKey(key)) {
    local_.RecvAsync(key, std::move(done));
    return;
  }
  std::string body;
  AppendInt64(&body, step_id_);
  AppendString(&body, key);
  // No deadline: a Recv may legitimately park for the whole step. A dead
  // master resets the connection, which fails this poll with Unavailable; a
  // step abort at the hub answers it with the abort status.
  // The completion is parsed on the channel's reader thread but `done` is
  // dispatched to the pool: done resumes the executor, whose downstream
  // nodes may write a Send on this same channel — the reader thread must
  // never block on a write (see the class comment).
  hub_->Call(
      Method::kRecvTensor, std::move(body), nullptr, 0,
      /*deadline_seconds=*/0.0,
      [done = std::move(done), pool = done_pool_](const Status& transport,
                                                  std::string response) {
        Status status = transport;
        Tensor value;
        bool is_dead = false;
        if (status.ok()) {
          size_t offset = 0;
          Status app;
          int64_t dead = 0;
          if (!ReadStatus(response, &offset, &app)) {
            status = DataLoss("malformed RecvTensor response");
          } else if (!app.ok()) {
            status = app;
          } else if (!ReadInt64(response, &offset, &dead)) {
            status = DataLoss("malformed RecvTensor response");
          } else {
            Result<Tensor> parsed = Tensor::ParseFromBytes(response, &offset);
            if (!parsed.ok()) {
              status = parsed.status();
            } else {
              value = std::move(parsed.value());
              is_dead = dead != 0;
            }
          }
        }
        pool->Schedule([done = std::move(done), status = std::move(status),
                        value = std::move(value), is_dead]() {
          done(status, value, is_dead);
        });
      });
}

void WorkerRendezvous::StartAbort(const Status& status) {
  // Only local waiters need the push; cross-task polls are parked at the
  // hub, where the master's own abort (or connection teardown) fails them.
  local_.StartAbort(status);
}

WorkerService::WorkerService(const Options& options)
    : options_(options),
      recv_done_pool_("recv-done", std::max(2, options.num_threads)),
      worker_(options.job, options.task_index, options.num_threads,
              options.num_devices, /*injector=*/nullptr),
      hub_("hub", options.hub_port) {}

void WorkerService::AttachDataService(
    std::shared_ptr<DataServiceHandler> handler) {
  data_service_ = std::move(handler);
}

WorkerService::~WorkerService() {
  // Unblock reader threads parked in a dataset GetNext before joining them.
  if (data_service_ != nullptr) data_service_->Cancel();
  server_.Shutdown();
  hub_.Shutdown();
  // Abort whatever steps are still running and wait for their executors to
  // let go of the per-step contexts before members start destructing. The
  // aborts run unlocked: an aborted step may finish inline and erase itself.
  std::vector<std::shared_ptr<StepCtx>> running;
  {
    std::lock_guard<std::mutex> lock(steps_mu_);
    for (auto& [step_id, ctx] : steps_) running.push_back(ctx);
  }
  for (auto& ctx : running) {
    ctx->cancellation.StartCancel();
    ctx->rendezvous->StartAbort(Cancelled("worker shutting down"));
  }
  running.clear();
  std::unique_lock<std::mutex> lock(steps_mu_);
  steps_done_cv_.wait(lock, [this]() { return steps_.empty(); });
}

Status WorkerService::Start(int port) {
  server_.RegisterHandler(
      Method::kRegisterSubgraph,
      [this](const std::string& body,
             std::shared_ptr<RpcServer::Responder> responder) {
        HandleRegisterSubgraph(body, std::move(responder));
      });
  server_.RegisterHandler(
      Method::kRunGraph,
      [this](const std::string& body,
             std::shared_ptr<RpcServer::Responder> responder) {
        HandleRunGraph(body, std::move(responder));
      });
  server_.RegisterHandler(
      Method::kCancelStep,
      [this](const std::string& body,
             std::shared_ptr<RpcServer::Responder> responder) {
        HandleCancelStep(body, std::move(responder));
      });
  server_.RegisterHandler(
      Method::kPing, [](const std::string& body,
                        std::shared_ptr<RpcServer::Responder> responder) {
        (void)body;
        responder->Respond(Status::OK(), std::string());
      });
  server_.RegisterHandler(
      Method::kHasSubgraphs,
      [this](const std::string& body,
             std::shared_ptr<RpcServer::Responder> responder) {
        size_t offset = 0;
        std::string handle;
        if (!ReadString(body, &offset, &handle)) {
          responder->Respond(InvalidArgument("malformed HasSubgraphs request"),
                             std::string());
          return;
        }
        std::string reply;
        AppendInt64(&reply, worker_.HasSubgraphs(handle) ? 1 : 0);
        responder->Respond(Status::OK(), reply);
      });
  server_.RegisterHandler(
      Method::kShutdown,
      [this](const std::string& body,
             std::shared_ptr<RpcServer::Responder> responder) {
        (void)body;
        responder->Respond(Status::OK(), std::string());
        RequestShutdown();
      });
  server_.RegisterHandler(
      Method::kGetElement,
      [this](const std::string& body,
             std::shared_ptr<RpcServer::Responder> responder) {
        if (data_service_ == nullptr) {
          responder->Respond(
              FailedPrecondition("this task hosts no data service"),
              std::string());
          return;
        }
        data_service_->HandleGetElement(
            body, [responder](const Status& s, const std::string& resp) {
              responder->Respond(s, resp);
            });
      });
  return server_.Start(port);
}

void WorkerService::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this]() { return shutdown_requested_; });
}

void WorkerService::RequestShutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void WorkerService::HandleRegisterSubgraph(
    const std::string& body, std::shared_ptr<RpcServer::Responder> responder) {
  size_t offset = 0;
  std::string handle, segment, device_name;
  if (!ReadString(body, &offset, &handle) ||
      !ReadString(body, &offset, &segment) ||
      !ReadString(body, &offset, &device_name)) {
    responder->Respond(InvalidArgument("malformed RegisterSubgraph request"),
                       std::string());
    return;
  }
  Result<std::unique_ptr<Graph>> graph = ParseGraphFromBytes(body, &offset);
  if (!graph.ok()) {
    responder->Respond(graph.status(), std::string());
    return;
  }
  responder->Respond(worker_.RegisterSubgraph(handle, segment,
                                              std::move(graph.value()),
                                              device_name),
                     std::string());
}

void WorkerService::HandleRunGraph(
    const std::string& body, std::shared_ptr<RpcServer::Responder> responder) {
  const int64_t recv_micros = metrics::NowMicros();
  size_t offset = 0;
  std::string handle;
  int64_t step_id = 0, num_fetches = 0, num_feeds = 0;
  // A feed takes at least its dtype field (an uninitialized tensor).
  if (!ReadString(body, &offset, &handle) ||
      !ReadInt64(body, &offset, &step_id) ||
      !ReadInt64(body, &offset, &num_fetches) || num_fetches < 0 ||
      !ReadCount(body, &offset, sizeof(int64_t), &num_feeds)) {
    responder->Respond(InvalidArgument("malformed RunGraph request"),
                       std::string());
    return;
  }
  // The frame is sized by what the registered subgraphs fill, never by the
  // wire: a short body must not be able to ask for 2^31 fetch slots.
  Result<int> num_fetch_slots = worker_.NumFetchSlots(handle);
  if (!num_fetch_slots.ok()) {
    responder->Respond(num_fetch_slots.status(), std::string());
    return;
  }
  if (num_fetches < num_fetch_slots.value()) {
    responder->Respond(
        InvalidArgument("RunGraph for '" + handle + "' carries " +
                        std::to_string(num_fetches) +
                        " fetch slots; its subgraphs fill " +
                        std::to_string(num_fetch_slots.value())),
        std::string());
    return;
  }
  std::vector<Tensor> feeds;
  feeds.reserve(num_feeds);
  for (int64_t i = 0; i < num_feeds; ++i) {
    Result<Tensor> feed = Tensor::ParseFromBytes(body, &offset);
    if (!feed.ok()) {
      responder->Respond(feed.status(), std::string());
      return;
    }
    feeds.push_back(std::move(feed.value()));
  }
  int64_t traced = 0;
  if (!ReadInt64(body, &offset, &traced)) {
    responder->Respond(InvalidArgument("malformed RunGraph request"),
                       std::string());
    return;
  }

  auto ctx = std::make_shared<StepCtx>();
  ctx->frame = std::make_unique<CallFrame>(std::move(feeds),
                                           num_fetch_slots.value());
  ctx->rendezvous = std::make_shared<WorkerRendezvous>(
      &hub_, &recv_done_pool_, step_id, options_.rpc_deadline_seconds,
      &ctx->cancellation);
  ctx->args.step_id = step_id;
  ctx->args.rendezvous = ctx->rendezvous.get();
  ctx->args.call_frame = ctx->frame.get();
  ctx->args.cancellation = &ctx->cancellation;
  if (traced != 0) {
    ctx->trace = std::make_unique<TraceCollector>(/*capture_global_events=*/
                                                  true);
    ctx->args.trace = ctx->trace.get();
    ctx->recv_micros = recv_micros;
  }
  {
    std::lock_guard<std::mutex> lock(steps_mu_);
    steps_[step_id] = ctx;
  }

  // Answer once the executors have finished and every cross-task Send has
  // been acknowledged (first error wins).
  auto answer = [this, ctx, step_id, responder](Status status) {
    std::string reply;
    if (status.ok()) {
      // Ship back only the fetch slots this task's partitions produced;
      // the master merges per-task responses into its own call frame.
      const std::vector<Tensor>& fetches = ctx->frame->fetches();
      int64_t produced = 0;
      for (const Tensor& t : fetches) {
        if (t.IsInitialized()) ++produced;
      }
      AppendInt64(&reply, produced);
      for (size_t i = 0; i < fetches.size(); ++i) {
        if (!fetches[i].IsInitialized()) continue;
        AppendInt64(&reply, static_cast<int64_t>(i));
        fetches[i].AppendToBytes(&reply);
      }
      // Trace payload: [traced][w0][w1][StepStats]. w0/w1 bracket this
      // process's handling so the master can estimate the clock offset
      // from its own send/receive timestamps (DESIGN.md §12).
      AppendInt64(&reply, ctx->trace != nullptr ? 1 : 0);
      if (ctx->trace != nullptr) {
        StepStats stats = ctx->trace->Consume(step_id);
        AppendInt64(&reply, ctx->recv_micros);
        AppendInt64(&reply, metrics::NowMicros());
        stats.AppendToBytes(&reply);
      }
    }
    {
      std::lock_guard<std::mutex> lock(steps_mu_);
      steps_.erase(step_id);
      steps_done_cv_.notify_all();
    }
    responder->Respond(status, reply);
  };
  worker_.RunSubgraphsAsync(
      handle, ctx->args, [ctx, answer = std::move(answer)](Status status) {
        ctx->rendezvous->WhenSendsAcked(status, std::move(answer));
      });
}

void WorkerService::HandleCancelStep(
    const std::string& body, std::shared_ptr<RpcServer::Responder> responder) {
  size_t offset = 0;
  int64_t step_id = 0;
  Status reason;
  if (!ReadInt64(body, &offset, &step_id) ||
      !ReadStatus(body, &offset, &reason)) {
    responder->Respond(InvalidArgument("malformed CancelStep request"),
                       std::string());
    return;
  }
  std::shared_ptr<StepCtx> ctx;
  {
    std::lock_guard<std::mutex> lock(steps_mu_);
    auto it = steps_.find(step_id);
    if (it != steps_.end()) ctx = it->second;
  }
  if (ctx != nullptr) {
    ctx->cancellation.StartCancel();
    ctx->rendezvous->StartAbort(
        reason.ok() ? Aborted("step " + std::to_string(step_id) + " cancelled")
                    : reason);
  }
  // Unknown step = already finished; cancellation is idempotent either way.
  responder->Respond(Status::OK(), std::string());
}

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro
