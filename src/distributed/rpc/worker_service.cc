#include "distributed/rpc/worker_service.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/metrics.h"
#include "graph/graph_io.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

void StepRouting::AppendToBytes(std::string* out) const {
  AppendString(out, session);
  AppendInt64(out, step_floor);
  AppendInt64(out, static_cast<int64_t>(ports.size()));
  for (const auto& [task, port] : ports) {
    AppendString(out, task);
    AppendInt64(out, port);
  }
}

bool StepRouting::ParseFromBytes(const std::string& in, size_t* offset) {
  int64_t num_ports = 0;
  if (!ReadString(in, offset, &session) ||
      !ReadInt64(in, offset, &step_floor) ||
      // A port takes at least its task's length field and the port.
      !ReadCount(in, offset, 2 * sizeof(int64_t), &num_ports)) {
    return false;
  }
  ports.clear();
  for (int64_t i = 0; i < num_ports; ++i) {
    std::string task;
    int64_t port = 0;
    if (!ReadString(in, offset, &task) || !ReadInt64(in, offset, &port) ||
        port < 0 || port > 65535) {
      return false;
    }
    ports[task] = port;
  }
  return true;
}

WorkerRendezvous::WorkerRendezvous(WorkerService* service, std::string session,
                                   int64_t step_id,
                                   CancellationManager* cancellation)
    : service_(service),
      session_(std::move(session)),
      step_id_(step_id),
      cancellation_(cancellation) {}

Status WorkerRendezvous::Send(const std::string& key, const Tensor& value,
                              bool is_dead) {
  if (!IsCrossTaskKey(key)) return local_.Send(key, value, is_dead);
  const std::string task = RecvTaskOfKey(key);
  RpcChannel* peer = service_->PeerChannel(task);
  if (peer == nullptr) {
    return FailedPrecondition("step " + std::to_string(step_id_) +
                              " names no port for task " + task);
  }
  {
    std::lock_guard<std::mutex> lock(ack_mu_);
    if (!step_status_.ok()) return step_status_;
    ++acks_pending_;
  }
  std::string body;
  AppendString(&body, session_);
  AppendInt64(&body, step_id_);
  AppendString(&body, key);
  AppendInt64(&body, is_dead ? 1 : 0);
  const char* payload = nullptr;
  size_t payload_len = 0;
  AppendTensorMeta(value, &body, &payload, &payload_len);
  // The frame (payload included) is written before Call returns, so
  // `value` need not outlive this call; the ack arrives later.
  peer->Call(Method::kSendTensor, std::move(body), payload, payload_len,
             service_->options_.rpc_deadline_seconds,
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
  // executor, whose transfers write to peers, so this runs on the pool, not
  // the reader thread; the ack is counted only afterwards, which keeps the
  // step context (and `cancellation_`) alive until then.
  service_->recv_done_pool_.Schedule([self = shared_from_this(), status]() {
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
  // Off the peer channel's reader thread: answering RunGraph is a write.
  service_->recv_done_pool_.Schedule(
      [acked = std::move(acked), step_status]() { acked(step_status); });
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
  local_.RecvAsync(key, std::move(done));
}

Status WorkerRendezvous::Deliver(const std::string& key, const Tensor& value,
                                 bool is_dead) {
  return local_.Send(key, value, is_dead);
}

void WorkerRendezvous::StartAbort(const Status& status) {
  local_.StartAbort(status);
}

WorkerService::WorkerService(const Options& options)
    : options_(options),
      recv_done_pool_("recv-done", std::max(2, options.num_threads)),
      worker_(options.job, options.task_index, options.num_threads,
              options.num_devices) {}

WorkerService::~WorkerService() {
  server_.Shutdown();
  // Fail pending acks at once instead of waiting out their deadlines.
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    for (auto& [task, peer] : peers_) peer.channel->Shutdown();
  }
  // Abort every step and wait for running ones to let go of their contexts
  // before members start destructing. The aborts run unlocked: an aborted
  // step may finish inline and erase itself.
  std::vector<std::shared_ptr<StepCtx>> live;
  {
    std::lock_guard<std::mutex> lock(steps_mu_);
    for (auto it = steps_.begin(); it != steps_.end();) {
      live.push_back(it->second);
      it = it->second->adopted ? std::next(it) : steps_.erase(it);
    }
  }
  for (auto& ctx : live) Abort(ctx.get(), Cancelled("worker shutting down"));
  live.clear();
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
      Method::kSendTensor,
      [this](const std::string& body,
             std::shared_ptr<RpcServer::Responder> responder) {
        HandleSendTensor(body, std::move(responder));
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

int WorkerService::num_step_contexts() const {
  std::lock_guard<std::mutex> lock(steps_mu_);
  return static_cast<int>(steps_.size());
}

Status WorkerService::TouchStepLocked(const StepKey& key,
                                      std::shared_ptr<StepCtx>* ctx) {
  auto floor = floors_.find(key.first);
  if (floor != floors_.end() && key.second < floor->second) {
    return Aborted("step " + std::to_string(key.second) + " is not active");
  }
  std::shared_ptr<StepCtx>& slot = steps_[key];
  if (slot == nullptr) {
    slot = std::make_shared<StepCtx>();
    slot->rendezvous = std::make_shared<WorkerRendezvous>(
        this, key.first, key.second, &slot->cancellation);
  }
  *ctx = slot;
  return Status::OK();
}

void WorkerService::RaiseFloorLocked(
    const std::string& session, int64_t floor,
    std::vector<std::shared_ptr<StepCtx>>* retired) {
  int64_t& current = floors_[session];
  if (floor <= current) return;
  current = floor;
  for (auto it = steps_.lower_bound(
           {session, std::numeric_limits<int64_t>::min()});
       it != steps_.end() && it->first.first == session &&
       it->first.second < floor;) {
    retired->push_back(it->second);
    it = it->second->adopted ? std::next(it) : steps_.erase(it);
  }
}

void WorkerService::Abort(StepCtx* ctx, const Status& status) {
  ctx->cancellation.StartCancel();
  ctx->rendezvous->StartAbort(status);
}

void WorkerService::RetargetPeers(const std::map<std::string, int64_t>& ports) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (const auto& [task, port] : ports) {
    Peer& peer = peers_[task];
    if (peer.channel == nullptr) {
      peer.channel = std::make_unique<RpcChannel>(task, static_cast<int>(port));
    } else if (peer.port != port) {
      // A restarted peer: calls to its old process fail, the next dials it.
      peer.channel->ResetTarget(static_cast<int>(port));
    }
    peer.port = port;
  }
}

RpcChannel* WorkerService::PeerChannel(const std::string& task) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  auto it = peers_.find(task);
  return it == peers_.end() ? nullptr : it->second.channel.get();
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
  StepRouting routing;
  if (!ReadInt64(body, &offset, &traced) ||
      !routing.ParseFromBytes(body, &offset)) {
    responder->Respond(InvalidArgument("malformed RunGraph request"),
                       std::string());
    return;
  }
  RetargetPeers(routing.ports);

  const StepKey key(routing.session, step_id);
  std::shared_ptr<StepCtx> ctx;
  Status touched;
  std::vector<std::shared_ptr<StepCtx>> retired;
  {
    std::lock_guard<std::mutex> lock(steps_mu_);
    RaiseFloorLocked(routing.session, routing.step_floor, &retired);
    touched = TouchStepLocked(key, &ctx);
    if (touched.ok() && ctx->adopted) {
      touched = FailedPrecondition("step " + std::to_string(step_id) +
                                   " is already running");
    } else if (touched.ok()) {
      ctx->adopted = true;
    }
  }
  for (auto& stale : retired) {
    Abort(stale.get(), Aborted("step below the floor " +
                               std::to_string(routing.step_floor)));
  }
  if (!touched.ok()) {
    responder->Respond(touched, std::string());
    return;
  }
  ctx->frame = std::make_unique<CallFrame>(std::move(feeds),
                                           num_fetch_slots.value());
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

  // Answer once the executors have finished and every cross-task Send has
  // been acknowledged (first error wins).
  auto answer = [this, ctx, key, responder](Status status) {
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
        StepStats stats = ctx->trace->Consume(key.second);
        AppendInt64(&reply, ctx->recv_micros);
        AppendInt64(&reply, metrics::NowMicros());
        stats.AppendToBytes(&reply);
      }
    }
    {
      std::lock_guard<std::mutex> lock(steps_mu_);
      auto it = steps_.find(key);
      if (it != steps_.end() && it->second == ctx) steps_.erase(it);
      steps_done_cv_.notify_all();
    }
    responder->Respond(status, reply);
  };
  worker_.RunSubgraphsAsync(
      handle, ctx->args, [ctx, answer = std::move(answer)](Status status) {
        ctx->rendezvous->WhenSendsAcked(status, std::move(answer));
      });
}

void WorkerService::HandleSendTensor(
    const std::string& body, std::shared_ptr<RpcServer::Responder> responder) {
  size_t offset = 0;
  std::string session, key;
  int64_t step_id = 0, is_dead = 0;
  if (!ReadString(body, &offset, &session) ||
      !ReadInt64(body, &offset, &step_id) || !ReadString(body, &offset, &key) ||
      !ReadInt64(body, &offset, &is_dead)) {
    responder->Respond(InvalidArgument("malformed SendTensor request"),
                       std::string());
    return;
  }
  Result<Tensor> value = Tensor::ParseFromBytes(body, &offset);
  if (!value.ok()) {
    responder->Respond(value.status(), std::string());
    return;
  }
  std::shared_ptr<StepCtx> ctx;
  Status touched;
  {
    std::lock_guard<std::mutex> lock(steps_mu_);
    touched = TouchStepLocked({session, step_id}, &ctx);
  }
  if (!touched.ok()) {
    responder->Respond(touched, std::string());
    return;
  }
  // Never on this reader thread: a delivered value resumes kernels, whose
  // cross-task Sends write to peers. The answer, written after delivery,
  // is the sender's ack.
  recv_done_pool_.Schedule([ctx = std::move(ctx), key,
                            value = std::move(value).value(),
                            dead = is_dead != 0, responder]() {
    responder->Respond(ctx->rendezvous->Deliver(key, value, dead),
                       std::string());
  });
}

void WorkerService::HandleCancelStep(
    const std::string& body, std::shared_ptr<RpcServer::Responder> responder) {
  size_t offset = 0;
  std::string session;
  int64_t step_id = 0;
  Status reason;
  if (!ReadString(body, &offset, &session) ||
      !ReadInt64(body, &offset, &step_id) ||
      !ReadStatus(body, &offset, &reason)) {
    responder->Respond(InvalidArgument("malformed CancelStep request"),
                       std::string());
    return;
  }
  std::shared_ptr<StepCtx> ctx;
  {
    std::lock_guard<std::mutex> lock(steps_mu_);
    auto it = steps_.find({session, step_id});
    if (it != steps_.end()) {
      ctx = it->second;
      // A running step is dropped when its RunGraph answers.
      if (!ctx->adopted) steps_.erase(it);
    }
  }
  if (ctx != nullptr) {
    Abort(ctx.get(), reason.ok() ? Aborted("step " + std::to_string(step_id) +
                                           " cancelled")
                                 : reason);
  }
  // Unknown step = already finished; cancellation is idempotent either way.
  responder->Respond(Status::OK(), std::string());
}

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro
