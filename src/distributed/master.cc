#include "distributed/master.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <thread>

#include "runtime/session.h"

namespace tfrepro {
namespace distributed {

namespace {
std::atomic<int64_t> next_master_id{1};

// The cap on the doubling backoff between step retries.
constexpr double kRetryBackoffMaxSeconds = 0.25;

// "/job:x/task:0/device:CPU:0" -> ("x", 0).
Result<std::pair<std::string, int>> TaskOfDevice(const std::string& device) {
  Result<DeviceName> parsed = DeviceName::Parse(device);
  TF_RETURN_IF_ERROR(parsed.status());
  if (!parsed.value().has_job || !parsed.value().has_task) {
    return InvalidArgument("device '" + device + "' has no job/task");
  }
  return std::make_pair(parsed.value().job, parsed.value().task);
}
}  // namespace

MasterSession::MasterSession(const Graph& graph, Cluster* cluster,
                             const Options& options,
                             const MasterState* restored)
    : options_(options),
      cluster_(cluster),
      graph_(graph.Clone()),
      session_prefix_(restored != nullptr
                          ? restored->session_prefix
                          : "master_" + std::to_string(next_master_id++)),
      profiler_(ProfilerSession::ResolveSampleEvery(
          options.profile_sample_every)) {
  if (restored != nullptr) {
    next_handle_ = restored->next_handle;
    // Step ids tag gradients for staleness; the watermark keeps them
    // monotonic across incarnations so this master's steps are not judged
    // stale against floors the previous incarnation left on the PS tasks.
    next_step_id_ = restored->step_watermark + 1;
    ckpt_prefix_ = restored->checkpoint_prefix;
    ckpt_step_ = restored->checkpoint_step;
    auto_recover_pending_ = restored->has_checkpoint();
  }
  metrics::Registry* reg = metrics::Registry::Global();
  const metrics::TagMap tags{{"session", session_prefix_}};
  counters_.steps = reg->GetCounter("master.steps", tags);
  counters_.retries = reg->GetCounter("master.retries", tags);
  counters_.restarts = reg->GetCounter("master.restarts", tags);
  counters_.deadline_expirations =
      reg->GetCounter("master.deadline_expirations", tags);
  counters_.aborts_fanned_out =
      reg->GetCounter("master.aborts_fanned_out", tags);
  counters_.recoveries = reg->GetCounter("master.recoveries", tags);
  counters_.reregistrations = reg->GetCounter("master.reregistrations", tags);
  counters_.prober_restarts = reg->GetCounter("master.prober_restarts", tags);
  counters_.state_recompiles =
      reg->GetCounter("master.state_recompiles", tags);
  counters_.partition_reuses =
      reg->GetCounter("master.partition_reuses", tags);
  counters_.step_ms = reg->GetHistogram("master.step_ms", {}, tags);
}

MasterSession::~MasterSession() {
  // Stop the prober first: its thread calls back into this session.
  if (prober_ != nullptr) prober_->Stop();
}

Result<std::unique_ptr<MasterSession>> MasterSession::Create(
    const Graph& graph, Cluster* cluster, const Options& options) {
  if (cluster == nullptr) {
    return InvalidArgument("null cluster");
  }
  MasterState restored;
  const MasterState* restored_ptr = nullptr;
  if (!options.state_path.empty()) {
    Result<MasterState> loaded = LoadMasterState(options.state_path);
    if (loaded.ok()) {
      restored = std::move(loaded.value());
      restored_ptr = &restored;
    } else if (loaded.status().code() != Code::kNotFound) {
      return loaded.status();  // corrupt log: surface, don't silently reset
    }
  }
  std::unique_ptr<MasterSession> session(
      new MasterSession(graph, cluster, options, restored_ptr));
  TF_RETURN_IF_ERROR(session->InitDurableState(restored_ptr));
  if (options.health_probe_interval_seconds > 0.0) {
    HealthProber::Options popts;
    popts.interval_seconds = options.health_probe_interval_seconds;
    popts.miss_threshold = options.health_probe_miss_threshold;
    MasterSession* raw = session.get();
    session->prober_ = std::make_unique<HealthProber>(
        cluster, popts, raw->session_prefix_,
        [raw](WorkerInterface* worker) { raw->HandleDeadTask(worker); });
  }
  return session;
}

Result<std::unique_ptr<MasterSession>> MasterSession::Create(
    const Graph& graph, const SessionOptions& options) {
  if (options.num_threads < 1 || options.num_devices < 1) {
    return InvalidArgument("session needs >= 1 thread and >= 1 device");
  }
  ClusterSpec spec;
  spec.jobs[options.job_name] = 1;
  Cluster::Options cluster_options;
  cluster_options.threads_per_task = options.num_threads;
  cluster_options.devices_per_task = options.num_devices;
  Result<std::unique_ptr<InProcessCluster>> cluster =
      InProcessCluster::Create(spec, cluster_options);
  TF_RETURN_IF_ERROR(cluster.status());
  Options master_options;
  master_options.optimizer = options.optimizer;
  master_options.placer = options.placer;
  master_options.profile_sample_every = options.profile_sample_every;
  Result<std::unique_ptr<MasterSession>> session =
      Create(graph, cluster.value().get(), master_options);
  TF_RETURN_IF_ERROR(session.status());
  session.value()->owned_cluster_ = std::move(cluster).value();
  return session;
}

Result<std::unique_ptr<MasterSession>> MasterSession::Create(
    const Graph& graph) {
  return Create(graph, SessionOptions());
}

Status MasterSession::InitDurableState(const MasterState* restored) {
  if (options_.state_path.empty()) return Status::OK();
  Result<std::unique_ptr<MasterStateLog>> log =
      MasterStateLog::Open(options_.state_path, session_prefix_);
  TF_RETURN_IF_ERROR(log.status());
  state_log_ = std::move(log.value());
  if (restored == nullptr) return Status::OK();

  // Rebuild the compiled-step cache by recompiling each logged signature
  // under its original handle. Workers that survived the master still hold
  // their registrations under those handles and are re-adopted rather than
  // re-registered (see CompileLocked).
  std::lock_guard<std::mutex> lock(mu_);
  for (const CompiledSignature& sig : restored->compiled) {
    const std::string key = SignatureKey(sig.feeds, sig.fetches, sig.targets);
    if (compiled_.find(key) != compiled_.end()) continue;
    Result<CompiledStep*> step =
        CompileLocked(key, sig.feeds, sig.fetches, sig.targets, sig.handle);
    TF_RETURN_IF_ERROR(step.status());
    counters_.state_recompiles->Increment();
  }
  if (!restored->compiled.empty()) {
    RecordGlobalInstant(
        "master.state_restored", /*scope=*/"",
        {{"session", session_prefix_},
         {"signatures", std::to_string(restored->compiled.size())},
         {"step_watermark", std::to_string(restored->step_watermark)}});
  }
  return Status::OK();
}

void MasterSession::set_recovery_handler(std::function<Status()> handler) {
  bool auto_recover = false;
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    recovery_handler_ = std::move(handler);
    auto_recover = auto_recover_pending_ && recovery_handler_ != nullptr;
    if (auto_recover) auto_recover_pending_ = false;
  }
  if (auto_recover) {
    // Durable state says a checkpoint exists and this incarnation has not
    // restored it: resume from it now, without further client involvement.
    Status s = RunRecoveryHandler();
    RecordGlobalInstant("master.auto_recovered", /*scope=*/"",
                        {{"session", session_prefix_},
                         {"checkpoint_step",
                          std::to_string(last_checkpoint_step())},
                         {"status", s.ok() ? "OK" : s.message()}});
  }
}

void MasterSession::NoteCheckpoint(const std::string& prefix, int64_t step) {
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    ckpt_prefix_ = prefix;
    ckpt_step_ = step;
  }
  if (state_log_ != nullptr) {
    (void)state_log_->AppendCheckpoint(prefix, step);
  }
}

int64_t MasterSession::last_checkpoint_step() const {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  return ckpt_step_;
}

MasterSession::RunStats MasterSession::stats() const {
  RunStats s;
  s.retries = counters_.retries->value();
  s.restarts = counters_.restarts->value();
  s.deadline_expirations = counters_.deadline_expirations->value();
  s.aborts_fanned_out = counters_.aborts_fanned_out->value();
  s.recoveries = counters_.recoveries->value();
  s.reregistrations = counters_.reregistrations->value();
  s.prober_restarts = counters_.prober_restarts->value();
  s.state_recompiles = counters_.state_recompiles->value();
  s.partition_reuses = counters_.partition_reuses->value();
  return s;
}

Result<MasterSession::CompiledStep*> MasterSession::GetOrCompile(
    const std::vector<std::string>& feed_names,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets) {
  const std::string key = SignatureKey(feed_names, fetches, targets);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = compiled_.find(key);
  if (it != compiled_.end()) {
    return it->second.get();
  }
  const std::string handle =
      session_prefix_ + "_g" + std::to_string(next_handle_++);
  Result<CompiledStep*> step =
      CompileLocked(key, feed_names, fetches, targets, handle);
  TF_RETURN_IF_ERROR(step.status());
  if (state_log_ != nullptr) {
    CompiledSignature sig;
    sig.handle = handle;
    sig.feeds = feed_names;
    sig.fetches = fetches;
    sig.targets = targets;
    TF_RETURN_IF_ERROR(state_log_->AppendCompiled(sig));
  }
  return step;
}

Result<MasterSession::CompiledStep*> MasterSession::CompileLocked(
    const std::string& key, const std::vector<std::string>& feed_names,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets, const std::string& handle) {
  // Compiled across every device in the cluster (§3.3).
  Result<std::map<std::string, std::unique_ptr<Graph>>> partitions =
      CompileSignature(*graph_, feed_names, fetches, targets,
                       cluster_->all_devices(), options_.placer,
                       options_.optimizer);
  TF_RETURN_IF_ERROR(partitions.status());

  auto step = std::make_unique<CompiledStep>();
  step->handle = handle;
  // Per participating task: the incarnation read before registering on
  // it, and whether it already holds the handle. A restarted master
  // recompiling from its durable log finds surviving workers still
  // registered under the same handle: re-adopt those registrations instead
  // of re-registering.
  struct TaskRegistration {
    int64_t incarnation = 0;
    bool held = false;
  };
  std::map<WorkerInterface*, TaskRegistration> tasks;
  for (auto& [device_name, part] : partitions.value()) {
    Result<std::pair<std::string, int>> task = TaskOfDevice(device_name);
    TF_RETURN_IF_ERROR(task.status());
    Result<WorkerInterface*> worker =
        cluster_->worker(task.value().first, task.value().second);
    TF_RETURN_IF_ERROR(worker.status());
    WorkerInterface* w = worker.value();
    auto [reg, inserted] = tasks.try_emplace(w);
    if (inserted) {
      reg->second.incarnation = w->incarnation();
      reg->second.held = w->HasSubgraphs(handle);
    }
    // The master retains the partition so it can re-register the subgraph
    // after a task restart (§4.3 recovery).
    std::shared_ptr<const Graph> graph = std::move(part);
    if (reg->second.held) {
      counters_.partition_reuses->Increment();
    } else {
      TF_RETURN_IF_ERROR(
          w->RegisterSubgraph(handle, session_prefix_, graph, device_name));
    }
    step->partitions.push_back(
        PartitionRecord{w, device_name, std::move(graph)});
  }
  step->participating = std::vector<Participant>(tasks.size());
  Participant* p = step->participating.data();
  for (const auto& [w, reg] : tasks) {
    p->worker = w;
    p->registered_incarnation = reg.incarnation;
    ++p;
  }

  CompiledStep* raw = step.get();
  compiled_[key] = std::move(step);
  return raw;
}

Status MasterSession::EnsureRegistered(CompiledStep* step) {
  for (Participant& p : step->participating) {
    // Only a restart loses registrations, and every restart bumps the
    // incarnation: the common case asks the task nothing.
    if (p.worker->incarnation() == p.registered_incarnation.load()) continue;
    // Serialized so concurrent Runs cannot double-register after a restart.
    std::lock_guard<std::mutex> lock(register_mu_);
    // Read before registering, so a restart racing this one is seen later.
    const int64_t incarnation = p.worker->incarnation();
    if (incarnation == p.registered_incarnation.load()) continue;
    if (!p.worker->HasSubgraphs(step->handle)) {
      for (const PartitionRecord& rec : step->partitions) {
        if (rec.worker != p.worker) continue;
        TF_RETURN_IF_ERROR(p.worker->RegisterSubgraph(
            step->handle, session_prefix_, rec.graph, rec.device_name));
        counters_.reregistrations->Increment();
      }
    }
    p.registered_incarnation.store(incarnation);
  }
  return Status::OK();
}

void MasterSession::HandleDeadTask(WorkerInterface* worker) {
  if (!options_.restart_failed_tasks) return;
  {
    std::lock_guard<std::mutex> gate(restart_gate_);
    if (restarting_ || in_flight_.load() > 0) {
      // A step is mid-flight; its own failure path (deadline → abort →
      // retry → PrepareRetry) owns recovery. The prober fires again next
      // round if the task stays dead.
      return;
    }
    restarting_ = true;
    restarting_thread_ = std::this_thread::get_id();
  }

  Status s = cluster_->RestartTask(worker->job(), worker->task_index());
  if (s.ok()) {
    counters_.restarts->Increment();
    counters_.prober_restarts->Increment();
    RecordGlobalInstant("master.task_restarted", worker->task_name(),
                        {{"session", session_prefix_}, {"by", "prober"}});
    // Re-register the rebuilt task's subgraphs for every compiled step it
    // participates in, then restore state — all while the gate holds new
    // client Runs back, so the next Run lands on a healthy cluster.
    std::vector<CompiledStep*> steps;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [key, compiled] : compiled_) steps.push_back(compiled.get());
    }
    for (CompiledStep* step : steps) {
      if (std::none_of(step->participating.begin(),
                       step->participating.end(),
                       [worker](const Participant& p) {
                         return p.worker == worker;
                       })) {
        continue;
      }
      Status rs = EnsureRegistered(step);
      if (!rs.ok()) {
        s = rs;
        break;
      }
    }
    if (s.ok()) {
      // May call Run on this session; the prober thread passes the gate
      // via the restarting_thread_ check.
      s = RunRecoveryHandler();
    }
  }
  if (!s.ok()) {
    RecordGlobalInstant("master.prober_restart_failed", worker->task_name(),
                        {{"session", session_prefix_},
                         {"error", s.message()}});
  }
  {
    std::lock_guard<std::mutex> gate(restart_gate_);
    restarting_ = false;
  }
  restart_cv_.notify_all();
}

Status MasterSession::RunRecoveryHandler() {
  std::function<Status()> handler;
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    handler = recovery_handler_;
  }
  if (!handler) return Status::OK();
  // Typically restores the last checkpoint (CheckpointPolicy::Recover) by
  // running restore subgraphs through this same session.
  TF_RETURN_IF_ERROR(handler());
  counters_.recoveries->Increment();
  return Status::OK();
}

Status MasterSession::RunOnce(CompiledStep* step,
                              const std::vector<Tensor>& feed_tensors,
                              const std::vector<std::string>& fetches,
                              std::vector<Tensor>* outputs,
                              const std::shared_ptr<TraceCollector>& trace,
                              int64_t* step_id_out) {
  // Hold new steps back while a prober-initiated restart + recovery is in
  // progress (the prober thread's own recovery Runs pass), and mark this
  // step in flight so the prober defers to the in-step failure path.
  struct InFlight {
    explicit InFlight(MasterSession* session) : session_(session) {
      std::unique_lock<std::mutex> gate(session_->restart_gate_);
      session_->restart_cv_.wait(gate, [this]() {
        return !session_->restarting_ ||
               session_->restarting_thread_ == std::this_thread::get_id();
      });
      session_->in_flight_.fetch_add(1);
    }
    ~InFlight() { session_->in_flight_.fetch_sub(1); }
    MasterSession* session_;
  };
  InFlight in_flight_guard(this);

  // Fail fast instead of dispatching to a task the transport knows is down
  // (injected fault, or a reaped worker process over sockets).
  for (const Participant& p : step->participating) {
    if (cluster_->TaskIsDown(p.worker)) {
      return Unavailable("task " + p.worker->task_name() + " is down");
    }
  }
  TF_RETURN_IF_ERROR(EnsureRegistered(step));

  // All per-step state lives in one shared block owned jointly by this
  // frame and every participating task's done-callback. When the deadline
  // expires, Run returns while stragglers may still be executing: the
  // block must outlive them, so nothing per-step lives on this stack.
  struct StepState {
    StepState(std::vector<Tensor> feeds, int num_fetches)
        : call_frame(std::move(feeds), num_fetches) {}
    CallFrame call_frame;
    CancellationManager cancellation;
    // Built by the transport (Cluster::NewStepRendezvous).
    std::shared_ptr<Rendezvous> rendezvous;
    // Keeps the step's collector alive for straggler kernels that record
    // events after a deadline already returned this Run call.
    std::shared_ptr<TraceCollector> trace;
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
    Status status;
    bool abort_sent = false;
  };
  auto state = std::make_shared<StepState>(feed_tensors,
                                           static_cast<int>(fetches.size()));
  state->trace = trace;

  Executor::Args args;
  {
    // Minted and built together, so a session's step rendezvous are created
    // in step-id order (the socket transport's step floor relies on it).
    std::lock_guard<std::mutex> lock(mu_);
    args.step_id = next_step_id_++;
    state->rendezvous =
        cluster_->NewStepRendezvous(session_prefix_, args.step_id);
  }
  if (step_id_out != nullptr) *step_id_out = args.step_id;
  if (state_log_ != nullptr) {
    // Persist the watermark before dispatch: once a task may have seen this
    // step id, a successor master must never issue it again.
    TF_RETURN_IF_ERROR(state_log_->AppendStep(args.step_id));
  }

  args.rendezvous = state->rendezvous.get();
  args.call_frame = &state->call_frame;
  args.cancellation = &state->cancellation;
  args.trace = state->trace.get();
  args.deadline_seconds = options_.step_deadline_seconds;
  const int64_t step_start_micros = metrics::NowMicros();

  // One message per participating task (§3.3). The callback captures only
  // `state` — never `this` — because a parked (hung) callback can outlive
  // both this call and the session.
  state->remaining = step->participating.size();
  for (const Participant& p : step->participating) {
    p.worker->RunSubgraphsAsync(step->handle, args, [state](const Status& s) {
      bool fan_abort = false;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->status.ok() && !s.ok()) {
          state->status = s;
          if (!state->abort_sent) {
            state->abort_sent = true;
            fan_abort = true;
          }
        }
        if (--state->remaining == 0) state->cv.notify_all();
      }
      if (fan_abort) {
        // First failure: abort the whole step everywhere (§4.3 — "the
        // entire graph execution is aborted"), unblocking every pending
        // Recv and cancellable op on the other tasks.
        state->rendezvous->StartAbort(s);
        state->cancellation.StartCancel();
      }
    });
  }

  bool abort_was_sent = false;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    auto all_done = [&state]() { return state->remaining == 0; };
    if (options_.step_deadline_seconds > 0.0) {
      if (!state->cv.wait_for(
              lock,
              std::chrono::duration<double>(options_.step_deadline_seconds),
              all_done)) {
        // Deadline fired with tasks still outstanding (hung task, lost
        // transfer, or a straggler beyond the budget). Abort and return
        // without waiting for the unresponsive tasks.
        Status deadline = DeadlineExceeded(
            "step " + std::to_string(args.step_id) +
            " did not complete within " +
            std::to_string(options_.step_deadline_seconds) + "s");
        bool fan_abort = !state->abort_sent;
        state->abort_sent = true;
        if (state->status.ok()) state->status = deadline;
        lock.unlock();
        if (fan_abort) {
          state->rendezvous->StartAbort(deadline);
          state->cancellation.StartCancel();
        }
        counters_.deadline_expirations->Increment();
        if (fan_abort) counters_.aborts_fanned_out->Increment();
        RecordGlobalInstant(
            "master.deadline_expired", /*scope=*/"",
            {{"session", session_prefix_},
             {"step_id", std::to_string(args.step_id)}});
        return deadline;
      }
    } else {
      state->cv.wait(lock, all_done);
    }
    abort_was_sent = state->abort_sent;
  }
  if (abort_was_sent) counters_.aborts_fanned_out->Increment();

  Status step_status;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    step_status = state->status;
  }
  counters_.steps->Increment();
  counters_.step_ms->Record(
      static_cast<double>(metrics::NowMicros() - step_start_micros) / 1000.0);
  TF_RETURN_IF_ERROR(step_status);

  if (outputs != nullptr) {
    *outputs = state->call_frame.fetches();
    for (size_t i = 0; i < outputs->size(); ++i) {
      if (!(*outputs)[i].IsInitialized()) {
        return InvalidArgument(
            "fetch '" + fetches[i] +
            "' produced no value (the fetched tensor was dead — it may be on "
            "an untaken conditional branch)");
      }
    }
  }
  return Status::OK();
}

Status MasterSession::PrepareRetry(CompiledStep* step) {
  for (const Participant& p : step->participating) {
    WorkerInterface* worker = p.worker;
    if (!cluster_->TaskIsDown(worker)) continue;
    if (!options_.restart_failed_tasks) {
      return Unavailable("task " + worker->task_name() +
                         " is down and restart_failed_tasks is off");
    }
    TF_RETURN_IF_ERROR(
        cluster_->RestartTask(worker->job(), worker->task_index()));
    counters_.restarts->Increment();
    RecordGlobalInstant("master.task_restarted", worker->task_name(),
                        {{"session", session_prefix_}});
  }
  // §4.3: a failed step is "aborted and restarted from the last checkpoint"
  // — recovery runs on EVERY retry, not only after a task restart. An
  // aborted attempt may have partially committed (a variable updated before
  // the abort reached its task); re-executing on top of that state would
  // compound the update. Restoring first makes the retry exactly-once.
  // No-op when no recovery handler is installed.
  return RunRecoveryHandler();
}

Status MasterSession::Run(
    const RunOptions& run_options,
    const std::vector<std::pair<std::string, Tensor>>& feeds,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets, std::vector<Tensor>* outputs,
    RunMetadata* metadata) {
  std::vector<std::string> feed_names;
  std::vector<Tensor> feed_tensors;
  for (const auto& [name, tensor] : feeds) {
    feed_names.push_back(name);
    feed_tensors.push_back(tensor);
  }

  Result<CompiledStep*> step = GetOrCompile(feed_names, fetches, targets);
  TF_RETURN_IF_ERROR(step.status());

  // A step is traced when the caller asked for it or when the sampling
  // profiler elected this Run (DESIGN.md §12). Shared (not unique) so
  // straggler callbacks past a deadline can hold it via the step state
  // after this frame returns.
  const bool sampled = profiler_.ShouldSample(run_options.sample_every);
  std::shared_ptr<TraceCollector> trace;
  if (run_options.trace || sampled) {
    trace = std::make_shared<TraceCollector>(/*capture_global_events=*/true);
  }

  // Retry loop with capped exponential backoff (§4.3: abort-and-restart
  // for the transient failure codes). Non-retryable errors surface
  // immediately.
  double backoff = options_.retry_backoff_initial_seconds;
  for (int attempt = 0;; ++attempt) {
    int64_t step_id = 0;
    Status s =
        RunOnce(step.value(), feed_tensors, fetches, outputs, trace, &step_id);
    if (s.ok() || !s.IsRetryable() || attempt >= options_.max_step_retries) {
      if (trace != nullptr) {
        StepStats stats = trace->Consume(step_id);
        if (s.ok()) profiler_.AddStepStats(stats);
        if (metadata != nullptr) metadata->step_stats = std::move(stats);
      }
      return s;
    }
    counters_.retries->Increment();
    if (trace != nullptr) {
      // Drop the aborted attempt's events; the returned trace describes the
      // final attempt (plus retry/fault markers recorded from here on).
      trace->Consume(step_id);
    }
    RecordGlobalInstant("master.retry", /*scope=*/"",
                        {{"session", session_prefix_},
                         {"attempt", std::to_string(attempt + 1)},
                         {"error", s.message()}});
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2.0, kRetryBackoffMaxSeconds);
    }
    TF_RETURN_IF_ERROR(PrepareRetry(step.value()));
  }
}

}  // namespace distributed
}  // namespace tfrepro
