#include "runtime/session.h"

#include <atomic>
#include <condition_variable>
#include <sstream>

#include "core/metrics.h"
#include "graph/shape_inference.h"
#include "graph/subgraph.h"
#include "runtime/partition.h"
#include "runtime/placer.h"

namespace tfrepro {

namespace {
std::atomic<int64_t> next_session_id{1};

struct SessionMetrics {
  metrics::Counter* steps;
  metrics::Counter* traced_steps;
  metrics::Histogram* step_ms;
};

const SessionMetrics& GetSessionMetrics() {
  static SessionMetrics m = []() {
    metrics::Registry* r = metrics::Registry::Global();
    return SessionMetrics{
        r->GetCounter("session.steps"),
        r->GetCounter("session.traced_steps"),
        r->GetHistogram("session.step_ms"),
    };
  }();
  return m;
}
}  // namespace

DirectSession::DirectSession(const Graph& graph, const SessionOptions& options)
    : options_(options),
      handle_("session_" + std::to_string(next_session_id++)),
      pool_("session", options.num_threads),
      graph_(graph.Clone()),
      profiler_(ProfilerSession::ResolveSampleEvery(
          options.profile_sample_every)) {
  for (int i = 0; i < options.num_devices; ++i) {
    device_mgr_.AddDevice(NewCpuDevice(options.job_name, 0, i, &pool_));
  }
}

DirectSession::~DirectSession() {
  for (Device* d : device_mgr_.ListDevices()) {
    d->ClearSegment(handle_);
  }
}

std::string SignatureKey(const std::vector<std::string>& feed_names,
                         const std::vector<std::string>& fetches,
                         const std::vector<std::string>& targets) {
  std::ostringstream key_os;
  for (const auto& f : feed_names) key_os << f << ",";
  key_os << "|";
  for (const auto& f : fetches) key_os << f << ",";
  key_os << "|";
  for (const auto& t : targets) key_os << t << ",";
  return key_os.str();
}

Result<std::map<std::string, std::unique_ptr<Graph>>> CompileSignature(
    const Graph& graph, const std::vector<std::string>& feed_names,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets,
    const std::vector<Device*>& devices, const PlacerOptions& placer,
    OptimizerOptions optimizer) {
  std::unique_ptr<Graph> client_graph = graph.Clone();
  TF_RETURN_IF_ERROR(RewriteGraphForExecution(client_graph.get(), feed_names,
                                              fetches, targets));
  TF_RETURN_IF_ERROR(InferShapes(*client_graph));
  TF_RETURN_IF_ERROR(PlaceGraph(client_graph.get(), devices, placer));
  // Feeds/fetches are structurally protected (_Feed/_Fetch are never
  // optimized away) and stateful nodes are never touched; Run targets are
  // plain node names, so add them to the preserve set to keep the
  // optimizer from renaming, fusing or eliding them.
  for (const std::string& t : targets) {
    optimizer.preserve.insert(t.substr(0, t.find(':')));
  }
  TF_RETURN_IF_ERROR(
      OptimizeGraph(client_graph.get(), devices.front(), optimizer));
  return PartitionGraph(*client_graph);
}

Result<std::unique_ptr<DirectSession>> DirectSession::Create(
    const Graph& graph, const SessionOptions& options) {
  if (options.num_threads < 1 || options.num_devices < 1) {
    return InvalidArgument("session needs >= 1 thread and >= 1 device");
  }
  return std::unique_ptr<DirectSession>(new DirectSession(graph, options));
}

Result<DirectSession::ExecutorsAndGraphs*> DirectSession::GetOrCreateExecutors(
    const std::vector<std::string>& feed_names,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets) {
  const std::string key = SignatureKey(feed_names, fetches, targets);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = executor_cache_.find(key);
  if (it != executor_cache_.end()) {
    return it->second.get();
  }

  Result<std::map<std::string, std::unique_ptr<Graph>>> partitions =
      CompileSignature(*graph_, feed_names, fetches, targets,
                       device_mgr_.ListDevices(), options_.placer,
                       options_.optimizer);
  TF_RETURN_IF_ERROR(partitions.status());

  auto entry = std::make_unique<ExecutorsAndGraphs>();
  entry->partitions = std::move(partitions).value();
  for (auto& [device_name, part] : entry->partitions) {
    Result<Device*> device = device_mgr_.LookupDevice(device_name);
    TF_RETURN_IF_ERROR(device.status());
    Result<std::unique_ptr<Executor>> executor =
        Executor::Create(part.get(), device.value(), handle_);
    TF_RETURN_IF_ERROR(executor.status());
    entry->executors.emplace_back(std::move(executor).value(), device.value());
  }
  ExecutorsAndGraphs* raw = entry.get();
  executor_cache_[key] = std::move(entry);
  return raw;
}

Status DirectSession::Warmup(const std::vector<std::string>& feed_names,
                             const std::vector<std::string>& fetches,
                             const std::vector<std::string>& targets) {
  return GetOrCreateExecutors(feed_names, fetches, targets).status();
}

Status DirectSession::Run(
    const RunOptions& run_options,
    const std::vector<std::pair<std::string, Tensor>>& feeds,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets, std::vector<Tensor>* outputs,
    RunMetadata* metadata) {
  std::vector<std::string> feed_names;
  std::vector<Tensor> feed_tensors;
  feed_names.reserve(feeds.size());
  for (const auto& [name, tensor] : feeds) {
    feed_names.push_back(name);
    feed_tensors.push_back(tensor);
  }

  Result<ExecutorsAndGraphs*> entry =
      GetOrCreateExecutors(feed_names, fetches, targets);
  TF_RETURN_IF_ERROR(entry.status());

  CallFrame call_frame(std::move(feed_tensors),
                       static_cast<int>(fetches.size()));
  LocalRendezvous rendezvous;
  CancellationManager cancellation;
  // A step is traced when the caller asked for it or when the sampling
  // profiler elected this Run (every Nth; DESIGN.md §12). Sampled steps
  // pay the same tracing cost as user-traced steps and feed the store.
  const bool sampled = profiler_.ShouldSample(run_options.sample_every);
  std::unique_ptr<TraceCollector> trace;
  if (run_options.trace || sampled) {
    trace = std::make_unique<TraceCollector>(/*capture_global_events=*/true);
    GetSessionMetrics().traced_steps->Increment();
  }

  int64_t step_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    step_id = next_step_id_++;
  }

  Executor::Args args;
  args.step_id = step_id;
  args.rendezvous = &rendezvous;
  args.call_frame = &call_frame;
  args.cancellation = &cancellation;
  args.trace = trace.get();

  // Run all per-device executors concurrently; the step completes when
  // every partition completes.
  const int64_t step_start_micros = metrics::NowMicros();
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = entry.value()->executors.size();
  Status step_status;
  for (auto& [executor, device] : entry.value()->executors) {
    executor->RunAsync(args, [&](const Status& s) {
      std::lock_guard<std::mutex> lock(done_mu);
      if (step_status.ok() && !s.ok()) step_status = s;
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&]() { return remaining == 0; });
  }
  GetSessionMetrics().steps->Increment();
  GetSessionMetrics().step_ms->Record(
      static_cast<double>(metrics::NowMicros() - step_start_micros) / 1000.0);
  if (trace != nullptr) {
    StepStats stats = trace->Consume(step_id);
    if (step_status.ok()) profiler_.AddStepStats(stats);
    if (metadata != nullptr) metadata->step_stats = std::move(stats);
  }
  TF_RETURN_IF_ERROR(step_status);

  if (outputs != nullptr) {
    *outputs = call_frame.fetches();
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

}  // namespace tfrepro
