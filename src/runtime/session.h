// DirectSession: single-process session running a dataflow graph across the
// local devices (paper §3.2–§3.3). Each distinct (feeds, fetches, targets)
// signature is pruned, optimized, placed, partitioned and compiled into
// per-device executors exactly once, then cached — repeated steps reuse the
// cached executors (the paper's low-latency repeated-subgraph execution).
//
// Concurrent-Run guarantees (relied on by the serving subsystem, which
// fans many client threads over one session):
//   * Run() may be called from any number of threads concurrently. Each
//     call gets a private step id, rendezvous, call frame and cancellation
//     scope; the session mutex is held only for the executor-cache lookup
//     and step-id mint, never across step execution.
//   * Concurrent steps share stateful kernels (variables, queues), with the
//     paper's relaxed consistency: a step reading a variable while another
//     writes it sees either value (kernels guard their buffers; no torn
//     reads, no cross-step ordering).
//   * The first Run of a new signature compiles it under the session mutex,
//     briefly blocking other Runs' cache lookups; latency-sensitive callers
//     pre-compile with Warmup().

#ifndef TFREPRO_RUNTIME_SESSION_H_
#define TFREPRO_RUNTIME_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "core/threadpool.h"
#include "graph/graph.h"
#include "runtime/device.h"
#include "runtime/executor.h"
#include "runtime/graph_optimizer.h"
#include "runtime/placer.h"
#include "runtime/profiler.h"
#include "runtime/tracing.h"

namespace tfrepro {

// The cache key of one step signature (feeds | fetches | targets). It is
// stable across processes, so a restarted master's durable-state replay
// finds the same slots.
std::string SignatureKey(const std::vector<std::string>& feed_names,
                         const std::vector<std::string>& fetches,
                         const std::vector<std::string>& targets);

// Compiles one step signature of `graph` onto `devices`, for both sessions:
// rewrite for the feeds, fetches and targets (paper §3.2), static shape
// check, place (§3.3), optimize with the Run targets preserved (§5), and
// partition with Send/Recv insertion (§3.3). Returns one graph per device.
// Locking, caching and executor creation or registration stay with the
// caller.
Result<std::map<std::string, std::unique_ptr<Graph>>> CompileSignature(
    const Graph& graph, const std::vector<std::string>& feed_names,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets,
    const std::vector<Device*>& devices, const PlacerOptions& placer,
    OptimizerOptions optimizer);

struct SessionOptions {
  int num_threads = 4;
  // Number of CPU devices to expose (multi-device placement and Send/Recv
  // paths are exercised even on one machine).
  int num_devices = 1;
  std::string job_name = "localhost";
  OptimizerOptions optimizer;
  // How unconstrained colocation groups are spread across the devices
  // (default: historical all-on-default-device; see runtime/placer.h).
  PlacerOptions placer;
  // Sampling profiler (DESIGN.md §12): > 0 traces every Nth Run into the
  // session's ProfileStore, 0 defers to TFREPRO_PROFILE_EVERY, < 0
  // disables sampling regardless of the environment.
  int64_t profile_sample_every = 0;
};

class DirectSession {
 public:
  // The session clones `graph`; the caller keeps ownership of the original.
  static Result<std::unique_ptr<DirectSession>> Create(
      const Graph& graph, const SessionOptions& options = SessionOptions());

  ~DirectSession();

  // Runs one step: feeds[i] supplies the tensor named feed_names[i], the
  // fetched tensors are returned in `outputs` (same order as fetches).
  // With run_options.trace set, per-node and transfer events are returned
  // in metadata->step_stats (see runtime/tracing.h).
  Status Run(const RunOptions& run_options,
             const std::vector<std::pair<std::string, Tensor>>& feeds,
             const std::vector<std::string>& fetches,
             const std::vector<std::string>& targets,
             std::vector<Tensor>* outputs, RunMetadata* metadata);

  Status Run(const std::vector<std::pair<std::string, Tensor>>& feeds,
             const std::vector<std::string>& fetches,
             const std::vector<std::string>& targets,
             std::vector<Tensor>* outputs) {
    return Run(RunOptions(), feeds, fetches, targets, outputs, nullptr);
  }

  // Convenience: no feeds/targets.
  Status Run(const std::vector<std::string>& fetches,
             std::vector<Tensor>* outputs) {
    return Run({}, fetches, {}, outputs);
  }

  // Compiles the executors for one step signature without running it, so
  // the first real Run (and every concurrent first Run) hits the cache.
  // `feed_names` are the names later passed as feeds.
  Status Warmup(const std::vector<std::string>& feed_names,
                const std::vector<std::string>& fetches,
                const std::vector<std::string>& targets);

  DeviceMgr* device_mgr() { return &device_mgr_; }

  // The sampling profiler; its store aggregates every sampled (and
  // explicitly traced) successful step.
  ProfilerSession* profiler() { return &profiler_; }
  ProfileStore* profile_store() { return profiler_.store(); }

 private:
  DirectSession(const Graph& graph, const SessionOptions& options);

  struct ExecutorsAndGraphs {
    std::map<std::string, std::unique_ptr<Graph>> partitions;
    std::vector<std::pair<std::unique_ptr<Executor>, Device*>> executors;
  };

  Result<ExecutorsAndGraphs*> GetOrCreateExecutors(
      const std::vector<std::string>& feed_names,
      const std::vector<std::string>& fetches,
      const std::vector<std::string>& targets);

  SessionOptions options_;
  std::string handle_;  // kernel segment key
  ThreadPool pool_;
  DeviceMgr device_mgr_;
  std::unique_ptr<Graph> graph_;
  ProfilerSession profiler_;

  std::mutex mu_;
  std::map<std::string, std::unique_ptr<ExecutorsAndGraphs>> executor_cache_;
  int64_t next_step_id_ = 1;
};

}  // namespace tfrepro

#endif  // TFREPRO_RUNTIME_SESSION_H_
