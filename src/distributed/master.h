// The distributed master (paper §3.3, §5): "translates user requests into
// execution across a set of tasks. Given a graph and a step definition, it
// prunes and partitions the graph to obtain subgraphs for each
// participating device, and caches these subgraphs so that they may be
// re-used in subsequent steps" — then coordinates each step with one
// RunSubgraphs call per participating task.
//
// Fault tolerance (paper §4.3): "when a failure is detected, the entire
// graph execution is aborted and restarted from scratch." The master
// implements the failure paths on top of the in-process cluster:
//   * a per-step deadline so a hung task or a lost transfer cannot
//     deadlock Run forever;
//   * abort fan-out — the first task failure (or deadline expiry) aborts
//     the step's rendezvous and cancellation manager, unblocking every
//     other participating task;
//   * step retry with capped exponential backoff for the retryable codes
//     (Aborted / Unavailable / DeadlineExceeded);
//   * task restart before a retry: a dead task is rebuilt in place, its
//     cached subgraphs re-registered from the master's retained partitions,
//     and a user-supplied recovery handler (typically
//     train::CheckpointPolicy::Recover) restores variables from the last
//     checkpoint so training resumes where it left off;
//   * proactive liveness monitoring (health_probe_* options): a background
//     HealthProber pings every task between steps; after K missed probes
//     the dead task is restarted, its subgraphs re-registered, and the
//     recovery handler run — so the next Run succeeds on its first attempt
//     instead of discovering the corpse mid-step;
//   * durable master state (state_path option): compiled-step signatures,
//     the step-id watermark, and the latest noted checkpoint are logged so
//     a restarted MasterSession rebuilds its subgraph cache (re-adopting
//     registrations still alive on the workers) and auto-resumes from the
//     last checkpoint when the recovery handler is installed.
//
// Local execution is the one-task case (DirectSession, runtime/session.h):
// Create(graph, SessionOptions) builds and owns a one-task in-process
// cluster, and every Run takes the same step path.
//
// Concurrent-Run guarantees (relied on by serving, which fans many client
// threads over one session):
//   * Run() may be called from any number of threads concurrently. Each
//     call gets a private step id, rendezvous, call frame and cancellation
//     scope; the session mutex is held only for the compiled-step lookup
//     and step-id mint, never across step execution.
//   * Concurrent steps share stateful kernels (variables, queues), with the
//     paper's relaxed consistency: a step reading a variable while another
//     writes it sees either value (kernels guard their buffers; no torn
//     reads, no cross-step ordering).
//   * The first Run of a new signature compiles it under the session mutex,
//     briefly blocking other Runs' lookups; latency-sensitive callers
//     pre-compile with Warmup().

#ifndef TFREPRO_DISTRIBUTED_MASTER_H_
#define TFREPRO_DISTRIBUTED_MASTER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "distributed/cluster.h"
#include "distributed/health_prober.h"
#include "distributed/master_state.h"
#include "graph/graph.h"
#include "runtime/graph_optimizer.h"
#include "runtime/placer.h"
#include "runtime/profiler.h"
#include "runtime/tracing.h"

namespace tfrepro {

struct SessionOptions;  // runtime/session.h

namespace distributed {

class MasterSession {
 public:
  struct Options {
    OptimizerOptions optimizer;

    // Per-step deadline in seconds; 0 = wait forever (the pre-fault-
    // tolerance behaviour). When the deadline fires the step's rendezvous
    // is aborted, pending work is cancelled, and Run returns
    // DeadlineExceeded.
    double step_deadline_seconds = 0.0;

    // Number of times a step is retried after a retryable failure
    // (Aborted / Unavailable / DeadlineExceeded). 0 = fail fast.
    int max_step_retries = 0;

    // Exponential backoff between retries, doubling up to 0.25 s.
    double retry_backoff_initial_seconds = 0.001;

    // When true, a retry first restarts every participating task the fault
    // injector reports as down (wiping its state), re-registers its
    // subgraphs, and invokes the recovery handler. The health prober's
    // proactive restarts are gated on this too.
    bool restart_failed_tasks = false;

    // Liveness monitoring (§4.3). interval > 0 starts a HealthProber that
    // pings every task through the cluster's workers and, after
    // `health_probe_miss_threshold` consecutive misses, restarts the task,
    // re-registers its subgraphs, and runs the recovery handler — all
    // between steps, so the next Run never trips over the failure. A round
    // waits one interval for the answers: a hung task parks the probe
    // callback forever, so that wait is the only exit.
    double health_probe_interval_seconds = 0.0;
    int health_probe_miss_threshold = 3;

    // How unconstrained colocation groups are spread across the cluster's
    // devices (see runtime/placer.h). kObservedCost typically takes its
    // node_cost callback from a previous session's
    // ProfileStore::CostFunction(), closing the paper's §3.2.1 loop.
    PlacerOptions placer;

    // Sampling profiler (DESIGN.md §12): > 0 traces every Nth Run —
    // including the workers, whose StepStats ride back on the RunGraph
    // responses — into the session's ProfileStore; 0 defers to
    // TFREPRO_PROFILE_EVERY; < 0 disables sampling.
    int64_t profile_sample_every = 0;

    // Durable master state log file; empty = keep state in memory only.
    // With a path set, a new MasterSession created against an existing log
    // adopts the previous incarnation's identity: same session prefix and
    // subgraph handles (re-using registrations still alive on the workers),
    // a step-id watermark so step tags stay monotonic, and the latest noted
    // checkpoint (see NoteCheckpoint), which is restored automatically as
    // soon as a recovery handler is installed.
    std::string state_path;
  };

  // Counters for the failure paths, for tests and monitoring. Backed by
  // per-session metrics::Registry counters ("master.*" tagged with this
  // session's prefix); stats() reads them back into this struct.
  struct RunStats {
    int64_t retries = 0;
    int64_t restarts = 0;
    int64_t deadline_expirations = 0;
    int64_t aborts_fanned_out = 0;
    int64_t recoveries = 0;
    int64_t reregistrations = 0;
    // Restarts initiated by the health prober (subset of `restarts`).
    int64_t prober_restarts = 0;
    // Compiled signatures rebuilt from the durable state log at Create.
    int64_t state_recompiles = 0;
    // Per-task registrations skipped because the worker still held the
    // subgraphs under this handle (master restart re-adopting them).
    int64_t partition_reuses = 0;
  };

  // Clones `graph`; the cluster (any transport) must outlive the session.
  static Result<std::unique_ptr<MasterSession>> Create(
      const Graph& graph, Cluster* cluster, const Options& options);
  static Result<std::unique_ptr<MasterSession>> Create(
      const Graph& graph, Cluster* cluster) {
    return Create(graph, cluster, Options{});
  }

  // The one-task session (DirectSession): clones `graph` onto a cluster
  // {options.job_name: 1} that the session owns. The cluster is in-process
  // whatever TFREPRO_TRANSPORT says.
  static Result<std::unique_ptr<MasterSession>> Create(
      const Graph& graph, const SessionOptions& options);
  static Result<std::unique_ptr<MasterSession>> Create(const Graph& graph);

  // Runs one step: feeds[i] supplies the tensor named feed_names[i], the
  // fetched tensors are returned in `outputs` (same order as fetches).
  // Retries per Options on retryable failures. With run_options.trace,
  // metadata->step_stats carries per-node events from every participating
  // task plus cross-task transfer events and any injected-fault markers
  // (events are from the final attempt when the step was retried).
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

  Status Run(const std::vector<std::string>& fetches,
             std::vector<Tensor>* outputs) {
    return Run({}, fetches, {}, outputs);
  }

  // Compiles and registers one step signature without running it, so the
  // first real Run (and every concurrent first Run) hits the cache.
  // `feed_names` are the names later passed as feeds.
  Status Warmup(const std::vector<std::string>& feed_names,
                const std::vector<std::string>& fetches,
                const std::vector<std::string>& targets) {
    return GetOrCompile(feed_names, fetches, targets).status();
  }

  // Installs the hook invoked after one or more tasks were restarted,
  // before the failed step is retried (and by the health prober after a
  // proactive restart). Typical use: restore the latest checkpoint
  // (train::CheckpointPolicy::Recover). The handler may call Run on this
  // session (e.g. to run restore ops). When this session was created from
  // a durable state log that notes a checkpoint, installing the handler
  // immediately runs it once — the restarted master resumes from the last
  // checkpoint without further client involvement.
  void set_recovery_handler(std::function<Status()> handler);

  // Records "the latest durable checkpoint is <prefix>-<step>" (called by
  // train::CheckpointPolicy::AfterStep). Persisted to the state log so a
  // restarted master knows where to resume.
  void NoteCheckpoint(const std::string& prefix, int64_t step);

  // Latest checkpoint step noted (or restored from the state log); -1 when
  // none.
  int64_t last_checkpoint_step() const;

  RunStats stats() const;

  // The sampling profiler; its store aggregates node timings from every
  // sampled (and explicitly traced) successful step, cluster-wide.
  ProfilerSession* profiler() { return &profiler_; }
  ProfileStore* profile_store() { return profiler_.store(); }

  // This session's metrics tag value ("master.*" and "health.*" counters
  // are tagged {"session", session_prefix()}). Stable across master
  // incarnations sharing one durable state log.
  const std::string& session_prefix() const { return session_prefix_; }

  ~MasterSession();

 private:
  MasterSession(const Graph& graph, Cluster* cluster, const Options& options,
                const MasterState* restored);

  // One partition retained by the master so it can re-register a restarted
  // task's subgraphs. Immutable, so an in-process worker shares it.
  struct PartitionRecord {
    WorkerInterface* worker;
    std::string device_name;
    std::shared_ptr<const Graph> graph;
  };

  // A task one step dispatches to, with the task incarnation its subgraphs
  // were registered on. A restart bumps the incarnation, so the step path
  // learns of a lost registration without asking the task.
  struct Participant {
    WorkerInterface* worker = nullptr;
    std::atomic<int64_t> registered_incarnation{0};
  };

  struct CompiledStep {
    std::string handle;
    std::vector<Participant> participating;
    std::vector<PartitionRecord> partitions;
  };

  Result<CompiledStep*> GetOrCompile(
      const std::vector<std::string>& feed_names,
      const std::vector<std::string>& fetches,
      const std::vector<std::string>& targets);

  // Prune/place/partition `graph_` for the signature and register the
  // partitions under `handle`, skipping workers that already hold subgraphs
  // for it (a restarted master re-adopting live registrations). Inserts the
  // result into compiled_[key]. Must hold mu_.
  Result<CompiledStep*> CompileLocked(const std::string& key,
                                      const std::vector<std::string>& feeds,
                                      const std::vector<std::string>& fetches,
                                      const std::vector<std::string>& targets,
                                      const std::string& handle);

  // Opens the state log and replays `restored` (recompiling each logged
  // signature with its original handle). No-op without options_.state_path.
  Status InitDurableState(const MasterState* restored);

  // Re-registers subgraphs on any participating task restarted since they
  // were registered (its incarnation changed and HasSubgraphs says no).
  Status EnsureRegistered(CompiledStep* step);

  // Prober verdict: `worker` missed K consecutive probes. Restarts it and
  // re-registers its subgraphs (when restart_failed_tasks allows and no
  // step is in flight), then runs the recovery handler.
  void HandleDeadTask(WorkerInterface* worker);

  // Invokes the installed recovery handler, if any, counting the recovery.
  Status RunRecoveryHandler();

  // One dispatch round: health check, register-if-needed, fan out one
  // message per participating task, wait (bounded by the deadline), fan
  // abort out on first failure. `trace` may be null; when set it is shared
  // into the step state so straggler callbacks past a deadline can still
  // record into it safely.
  Status RunOnce(CompiledStep* step, const std::vector<Tensor>& feed_tensors,
                 const std::vector<std::string>& fetches,
                 std::vector<Tensor>* outputs,
                 const std::shared_ptr<TraceCollector>& trace,
                 int64_t* step_id_out);

  // Before a retry: restart dead tasks (if configured) and run the
  // recovery handler. Returns non-OK when the failure is not recoverable
  // under the current options.
  Status PrepareRetry(CompiledStep* step);

  // The one-task session's cluster; null when the caller owns it. Declared
  // first so it is destroyed last, after everything that points into it.
  std::unique_ptr<Cluster> owned_cluster_;
  Options options_;
  Cluster* cluster_;
  std::unique_ptr<Graph> graph_;
  std::string session_prefix_;
  ProfilerSession profiler_;

  std::mutex mu_;
  std::map<std::string, std::unique_ptr<CompiledStep>> compiled_;
  int64_t next_step_id_ = 1;
  int64_t next_handle_ = 0;

  // Serializes post-restart re-registration across concurrent Runs.
  std::mutex register_mu_;

  // Coordinates the prober's restart-while-idle path with step dispatch:
  // while a prober-initiated restart + recovery is in progress, new Runs
  // wait at the gate (except the prober thread's own recovery Runs, which
  // pass via the thread-id check); conversely HandleDeadTask skips
  // restarting while steps are in flight — the in-step failure path owns
  // recovery then.
  std::mutex restart_gate_;
  std::condition_variable restart_cv_;
  bool restarting_ = false;
  std::thread::id restarting_thread_;
  std::atomic<int64_t> in_flight_{0};

  std::mutex recovery_mu_;
  std::function<Status()> recovery_handler_;
  // True when durable state noted a checkpoint that has not been restored
  // yet; set_recovery_handler consumes it. Guarded by recovery_mu_.
  bool auto_recover_pending_ = false;

  mutable std::mutex ckpt_mu_;
  std::string ckpt_prefix_;
  int64_t ckpt_step_ = -1;

  std::unique_ptr<MasterStateLog> state_log_;

  // Failure-path instruments on the global registry, tagged with
  // session_prefix_ so concurrent sessions stay separable. stats()
  // assembles RunStats from these.
  struct Counters {
    metrics::Counter* steps = nullptr;
    metrics::Counter* retries = nullptr;
    metrics::Counter* restarts = nullptr;
    metrics::Counter* deadline_expirations = nullptr;
    metrics::Counter* aborts_fanned_out = nullptr;
    metrics::Counter* recoveries = nullptr;
    metrics::Counter* reregistrations = nullptr;
    metrics::Counter* prober_restarts = nullptr;
    metrics::Counter* state_recompiles = nullptr;
    metrics::Counter* partition_reuses = nullptr;
    metrics::Histogram* step_ms = nullptr;
  };
  Counters counters_;

  // Declared last so it is destroyed first: the prober thread may call
  // HandleDeadTask, which touches everything above.
  std::unique_ptr<HealthProber> prober_;
};

}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_MASTER_H_
