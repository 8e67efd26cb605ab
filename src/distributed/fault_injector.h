// Fault injection for the distributed runtime (paper §4.3: "many
// failures or pre-emptions ... a training run using 10,000 hours of
// non-dedicated compute can expect to experience a failure"). The injector
// is the single source of truth for scripted and random failures:
//
//   * kill a named task at its Nth step dispatch — the task responds
//     Unavailable until Cluster::RestartTask brings it back;
//   * hang a named task at its Nth dispatch — the task never responds, so
//     only the master's step deadline can unblock the step;
//   * delay every dispatch to a task (a straggler, §4.4);
//   * drop the Nth cross-task tensor transfer — the receiving Recv blocks
//     forever, again exercising the deadline path (in process only: over
//     sockets transfers go worker to worker, so a step with a drop pending
//     fails with Unimplemented);
//   * kill tasks at random with a seeded per-dispatch probability.
//
// All decisions are deterministic: scripted faults fire on exact per-task
// dispatch / global transfer counts, and random kills draw from a Philox
// stream seeded at construction, so the same seed and the same sequence of
// runtime events replays the same failure schedule (see DecisionLog).
//
// The runtime hooks sit above both transports: FaultInjectingWorker, which
// a Cluster hands out in front of each task, consults OnDispatch and
// OnProbe; in process, FaultInjectingRendezvous::Send consults OnTransfer.
// The master consults IsDown for health checks and MarkRestarted fires on
// task restart.

#ifndef TFREPRO_DISTRIBUTED_FAULT_INJECTOR_H_
#define TFREPRO_DISTRIBUTED_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/random.h"
#include "core/status.h"
#include "core/threadpool.h"
#include "distributed/cluster.h"
#include "runtime/rendezvous.h"

namespace tfrepro {
namespace distributed {

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0);

  enum class Action { kProceed, kKill, kHang };
  struct Decision {
    Action action = Action::kProceed;
    double delay_seconds = 0.0;
  };

  // --- Scripting (test-side; all counts are 1-based) ---

  // Kills `task` when it receives its `nth` step dispatch; it stays down
  // (every later dispatch fails fast) until MarkRestarted.
  void KillTaskAtDispatch(const std::string& task, int64_t nth);

  // Hangs `task` at its `nth` dispatch: the dispatch never completes and
  // never fails — the master's deadline must fire. Later dispatches proceed.
  void HangTaskAtDispatch(const std::string& task, int64_t nth);

  // Delays every dispatch to `task` by `seconds` (0 clears the delay).
  void DelayTask(const std::string& task, double seconds);

  // Drops the `nth` cross-task transfer observed by OnTransfer.
  void DropNthTransfer(int64_t nth);

  // Kills the dispatched-to task with probability `p` per dispatch, drawn
  // from the seeded Philox stream (deterministic given the event sequence).
  void KillRandomly(double probability);

  // Kills `task` immediately — even while the cluster is idle, with no step
  // touching it. Only a liveness probe (or the next dispatch) can notice;
  // this is the scenario the master's health prober exists for.
  void KillTaskNow(const std::string& task);

  // Hangs `task`'s `nth` health probe (1-based, counted separately from
  // dispatches so probes never perturb a scripted dispatch schedule). The
  // probe callback is parked exactly like a hung dispatch: it never fires,
  // and the prober's own timeout is the only way past it.
  void HangProbeAt(const std::string& task, int64_t nth);

  // --- Runtime hooks ---

  // Consulted by FaultInjectingWorker before each step dispatch.
  Decision OnDispatch(const std::string& task);

  // Consulted by FaultInjectingWorker for each health probe. Dead tasks
  // refuse the probe, scripted probe hangs park it, and per-task dispatch
  // delays apply to probes too (a straggling task answers probes late).
  // Probes are counted on their own stream (see probes()).
  Decision OnProbe(const std::string& task);

  // Consulted per cross-task Send; true means "drop this transfer".
  bool OnTransfer(const std::string& key);

  // True while a DropNthTransfer has not fired yet.
  bool TransferDropPending() const;

  // Parks the done-callback of a hung dispatch. The callback is never
  // invoked; it is dropped (releasing whatever step state it keeps alive)
  // when the task restarts or the injector is destroyed.
  void ParkHung(const std::string& task, std::function<void(Status)> done);

  // --- Health & recovery ---

  bool IsDown(const std::string& task) const;
  std::vector<std::string> DownTasks() const;

  // Marks a task healthy again and drops its parked hung callbacks; called
  // by Cluster::RestartTask.
  void MarkRestarted(const std::string& task);

  // --- Introspection (tests) ---

  int64_t kills() const;
  int64_t hangs() const;
  int64_t dropped_transfers() const;
  int64_t dispatches(const std::string& task) const;
  int64_t probes(const std::string& task) const;
  int64_t transfers() const;

  // One line per non-trivial decision, in event order — two injectors with
  // the same seed and the same event sequence produce identical logs.
  std::vector<std::string> DecisionLog() const;

  // One structured record per injected fault, in event order. Each is also
  // counted on the global registry ("fault.injected" tagged by kind) and
  // fanned out to live trace collectors as an instant event, so injected
  // faults appear inline on a step's timeline.
  struct InjectedEvent {
    std::string kind;  // "kill" | "hang" | "drop_transfer" | "restart"
    std::string task;  // rendezvous key for drop_transfer
    int64_t index = 0;  // per-task dispatch count, or global transfer count
    int64_t micros = 0;
  };
  std::vector<InjectedEvent> injected_events() const;

 private:
  // Appends to events_, bumps the registry counter, and emits a trace
  // instant. Must hold mu_.
  void RecordInjectedLocked(const std::string& kind, const std::string& task,
                            int64_t index);

  mutable std::mutex mu_;
  PhiloxRandom rng_;
  double kill_probability_ = 0.0;

  std::map<std::string, int64_t> dispatch_counts_;
  std::map<std::string, int64_t> probe_counts_;
  std::map<std::string, std::set<int64_t>> kill_at_;
  std::map<std::string, std::set<int64_t>> hang_at_;
  std::map<std::string, std::set<int64_t>> hang_probe_at_;
  std::map<std::string, double> delays_;
  std::set<std::string> down_;
  std::set<int64_t> drop_transfer_at_;
  int64_t transfer_count_ = 0;

  int64_t kills_ = 0;
  int64_t hangs_ = 0;
  int64_t dropped_transfers_ = 0;
  std::vector<std::string> log_;
  std::vector<InjectedEvent> events_;
  std::map<std::string, std::vector<std::function<void(Status)>>> parked_;
};

// One task's worker behind the injector's dispatch and probe decisions, the
// same for both transports: a kill refuses the call with Unavailable, a
// hang parks `done` (FaultInjector::ParkHung), and a delay defers the call
// on the cluster's delay pool, never on the task's own threads. Real
// failures need none of this: a dead process resets its connection.
class FaultInjectingWorker : public WorkerInterface {
 public:
  // `base`, `injector` and `delay_pool` must outlive this worker. Without
  // `injector_sees_transfers` a scripted transfer drop cannot fire, so a
  // step dispatched while one is pending is refused with Unimplemented
  // rather than run whole.
  FaultInjectingWorker(WorkerInterface* base, FaultInjector* injector,
                       ThreadPool* delay_pool, bool injector_sees_transfers)
      : base_(base),
        injector_(injector),
        delay_pool_(delay_pool),
        injector_sees_transfers_(injector_sees_transfers) {}

  const std::string& job() const override { return base_->job(); }
  int task_index() const override { return base_->task_index(); }

  Status RegisterSubgraph(const std::string& handle, const std::string& segment,
                          std::shared_ptr<const Graph> partition,
                          const std::string& device_name) override {
    return base_->RegisterSubgraph(handle, segment, std::move(partition),
                                   device_name);
  }

  void RunSubgraphsAsync(const std::string& handle, const Executor::Args& args,
                         std::function<void(Status)> done) override;
  void PingAsync(std::function<void(Status)> done) override;

  bool HasSubgraphs(const std::string& handle) const override {
    return base_->HasSubgraphs(handle);
  }
  int64_t incarnation() const override { return base_->incarnation(); }

 private:
  // Carries out `decision` for one call: refuses `done` ("task ... " +
  // `refusal`) or parks it, or hands it to `call` now or after the delay.
  void Apply(const FaultInjector::Decision& decision, const char* refusal,
             std::function<void(Status)> done,
             std::function<void(std::function<void(Status)>)> call);

  WorkerInterface* base_;
  FaultInjector* injector_;
  ThreadPool* delay_pool_;
  const bool injector_sees_transfers_;
};

// Wraps a step's rendezvous, dropping cross-task transfers the injector
// says to drop. Local (same-task) transfers always pass through.
class FaultInjectingRendezvous : public Rendezvous {
 public:
  FaultInjectingRendezvous(FaultInjector* injector,
                           std::shared_ptr<Rendezvous> base)
      : injector_(injector), base_(std::move(base)) {}

  Status Send(const std::string& key, const Tensor& value,
              bool is_dead) override;
  void RecvAsync(const std::string& key, DoneCallback done) override;
  // Hashed variants keep the caller's precomputed key hash flowing through
  // to the sharded base rendezvous.
  Status Send(const std::string& key, uint64_t key_hash, const Tensor& value,
              bool is_dead) override;
  void RecvAsync(const std::string& key, uint64_t key_hash,
                 DoneCallback done) override;
  void StartAbort(const Status& status) override;

 private:
  FaultInjector* injector_;
  std::shared_ptr<Rendezvous> base_;
};

}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_FAULT_INJECTOR_H_
