// Master-side liveness monitoring (paper §4.3: "many kinds of failures ...
// we detect them using a combination of health checks"). PR-1's runtime
// only noticed a dead task when a step touched it; the prober closes that
// gap: a background thread pings every task on a fixed interval through the
// cluster's workers (WorkerInterface::PingAsync, so injected kill/hang/delay
// faults apply to probes too), counts consecutive misses per task, and
// declares a task dead after `miss_threshold` misses — firing the owner's
// `on_dead` callback *between* steps instead of waiting for a step to block
// on the dead task's rendezvous.
//
// A probe round has its own timeout, one interval: a hung task parks the
// probe callback forever (FaultInjector::ParkHung), so the prober never
// waits on the callback without a deadline — a wedged probe costs one
// round, not the thread.
//
// Metrics (global registry, tagged {"session", "task"}): health.probe_sent,
// health.probe_ok, health.probe_miss, health.probe_dead_marked. Declaring a
// task dead also emits a "health.task_dead" trace instant.

#ifndef TFREPRO_DISTRIBUTED_HEALTH_PROBER_H_
#define TFREPRO_DISTRIBUTED_HEALTH_PROBER_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "distributed/cluster.h"

namespace tfrepro {
namespace distributed {

class HealthProber {
 public:
  struct Options {
    // Seconds between probe rounds (all tasks are probed concurrently per
    // round, so one hung task cannot starve the others' probes). A round
    // also waits this long for the answers; a probe still outstanding then
    // counts as a miss. The wait between rounds is perturbed uniformly
    // within ±10% so a fleet of masters restarted together does not probe
    // its tasks in lockstep; each prober draws from its own stream.
    double interval_seconds = 0.025;
    // Consecutive misses (K) before a task is declared dead.
    int miss_threshold = 3;
  };

  // Starts probing immediately. `on_dead(task)` fires from the prober
  // thread on every round where a task's consecutive misses reach the
  // threshold, until the task answers a probe again (a restarted task's
  // first successful probe resets its miss count). `session` tags the
  // metrics. The cluster must outlive the prober.
  HealthProber(Cluster* cluster, const Options& options, std::string session,
               std::function<void(WorkerInterface*)> on_dead);
  ~HealthProber();

  // Stops the prober thread; idempotent. No on_dead fires after it returns.
  void Stop();

  // Consecutive misses currently held against `task` (tests).
  int misses(const std::string& task) const;

 private:
  void Loop();
  void ProbeRound();
  // The coming round's wait, with jitter applied.
  double JitteredIntervalSeconds();

  Cluster* cluster_;
  Options options_;
  std::string session_;
  std::function<void(WorkerInterface*)> on_dead_;
  uint64_t jitter_state_;  // xorshift64* state; never 0

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::map<std::string, int> misses_;
  std::thread thread_;
};

}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_HEALTH_PROBER_H_
