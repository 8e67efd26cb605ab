// The session (paper §3.2–§3.3). A DirectSession is the one-task,
// in-process case of the distributed master: client, master and worker
// share one process, and local execution runs the master's step path (see
// distributed/master.h for the step contract, including the concurrent-Run
// guarantees). This header also holds the step-signature compile and the
// one-task session's options.

#ifndef TFREPRO_RUNTIME_SESSION_H_
#define TFREPRO_RUNTIME_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "distributed/master.h"
#include "graph/graph.h"
#include "runtime/device.h"
#include "runtime/graph_optimizer.h"
#include "runtime/placer.h"

namespace tfrepro {

// The cache key of one step signature (feeds | fetches | targets). It is
// stable across processes, so a restarted master's durable-state replay
// finds the same slots.
std::string SignatureKey(const std::vector<std::string>& feed_names,
                         const std::vector<std::string>& fetches,
                         const std::vector<std::string>& targets);

// Compiles one step signature of `graph` onto `devices`: rewrite for the
// feeds, fetches and targets (paper §3.2), static shape check, place
// (§3.3), optimize with the Run targets preserved (§5), and partition with
// Send/Recv insertion (§3.3). Returns one graph per device. Locking,
// caching and registration stay with the caller.
Result<std::map<std::string, std::unique_ptr<Graph>>> CompileSignature(
    const Graph& graph, const std::vector<std::string>& feed_names,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets,
    const std::vector<Device*>& devices, const PlacerOptions& placer,
    OptimizerOptions optimizer);

// Options of a one-task session (MasterSession::Create(graph, options)).
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

// The task "/job:<job_name>/task:0", always in-process, with num_threads
// threads and devices "/job:<job_name>/task:0/device:CPU:i".
using DirectSession = distributed::MasterSession;

}  // namespace tfrepro

#endif  // TFREPRO_RUNTIME_SESSION_H_
