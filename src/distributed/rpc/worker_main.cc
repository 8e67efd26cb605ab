// Entry point for one worker process of the socket transport (DESIGN.md
// §11). Spawned by ProcessCluster as:
//
//   worker_main --job=worker --task=0 --ready_fd=7 [--threads=2]
//       [--devices=1]
//
// The service binds an ephemeral port, writes it to the inherited pipe
// --ready_fd names and closes that pipe, then serves RPCs — the master's
// and its peers' pushed tensors — until a Shutdown RPC arrives. Being
// SIGKILLed at any point is an expected fate — the master's chaos tests do
// exactly that — and requires no cooperation from this side.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/metrics.h"
#include "distributed/rpc/worker_service.h"

namespace {

// Returns the value of "--name=value" if `arg` matches, else nullptr.
const char* FlagValue(const char* arg, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  return std::strncmp(arg, prefix.c_str(), prefix.size()) == 0
             ? arg + prefix.size()
             : nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  tfrepro::distributed::rpc::WorkerService::Options options;
  int ready_fd = -1;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = FlagValue(argv[i], "job")) {
      options.job = v;
    } else if (const char* v = FlagValue(argv[i], "task")) {
      options.task_index = std::atoi(v);
    } else if (const char* v = FlagValue(argv[i], "ready_fd")) {
      ready_fd = std::atoi(v);
    } else if (const char* v = FlagValue(argv[i], "threads")) {
      options.num_threads = std::atoi(v);
    } else if (const char* v = FlagValue(argv[i], "devices")) {
      options.num_devices = std::atoi(v);
    } else {
      std::fprintf(stderr, "worker_main: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (options.job.empty() || ready_fd < 0) {
    std::fprintf(stderr, "worker_main: --job and --ready_fd are required\n");
    return 2;
  }

  tfrepro::distributed::rpc::WorkerService service(options);
  tfrepro::Status started = service.Start(/*port=*/0);
  if (!started.ok()) {
    std::fprintf(stderr, "worker_main: %s\n", started.message().c_str());
    return 1;
  }

  // Report readiness: the port, then EOF.
  const std::string port = std::to_string(service.port()) + "\n";
  if (::write(ready_fd, port.data(), port.size()) !=
      static_cast<ssize_t>(port.size())) {
    std::fprintf(stderr, "worker_main: cannot report the port on fd %d\n",
                 ready_fd);
    return 1;
  }
  ::close(ready_fd);

  // With TFREPRO_METRICS_DUMP_SECS set, periodically dump the metrics
  // registry to a JSON file so a long-running worker can be inspected
  // without a debugger; a final dump lands when the exporter is destroyed.
  std::unique_ptr<tfrepro::metrics::MetricsExporter> exporter =
      tfrepro::metrics::MetricsExporter::StartFromEnv();

  service.WaitForShutdown();
  return 0;
}
