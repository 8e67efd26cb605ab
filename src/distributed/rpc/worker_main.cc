// Entry point for one worker process of the socket transport (DESIGN.md
// §11). Spawned by ProcessCluster as:
//
//   worker_main --job=worker --task=0 --ready_fd=7 [--threads=2]
//       [--devices=1]
//
// The service binds an ephemeral port, writes it and a newline to the
// inherited pipe --ready_fd names, then serves RPCs — the master's and its
// peers' pushed tensors — until a Shutdown RPC arrives. The pipe stays
// open as a lifeline: the master holds its read end until it reaps this
// process, so the read end closes when the master dies, and then this
// process exits at once instead of serving no one. Being SIGKILLed at any
// point is an expected fate — the master's chaos tests do exactly that —
// and requires no cooperation from this side.

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

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

  // Report readiness: the port and a newline.
  const std::string port = std::to_string(service.port()) + "\n";
  if (::write(ready_fd, port.data(), port.size()) !=
      static_cast<ssize_t>(port.size())) {
    std::fprintf(stderr, "worker_main: cannot report the port on fd %d\n",
                 ready_fd);
    return 1;
  }
  // The lifeline: nothing more is written to the pipe, so poll reports it
  // only once its read end closes (POLLERR). The master is gone then: no
  // one is left to answer and nothing needs draining, and a wedged step
  // must not keep this process alive, so it exits at once. Closing `stop`
  // wakes the watcher when a Shutdown RPC ends the process instead.
  int stop[2];
  if (::pipe2(stop, O_CLOEXEC) != 0) {
    std::perror("worker_main: pipe2");
    return 1;
  }
  std::thread lifeline([ready_fd, stop_fd = stop[0]]() {
    pollfd fds[2] = {{ready_fd, 0, 0}, {stop_fd, POLLIN, 0}};
    while (::poll(fds, 2, -1) < 0 && errno == EINTR) {
    }
    if (fds[0].revents != 0) ::_exit(0);
  });

  // With TFREPRO_METRICS_DUMP_SECS set, periodically dump the metrics
  // registry to a JSON file so a long-running worker can be inspected
  // without a debugger; a final dump lands when the exporter is destroyed.
  std::unique_ptr<tfrepro::metrics::MetricsExporter> exporter =
      tfrepro::metrics::MetricsExporter::StartFromEnv();

  service.WaitForShutdown();
  ::close(stop[1]);
  lifeline.join();
  ::close(stop[0]);
  return 0;
}
