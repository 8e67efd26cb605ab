// DynamicBatcher: coalesces concurrent single-example inference requests
// into batched Session::Run calls (the serving analogue of the paper's
// batched training step: one matmul over [k, d] amortizes kernel dispatch,
// executor wakeups and cache traffic over k requests).
//
// Policy knobs mirror the classic serving batcher:
//   * max_batch_size   — a full batch dispatches immediately;
//   * batch_timeout_us — a partial batch dispatches once its OLDEST request
//     has waited this long (bounded latency under light load);
//   * max_enqueued     — admission control: beyond this many queued
//     requests Enqueue fails fast with Unavailable instead of building an
//     unbounded backlog (callers see backpressure, "serving.rejected"
//     counts it).
//
// The batcher resolves its servable through a provider callback at batch
// dispatch time, so a ModelManager hot-swap applies at the next batch
// boundary: every request in one batch is answered by exactly one version
// (no torn state), and responses carry that version.
//
// Observability: serving.requests / serving.batches / serving.rejected
// counters, serving.queue_depth gauge, serving.batch_size and
// serving.request_ms / serving.batch_run_ms histograms, plus a
// "serving.queue_wait" trace span per request (visible on the Chrome trace
// "waits" row when a capture_global_events TraceCollector is live).

#ifndef TFREPRO_SERVING_BATCHER_H_
#define TFREPRO_SERVING_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "serving/servable.h"

namespace tfrepro {
namespace serving {

class DynamicBatcher {
 public:
  struct Options {
    int64_t max_batch_size = 32;
    int64_t batch_timeout_us = 1000;
    int64_t max_enqueued = 1024;
    // Batch threads run dispatched batches concurrently (the session
    // supports concurrent Run); >1 overlaps a forming batch with a running
    // one when the model is slower than arrival.
    int num_batch_threads = 1;
  };

  // Resolved at every batch dispatch; returning nullptr fails that batch's
  // requests with FailedPrecondition.
  using ServableProvider =
      std::function<std::shared_ptr<const Servable>()>;

  struct Response {
    Status status;
    // One tensor per signature output, batch dimension stripped
    // (request example [d] -> output row [c]).
    std::vector<Tensor> outputs;
    // Servable version that answered (-1 on pre-dispatch failure).
    int64_t version = -1;
  };
  using DoneCallback = std::function<void(Response)>;

  DynamicBatcher(ServableProvider provider, Options options);
  ~DynamicBatcher();

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  // Enqueues one example (shape = the example WITHOUT its batch dimension;
  // a [d]-vector for an MLP, [h,w,c] for a convnet). `done` runs exactly
  // once, on a batch thread. Fails fast — without invoking `done` — with
  // Unavailable when the queue holds max_enqueued requests (backpressure)
  // or the batcher is shut down, and InvalidArgument for string tensors.
  Status Enqueue(Tensor example, DoneCallback done);

  // Synchronous convenience: Enqueue + wait. Enqueue failures come back as
  // Response.status.
  Response RunOne(Tensor example);

  // Fails queued requests with Cancelled and joins the batch threads.
  // Idempotent; also run by the destructor.
  void Shutdown();

  int64_t queue_depth() const;

 private:
  struct Request {
    Tensor example;
    DoneCallback done;
    int64_t enqueue_micros = 0;
  };

  void BatchLoop();
  void ExecuteBatch(std::vector<Request> batch);

  const ServableProvider provider_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace serving
}  // namespace tfrepro

#endif  // TFREPRO_SERVING_BATCHER_H_
