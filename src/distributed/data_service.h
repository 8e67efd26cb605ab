// Shared data service (tf.data-service shape; related repo:
// core/data/service): ONE pipeline task runs the input pipeline and serves
// its elements to N training workers over the rpc transport, so adding
// workers does not re-read and re-preprocess the same files N times.
//
// Element assignment is round-robin by global production index: consumer c
// holding cursor k receives the element with global index k*N + c — the
// i-th element the (deterministic) pipeline iterator produces. Because the
// mapping is a pure function of (consumer, cursor) and production order, a
// restarted pipeline task re-derives any element from a fresh iterator, and
// a consumer that retries an unanswered cursor always gets the same
// element.
//
// Exactly-once delivery: a consumer advances its cursor only after a
// response arrives; the server caches the last response per consumer, so a
// retry of the last cursor is answered by retransmission, never by
// re-serving a fresh element to a different slot. Exactly-once
// preprocessing holds on the failure-free path — each element is produced
// (and its map fns run) once, no matter how many consumers pull.
//
// Wire format (Method::kGetElement):
//   request  body: [int64 consumer][int64 cursor]
//   response body: [app Status][int64 end_of_epoch][int64 ncomponents]
//                  [tensor bytes...]

#ifndef TFREPRO_DISTRIBUTED_DATA_SERVICE_H_
#define TFREPRO_DISTRIBUTED_DATA_SERVICE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "data/dataset.h"
#include "distributed/rpc/rpc_channel.h"
#include "distributed/rpc/rpc_server.h"

namespace tfrepro {
namespace distributed {

// The transport-independent request state machine. DataServiceServer
// delegates its kGetElement frames here.
class DataServiceHandler {
 public:
  // Must yield iterators producing the SAME element sequence every call —
  // restart recovery re-derives served elements from a fresh iterator.
  using IteratorFactory =
      std::function<Result<std::unique_ptr<data::IteratorBase>>()>;

  struct Options {
    int num_consumers = 1;
  };

  // Bound on elements buffered for lagging consumers before a far-ahead
  // consumer is pushed back with retryable Unavailable.
  static constexpr int64_t kMaxAhead = 1 << 14;

  DataServiceHandler(IteratorFactory factory, Options options);
  ~DataServiceHandler();

  // Serves one GetElement request body; `respond` is called exactly once
  // (possibly inline) with the application status and response body.
  void HandleGetElement(
      const std::string& body,
      const std::function<void(const Status&, const std::string&)>& respond);

  // Fails future requests with Cancelled and unblocks a production pull in
  // flight. Idempotent.
  void Cancel();

 private:
  const Options options_;
  std::atomic<bool> cancelled_{false};

  std::mutex mu_;
  Status init_status_;
  std::unique_ptr<data::IteratorBase> iterator_;
  int64_t next_index_ = 0;   // global index of the next element produced
  bool exhausted_ = false;
  int64_t end_index_ = -1;   // first index past the end, once exhausted
  Status iter_status_;
  std::map<int64_t, data::Element> buffer_;  // produced, not yet served

  struct ConsumerState {
    int64_t next_cursor = 0;
    int64_t last_cursor = -1;
    std::string last_response;  // serialized body, for retransmission
  };
  std::vector<ConsumerState> consumers_;
};

// The standalone pipeline task: a DataServiceHandler behind its own
// RpcServer. Destroying it mid-epoch and starting a fresh one on the same
// port is the supported crash-recovery path (chaos-tested).
class DataServiceServer {
 public:
  DataServiceServer(DataServiceHandler::IteratorFactory factory,
                    DataServiceHandler::Options options);
  ~DataServiceServer();

  Status Start(int port);  // 0 = ephemeral, see port()
  int port() const { return server_.port(); }
  void Shutdown();

 private:
  std::shared_ptr<DataServiceHandler> handler_;
  rpc::RpcServer server_;
};

// One training worker's view of the service: a blocking GetNext with
// deadline/retry semantics over an RpcChannel (errno-mapped retryable
// statuses, jittered reconnect backoff — the channel's own machinery).
class DataServiceClient {
 public:
  struct Options {
    int consumer = 0;
    int num_consumers = 1;
    double call_deadline_seconds = 5.0;
    // Budget for one GetNext across retries; exceeding it surfaces the
    // last transient error.
    double total_deadline_seconds = 60.0;
  };

  DataServiceClient(int port, Options options);

  // Blocks until the element at the current cursor arrives (retrying
  // transient failures), then advances the cursor.
  Status GetNext(data::Element* out, bool* end_of_epoch);

  // Fails a blocked GetNext (and all future ones) with Cancelled.
  void Cancel();

  int64_t cursor() const { return cursor_.load(); }

 private:
  const Options options_;
  rpc::RpcChannel channel_;
  std::atomic<int64_t> cursor_{0};
  std::atomic<bool> cancelled_{false};
  std::mutex call_mu_;  // serializes GetNext (single-consumer contract)
};

// Builds the record-file pipeline a data-service task hosts:
// RecordFile(files) [-> Repeat(repeat)] -> ParallelMap(map_fn, parallelism)
// [-> Shuffle(shuffle_buffer, seed)].
Result<DataServiceHandler::IteratorFactory> RecordPipelineFactory(
    std::vector<std::string> files, const std::string& map_fn,
    int parallelism, DataTypeVector output_types, int64_t repeat,
    int64_t shuffle_buffer, uint64_t seed);

}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_DATA_SERVICE_H_
