// tf.data-style composable input pipelines (paper Figure 1: the Reader and
// preprocessing stages live in the dataflow graph, not in client feed
// dicts). A DatasetBase describes an element stream; MakeIterator() yields
// an IteratorBase whose GetNext() pulls one element at a time. Datasets
// compose: RecordFile -> Repeat -> ParallelMap -> Shuffle -> Batch ->
// Prefetch. The graph-facing ops (kernels/data_ops.cc) wrap datasets as
// device resources so a Run call fetches elements like any other tensor;
// the distributed data service (distributed/data_service.h) serves one
// pipeline's elements to many workers over the rpc transport.
//
// Threading contract: an iterator is single-consumer — callers serialize
// GetNext() — but iterators may run internal parallelism (ParallelMap's
// private pool, Prefetch's producer thread). Cancel() must be safe to call
// from any thread, concurrently with a blocked GetNext(), and must unblock
// it promptly; it is the hook session teardown and Coordinator stop use.

#ifndef TFREPRO_DATA_DATASET_H_
#define TFREPRO_DATA_DATASET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "core/types.h"
#include "runtime/kernel.h"
#include "runtime/resource_mgr.h"

namespace tfrepro {
namespace data {

// One pipeline element: a tuple of tensors (e.g. {features, label}).
using Element = std::vector<Tensor>;

struct IteratorContext {
  // Step-level cancellation (may be null): a blocked GetNext should abort
  // with Cancelled when the step is torn down.
  CancellationManager* cancellation = nullptr;
};

class IteratorBase {
 public:
  virtual ~IteratorBase() = default;

  // Produces the next element. Returns OK with *end_of_sequence = true
  // (and *out untouched) when the stream is exhausted; blocking is allowed
  // (Prefetch waits on its producer). Callers serialize GetNext.
  virtual Status GetNext(IteratorContext* ctx, Element* out,
                         bool* end_of_sequence) = 0;

  // Unblocks any pending GetNext with Cancelled and stops background
  // production. Idempotent; callable from any thread.
  virtual void Cancel() {}
};

class DatasetBase {
 public:
  virtual ~DatasetBase() = default;
  virtual Result<std::unique_ptr<IteratorBase>> MakeIterator() const = 0;
  virtual const DataTypeVector& output_dtypes() const = 0;
  virtual std::string DebugString() const = 0;
};

// The ResourceBase wrapper dataset ops publish in the device's resource
// manager; handle tensors name one of these.
struct DatasetResource : public ResourceBase {
  explicit DatasetResource(std::shared_ptr<DatasetBase> d)
      : dataset(std::move(d)) {}
  std::shared_ptr<DatasetBase> dataset;
  std::string DebugString() const override { return dataset->DebugString(); }
};

// Iterator state as a named resource: IteratorGetNext publishes its
// iterator under "<dataset handle>/iterator", so the stream position lives
// with the device, not with any one session's kernel cache — a second
// MasterSession over the same cluster devices continues the stream instead
// of restarting it. Destroying the resource (device teardown) cancels the
// iterator, unblocking producer threads parked on full buffers.
struct IteratorResource : public ResourceBase {
  explicit IteratorResource(std::unique_ptr<IteratorBase> it)
      : iterator(std::move(it)) {}
  ~IteratorResource() override {
    if (iterator != nullptr) iterator->Cancel();
  }
  std::mutex mu;  // serializes GetNext across kernels sharing this iterator
  std::unique_ptr<IteratorBase> iterator;
  std::string DebugString() const override { return "Iterator"; }
};

// -----------------------------------------------------------------------------
// Map functions: named element -> element transforms (the "user-selected
// parse/augment kernel" ParallelMap fans out). Registered by name so graph
// attrs — plain strings — can select them, including in worker_main
// processes that never see the client's address space.
// -----------------------------------------------------------------------------

using MapFn = std::function<Status(const Element& in, Element* out)>;

class MapFnRegistry {
 public:
  static MapFnRegistry* Global();
  Status Register(const std::string& name, MapFn fn);
  Result<MapFn> Lookup(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, MapFn> fns_;
};

// Built-in map fns (registered at static-init time in dataset.cc):
//   "identity"              pass-through
//   "parse_example"         record payload -> {features [dim] float,
//                           label [] int64} (EncodeExample format)
//   "parse_example_heavy"   parse_example plus a deliberately expensive
//                           deterministic augmentation — CPU-bound input.
//   "parse_example_remote"  parse_example behind an emulated remote-storage
//                           read latency — latency-bound input, the
//                           input-bound workload bench_input gates on.

// Record payload codec for the clustered-classification examples:
//   [int32 dim][float * dim][int64 label]
std::string EncodeExample(const float* features, int dim, int64_t label);
Status DecodeExample(const std::string& payload, Tensor* features,
                     Tensor* label);

// Writes `count` deterministic ClusteredDataset examples (EncodeExample
// payloads) to a record file at `path`.
Status WriteClusteredRecordFile(const std::string& path, int count,
                                int num_classes, int dim, uint64_t seed);

// -----------------------------------------------------------------------------
// Dataset factories.
// -----------------------------------------------------------------------------

// Source: reads `filenames` in order; each element is {payload: string
// scalar}. Clean per-file EOF advances to the next file; corruption
// (DataLoss) fails the stream.
Result<std::shared_ptr<DatasetBase>> NewRecordFileDataset(
    std::vector<std::string> filenames);

// Applies the registered map fn to each input element on a private
// work-stealing pool of `parallelism` threads, output order equal to input
// order. Inputs are pulled ahead in batches of up to 8 * parallelism
// elements (DESIGN.md §14).
Result<std::shared_ptr<DatasetBase>> NewParallelMapDataset(
    std::shared_ptr<DatasetBase> input, const std::string& map_fn,
    int parallelism, DataTypeVector output_dtypes);

// Seeded reservoir shuffle over a `buffer_size` window; deterministic for a
// fixed seed and input order (owns its Philox stream).
Result<std::shared_ptr<DatasetBase>> NewShuffleDataset(
    std::shared_ptr<DatasetBase> input, int64_t buffer_size, uint64_t seed);

// Repeats the input `count` times (-1 = forever) by re-making its iterator
// per epoch.
Result<std::shared_ptr<DatasetBase>> NewRepeatDataset(
    std::shared_ptr<DatasetBase> input, int64_t count);

// Stacks `batch_size` consecutive elements along a new leading dimension;
// the final partial batch is emitted unless drop_remainder.
Result<std::shared_ptr<DatasetBase>> NewBatchDataset(
    std::shared_ptr<DatasetBase> input, int64_t batch_size,
    bool drop_remainder);

// Decouples producer from consumer: a background thread fills a bounded
// queue of `buffer_size` elements ahead of the consumer.
Result<std::shared_ptr<DatasetBase>> NewPrefetchDataset(
    std::shared_ptr<DatasetBase> input, int64_t buffer_size);

// Looks up the dataset named by a handle tensor (input `handle_input` of
// `ctx`) in the device's resource manager.
Result<std::shared_ptr<DatasetBase>> LookupDataset(OpKernelContext* ctx,
                                                   int handle_input);

}  // namespace data
}  // namespace tfrepro

#endif  // TFREPRO_DATA_DATASET_H_
