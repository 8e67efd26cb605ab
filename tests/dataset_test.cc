// Input-pipeline tests (data/dataset.h + kernels/data_ops.cc): record-file
// corruption regression cases, synthetic-generator edge cases, the dataset
// contracts the ISSUE pins down (shuffle determinism by seed, parallel-map
// ordering, prefetch bounded occupancy, batch remainder handling),
// cancellation of blocked producers, and an end-to-end graph pipeline
// through DirectSession.

#include "data/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unistd.h>

#include "core/metrics.h"
#include "data/record_file.h"
#include "data/synthetic.h"
#include "graph/ops.h"
#include "runtime/session.h"

namespace tfrepro {
namespace {

using data::Element;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Pulls every remaining element out of `it`; fails the test on any error.
std::vector<Element> Drain(data::IteratorBase* it) {
  std::vector<Element> out;
  data::IteratorContext ctx;
  for (;;) {
    Element e;
    bool eos = false;
    Status s = it->GetNext(&ctx, &e, &eos);
    TF_CHECK_OK(s);
    if (eos) return out;
    out.push_back(std::move(e));
  }
}

std::vector<std::string> DrainStrings(data::IteratorBase* it) {
  std::vector<std::string> out;
  for (Element& e : Drain(it)) out.push_back(e[0].str(0));
  return out;
}

// -----------------------------------------------------------------------------
// RecordWriter / RecordReader regression tests (silent-I/O-error satellite).
// -----------------------------------------------------------------------------

TEST(RecordFileRegressionTest, TruncatedHeaderIsDataLossNotEof) {
  const std::string path = TempPath("ds_trunc_header");
  {
    data::RecordWriter w(path);
    TF_CHECK_OK(w.Append("first"));
    TF_CHECK_OK(w.Append("second"));
    TF_CHECK_OK(w.Close());
  }
  // Leave record 1 intact plus 5 bytes of record 2's 12-byte header: a
  // mid-header EOF is a torn file, not a clean end.
  std::filesystem::resize_file(path, 12 + 5 + 5);
  data::RecordReader reader(path);
  std::string record;
  TF_CHECK_OK(reader.ReadNext(&record));
  EXPECT_EQ(record, "first");
  EXPECT_EQ(reader.ReadNext(&record).code(), Code::kDataLoss);
}

TEST(RecordFileRegressionTest, TruncatedPayloadIsDataLoss) {
  const std::string path = TempPath("ds_trunc_payload");
  {
    data::RecordWriter w(path);
    TF_CHECK_OK(w.Append("a payload long enough to chop"));
    TF_CHECK_OK(w.Close());
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 7);
  data::RecordReader reader(path);
  std::string record;
  EXPECT_EQ(reader.ReadNext(&record).code(), Code::kDataLoss);
}

TEST(RecordFileRegressionTest, FlippedChecksumIsDataLoss) {
  const std::string path = TempPath("ds_bad_checksum");
  {
    data::RecordWriter w(path);
    TF_CHECK_OK(w.Append("payload"));
    TF_CHECK_OK(w.Close());
  }
  {
    // Header layout: [int64 length][uint32 checksum]; flip a checksum byte.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(8);
    char c = static_cast<char>(f.get());
    f.seekp(8);
    f.put(static_cast<char>(c ^ 0x40));
  }
  data::RecordReader reader(path);
  std::string record;
  Status s = reader.ReadNext(&record);
  EXPECT_EQ(s.code(), Code::kDataLoss);
}

TEST(RecordFileRegressionTest, AbsurdLengthRejectedBeforeAllocation) {
  const std::string path = TempPath("ds_absurd_len");
  {
    std::ofstream f(path, std::ios::binary);
    int64_t length = int64_t{1} << 60;  // would be a 1-EiB allocation
    uint32_t checksum = 0;
    f.write(reinterpret_cast<const char*>(&length), sizeof(length));
    f.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  }
  data::RecordReader reader(path);
  std::string record;
  Status s = reader.ReadNext(&record);
  EXPECT_EQ(s.code(), Code::kDataLoss);
  EXPECT_NE(s.message().find("length"), std::string::npos);

  const std::string neg_path = TempPath("ds_negative_len");
  {
    std::ofstream f(neg_path, std::ios::binary);
    int64_t length = -5;
    uint32_t checksum = 0;
    f.write(reinterpret_cast<const char*>(&length), sizeof(length));
    f.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  }
  data::RecordReader neg_reader(neg_path);
  EXPECT_EQ(neg_reader.ReadNext(&record).code(), Code::kDataLoss);
}

TEST(RecordFileRegressionTest, FullDiskWriteFailsLoudAndStaysBroken) {
  // /dev/full fails every write with ENOSPC — the classic silent-loss trap
  // for buffered writers.
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not writable here";
  }
  data::RecordWriter w("/dev/full");
  Status s = w.Append(std::string(1 << 16, 'x'));
  EXPECT_EQ(s.code(), Code::kDataLoss);
  // The failed write was never counted, and the writer stays broken: the
  // file may end mid-record, so later appends must not write after a gap.
  EXPECT_EQ(w.records_written(), 0);
  EXPECT_EQ(w.Append("tiny").code(), Code::kDataLoss);
  EXPECT_EQ(w.Close().code(), Code::kDataLoss);
}

TEST(RecordFileRegressionTest, AppendAfterCloseIsFailedPrecondition) {
  const std::string path = TempPath("ds_append_after_close");
  data::RecordWriter w(path);
  TF_CHECK_OK(w.Append("one"));
  TF_CHECK_OK(w.Close());
  EXPECT_EQ(w.Append("two").code(), Code::kFailedPrecondition);
  EXPECT_EQ(w.records_written(), 1);
}

// -----------------------------------------------------------------------------
// Synthetic generator edge cases.
// -----------------------------------------------------------------------------

TEST(SyntheticEdgeTest, ZipfVocabSizeOne) {
  data::ZipfTokenStream stream(1, 1.0, 42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(stream.Next(), 0);
  Tensor tokens, labels;
  stream.Batch(2, 3, &tokens, &labels);
  for (int64_t i = 0; i < tokens.num_elements(); ++i) {
    EXPECT_EQ(tokens.flat<int64_t>(i), 0);
  }
}

TEST(SyntheticEdgeTest, ZipfDegenerateVocabClamped) {
  data::ZipfTokenStream stream(0, 1.0, 42);
  // Must not return the -1 an unclamped CDF binary search used to produce.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(stream.Next(), 0);
}

TEST(SyntheticEdgeTest, BatchSizeZeroYieldsEmptyTensors) {
  data::ClusteredDataset clustered(4, 8, 7);
  Tensor features, labels;
  clustered.Batch(0, &features, &labels);
  EXPECT_EQ(features.shape(), TensorShape({0, 8}));
  EXPECT_EQ(labels.shape(), TensorShape({0}));

  data::ZipfTokenStream stream(100, 1.0, 7);
  Tensor tokens, next;
  stream.Batch(0, 5, &tokens, &next);
  EXPECT_EQ(tokens.num_elements(), 0);
}

TEST(SyntheticEdgeTest, BatchDeterministicAcrossInterleavedRngUsers) {
  // The generators own private Philox streams: drawing from unrelated RNGs
  // (or another generator) between batches must not perturb their output.
  data::ClusteredDataset a(4, 8, 123);
  PhiloxRandom noise(123, /*stream=*/0);
  for (int i = 0; i < 1000; ++i) noise.Uniform();
  data::ZipfTokenStream interloper(50, 1.2, 123);
  for (int i = 0; i < 77; ++i) interloper.Next();

  data::ClusteredDataset b(4, 8, 123);
  Tensor fa, la, fb, lb;
  a.Batch(16, &fa, &la);
  b.Batch(16, &fb, &lb);
  for (int64_t i = 0; i < fa.num_elements(); ++i) {
    ASSERT_EQ(fa.flat<float>(i), fb.flat<float>(i)) << i;
  }
  for (int64_t i = 0; i < la.num_elements(); ++i) {
    ASSERT_EQ(la.flat<int64_t>(i), lb.flat<int64_t>(i)) << i;
  }
}

// -----------------------------------------------------------------------------
// Dataset framework.
// -----------------------------------------------------------------------------

std::shared_ptr<data::DatasetBase> RecordsDataset(const std::string& path,
                                                  int count) {
  TF_CHECK_OK(data::WriteClusteredRecordFile(path, count, /*num_classes=*/3,
                                             /*dim=*/4, /*seed=*/11));
  auto d = data::NewRecordFileDataset({path});
  TF_CHECK_OK(d.status());
  return d.value();
}

TEST(DatasetTest, RecordFileReadsAllInOrderAcrossFiles) {
  const std::string p1 = TempPath("ds_src_a"), p2 = TempPath("ds_src_b");
  TF_CHECK_OK(data::WriteClusteredRecordFile(p1, 5, 3, 4, 11));
  TF_CHECK_OK(data::WriteClusteredRecordFile(p2, 3, 3, 4, 22));
  auto d = data::NewRecordFileDataset({p1, p2});
  TF_CHECK_OK(d.status());
  auto it = d.value()->MakeIterator();
  TF_CHECK_OK(it.status());
  std::vector<std::string> payloads = DrainStrings(it.value().get());
  ASSERT_EQ(payloads.size(), 8u);

  // Same order as reading the files directly, p1 then p2.
  std::vector<std::string> expected;
  for (const std::string& p : {p1, p2}) {
    data::RecordReader reader(p);
    std::string record;
    while (reader.ReadNext(&record).ok()) expected.push_back(record);
  }
  EXPECT_EQ(payloads, expected);
}

TEST(DatasetTest, RecordFileCorruptionFailsStream) {
  const std::string path = TempPath("ds_src_corrupt");
  TF_CHECK_OK(data::WriteClusteredRecordFile(path, 4, 3, 4, 11));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  auto d = data::NewRecordFileDataset({path});
  TF_CHECK_OK(d.status());
  auto it = d.value()->MakeIterator();
  TF_CHECK_OK(it.status());
  data::IteratorContext ctx;
  Element e;
  bool eos = false;
  Status s = Status::OK();
  while (s.ok() && !eos) s = it.value()->GetNext(&ctx, &e, &eos);
  EXPECT_EQ(s.code(), Code::kDataLoss);
}

TEST(DatasetTest, ShuffleIsDeterministicPerSeed) {
  const std::string path = TempPath("ds_shuffle");
  auto source = RecordsDataset(path, 50);
  auto run = [&](uint64_t seed) {
    auto d = data::NewShuffleDataset(source, /*buffer_size=*/16, seed);
    TF_CHECK_OK(d.status());
    auto it = d.value()->MakeIterator();
    TF_CHECK_OK(it.status());
    return DrainStrings(it.value().get());
  };
  std::vector<std::string> a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b);             // same seed -> same order
  EXPECT_NE(a, c);             // different seed -> different permutation
  std::vector<std::string> sa = a, sc = c;
  std::sort(sa.begin(), sa.end());
  std::sort(sc.begin(), sc.end());
  EXPECT_EQ(sa, sc);           // ...of the same multiset
}

// A source of the float scalars 0, 1, 2, ... whose iterator counts
// productions: measures how far ahead ParallelMap's refills and Prefetch's
// producer pull.
class CountingDataset : public data::DatasetBase {
 public:
  CountingDataset(int limit, std::atomic<int>* produced)
      : limit_(limit), produced_(produced) {}

  class Iter : public data::IteratorBase {
   public:
    Iter(int limit, std::atomic<int>* produced)
        : limit_(limit), produced_(produced) {}
    Status GetNext(data::IteratorContext*, Element* out,
                   bool* end_of_sequence) override {
      if (next_ >= limit_) {
        *end_of_sequence = true;
        return Status::OK();
      }
      out->clear();
      out->push_back(Tensor::Scalar(static_cast<float>(next_++)));
      produced_->fetch_add(1);
      *end_of_sequence = false;
      return Status::OK();
    }

   private:
    const int limit_;
    std::atomic<int>* produced_;
    int next_ = 0;
  };

  Result<std::unique_ptr<data::IteratorBase>> MakeIterator() const override {
    return std::unique_ptr<data::IteratorBase>(new Iter(limit_, produced_));
  }
  const DataTypeVector& output_dtypes() const override { return dtypes_; }
  std::string DebugString() const override { return "CountingDataset"; }

 private:
  const int limit_;
  std::atomic<int>* produced_;
  const DataTypeVector dtypes_{DataType::kFloat};
};

TEST(DatasetTest, ParallelMapPreservesInputOrder) {
  // 200 records: several window refills at every parallelism below.
  const std::string path = TempPath("ds_pmap");
  auto source = RecordsDataset(path, 200);
  auto labels_with_parallelism = [&](int parallelism) {
    auto d = data::NewParallelMapDataset(
        source, "parse_example", parallelism,
        {DataType::kFloat, DataType::kInt64});
    TF_CHECK_OK(d.status());
    auto it = d.value()->MakeIterator();
    TF_CHECK_OK(it.status());
    std::vector<int64_t> labels;
    for (Element& e : Drain(it.value().get())) {
      EXPECT_EQ(e.size(), 2u);
      labels.push_back(*e[1].data<int64_t>());
    }
    return labels;
  };
  // The ordering contract: output order == input order, independent of how
  // many map calls run concurrently.
  EXPECT_EQ(labels_with_parallelism(1), labels_with_parallelism(8));
}

// dataset.cc's kRefillFactor: a ParallelMap window that has fallen to
// `parallelism` slots is refilled to kHighWaterFactor * parallelism.
constexpr int kHighWaterFactor = 8;

std::unique_ptr<data::IteratorBase> CountingMapIterator(
    int count, std::atomic<int>* pulls, const std::string& fn,
    int parallelism) {
  auto d = data::NewParallelMapDataset(
      std::make_shared<CountingDataset>(count, pulls), fn, parallelism,
      {DataType::kFloat});
  TF_CHECK_OK(d.status());
  auto it = d.value()->MakeIterator();
  TF_CHECK_OK(it.status());
  return std::move(it.value());
}

TEST(DatasetTest, ParallelMapRefillsOnlyAtTheLowWaterMark) {
  constexpr int kParallelism = 2;
  constexpr int kHighWater = kHighWaterFactor * kParallelism;
  std::atomic<int> pulls{0};
  std::unique_ptr<data::IteratorBase> it =
      CountingMapIterator(100, &pulls, "identity", kParallelism);
  data::IteratorContext ctx;
  int want = 0;
  auto next = [&]() {
    Element e;
    bool eos = false;
    TF_CHECK_OK(it->GetNext(&ctx, &e, &eos));
    ASSERT_FALSE(eos);
    EXPECT_EQ(*e[0].data<float>(), want++);
  };
  // The first GetNext fills the window to the high-water mark.
  next();
  EXPECT_EQ(pulls.load(), kHighWater);
  // Nothing is pulled while more than `parallelism` slots are left...
  for (int i = 1; i < kHighWater - kParallelism; ++i) {
    next();
    EXPECT_EQ(pulls.load(), kHighWater) << "after " << want << " elements";
  }
  // ...and the GetNext that finds `parallelism` left refills it.
  next();
  EXPECT_EQ(pulls.load(), 2 * kHighWater - kParallelism);
  for (int i = want; i < 100; ++i) next();
  Element e;
  bool eos = false;
  TF_CHECK_OK(it->GetNext(&ctx, &e, &eos));
  EXPECT_TRUE(eos);
  EXPECT_EQ(pulls.load(), 100);
}

TEST(DatasetTest, ParallelMapErrorInRefillBatchSurfacesAtItsPosition) {
  // Element 21 is mapped in the window's second batch (elements 16-29 at
  // parallelism 2); its error comes out as the 22nd GetNext, between
  // elements 20 and 22, and the stream goes on after it.
  static const bool registered = []() {
    TF_CHECK_OK(data::MapFnRegistry::Global()->Register(
        "test_fail_on_21", [](const Element& in, Element* out) -> Status {
          if (*in[0].data<float>() == 21) {
            return InvalidArgument("bad element 21");
          }
          *out = in;
          return Status::OK();
        }));
    return true;
  }();
  ASSERT_TRUE(registered);
  std::atomic<int> pulls{0};
  std::unique_ptr<data::IteratorBase> it =
      CountingMapIterator(40, &pulls, "test_fail_on_21", 2);
  data::IteratorContext ctx;
  std::vector<float> got;  // -1 stands for an error
  bool eos = false;
  while (!eos && got.size() <= 40) {
    Element e;
    Status s = it->GetNext(&ctx, &e, &eos);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), Code::kInvalidArgument);
      got.push_back(-1);
    } else if (!eos) {
      got.push_back(*e[0].data<float>());
    }
  }
  EXPECT_TRUE(eos);
  ASSERT_EQ(got.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(got[i], i == 21 ? -1 : i) << i;
}

// A map fn that blocks until the test opens the gate; counts its calls.
struct MapGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> calls{0};
};

MapGate& TheMapGate() {
  static MapGate gate;
  return gate;
}

TEST(DatasetTest, ParallelMapCancelSkipsQueuedCalls) {
  static const bool registered = []() {
    TF_CHECK_OK(data::MapFnRegistry::Global()->Register(
        "test_gated_identity", [](const Element& in, Element* out) {
          MapGate& gate = TheMapGate();
          gate.calls.fetch_add(1);
          std::unique_lock<std::mutex> lock(gate.mu);
          gate.cv.wait(lock, [&]() { return gate.open; });
          *out = in;
          return Status::OK();
        }));
    return true;
  }();
  ASSERT_TRUE(registered);
  MapGate& gate = TheMapGate();
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.open = false;
  }
  gate.calls = 0;
  constexpr int kParallelism = 2;
  std::atomic<int> pulls{0};
  std::unique_ptr<data::IteratorBase> it =
      CountingMapIterator(100, &pulls, "test_gated_identity", kParallelism);
  std::promise<Status> result;
  std::future<Status> status = result.get_future();
  std::thread consumer([&]() {
    data::IteratorContext ctx;
    Element e;
    bool eos = false;
    result.set_value(it->GetNext(&ctx, &e, &eos));
  });
  // Both pool threads are inside the fn, so the window's other calls are
  // queued behind them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (gate.calls.load() < kParallelism &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(gate.calls.load(), kParallelism);
  EXPECT_EQ(pulls.load(), kHighWaterFactor * kParallelism);
  it->Cancel();
  const bool unblocked =
      status.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.open = true;
  }
  gate.cv.notify_all();
  consumer.join();
  EXPECT_TRUE(unblocked) << "GetNext stayed blocked for 2 s after Cancel()";
  EXPECT_EQ(status.get().code(), Code::kCancelled);
  it.reset();  // joins the pool: the queued calls are dequeued now
  EXPECT_EQ(gate.calls.load(), kParallelism)
      << "queued map calls ran after Cancel()";
}

TEST(DatasetTest, ParallelMapOverlapsBlockingMapFn) {
  // A latency-bound map fn (clock wait, no CPU) must overlap across the
  // window: 8 elements behind a 30ms wait have to finish well under the
  // 240ms serial time, even on one core. Guards the pool dispatch path the
  // input-bound bench_input gate depends on.
  static const bool registered = []() {
    TF_CHECK_OK(data::MapFnRegistry::Global()->Register(
        "test_blocking_identity",
        [](const Element& in, Element* out) -> Status {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          *out = in;
          return Status::OK();
        }));
    return true;
  }();
  ASSERT_TRUE(registered);
  const std::string path = TempPath("ds_pmap_overlap");
  auto source = RecordsDataset(path, 8);
  auto d = data::NewParallelMapDataset(source, "test_blocking_identity", 8,
                                       {DataType::kString});
  TF_CHECK_OK(d.status());
  auto it = d.value()->MakeIterator();
  TF_CHECK_OK(it.status());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(Drain(it.value().get()).size(), 8u);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, 150.0) << "map waits did not overlap";
}

TEST(DatasetTest, ParallelMapUnknownFnFailsAtConstruction) {
  const std::string path = TempPath("ds_pmap_unknown");
  auto source = RecordsDataset(path, 2);
  auto d = data::NewParallelMapDataset(source, "no_such_map_fn", 2,
                                       {DataType::kString});
  EXPECT_EQ(d.status().code(), Code::kNotFound);
}

TEST(DatasetTest, MapFnErrorPropagates) {
  const std::string path = TempPath("ds_pmap_err");
  // parse_example on garbage payloads (not EncodeExample format).
  {
    data::RecordWriter w(path);
    TF_CHECK_OK(w.Append("xx"));
    TF_CHECK_OK(w.Close());
  }
  auto src = data::NewRecordFileDataset({path});
  TF_CHECK_OK(src.status());
  auto d = data::NewParallelMapDataset(src.value(), "parse_example", 2,
                                       {DataType::kFloat, DataType::kInt64});
  TF_CHECK_OK(d.status());
  auto it = d.value()->MakeIterator();
  TF_CHECK_OK(it.status());
  data::IteratorContext ctx;
  Element e;
  bool eos = false;
  EXPECT_FALSE(it.value()->GetNext(&ctx, &e, &eos).ok());
}

TEST(DatasetTest, BatchStacksAndHandlesRemainder) {
  const std::string path = TempPath("ds_batch");
  auto mapped = data::NewParallelMapDataset(
      RecordsDataset(path, 10), "parse_example", 2,
      {DataType::kFloat, DataType::kInt64});
  TF_CHECK_OK(mapped.status());

  auto batched = data::NewBatchDataset(mapped.value(), 4,
                                       /*drop_remainder=*/false);
  TF_CHECK_OK(batched.status());
  auto it = batched.value()->MakeIterator();
  TF_CHECK_OK(it.status());
  std::vector<Element> batches = Drain(it.value().get());
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0][0].shape(), TensorShape({4, 4}));
  EXPECT_EQ(batches[0][1].shape(), TensorShape({4}));
  // The final partial batch is emitted, smaller.
  EXPECT_EQ(batches[2][0].shape(), TensorShape({2, 4}));

  auto dropped = data::NewBatchDataset(mapped.value(), 4,
                                       /*drop_remainder=*/true);
  TF_CHECK_OK(dropped.status());
  auto it2 = dropped.value()->MakeIterator();
  TF_CHECK_OK(it2.status());
  EXPECT_EQ(Drain(it2.value().get()).size(), 2u);
}

TEST(DatasetTest, RepeatRemakesInputIterator) {
  const std::string path = TempPath("ds_repeat");
  auto d = data::NewRepeatDataset(RecordsDataset(path, 3), 4);
  TF_CHECK_OK(d.status());
  auto it = d.value()->MakeIterator();
  TF_CHECK_OK(it.status());
  std::vector<std::string> all = DrainStrings(it.value().get());
  ASSERT_EQ(all.size(), 12u);
  for (size_t i = 3; i < all.size(); ++i) EXPECT_EQ(all[i], all[i % 3]);
}

TEST(DatasetTest, PrefetchOccupancyIsBounded) {
  std::atomic<int> produced{0};
  constexpr int kBuffer = 2;
  auto d = data::NewPrefetchDataset(
      std::make_shared<CountingDataset>(1000, &produced), kBuffer);
  TF_CHECK_OK(d.status());
  auto it = d.value()->MakeIterator();
  TF_CHECK_OK(it.status());
  data::IteratorContext ctx;
  int consumed = 0;
  for (; consumed < 5; ++consumed) {
    Element e;
    bool eos = false;
    TF_CHECK_OK(it.value()->GetNext(&ctx, &e, &eos));
    ASSERT_FALSE(eos);
    EXPECT_EQ(*e[0].data<float>(), static_cast<float>(consumed));  // ordered
  }
  // Give the producer every chance to run ahead; it must park at the
  // bounded buffer (+1 element held in hand, blocked on the full queue).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(produced.load(), consumed + kBuffer + 1);
}

TEST(DatasetTest, PrefetchDeliversEverythingThenEnds) {
  std::atomic<int> produced{0};
  auto d = data::NewPrefetchDataset(
      std::make_shared<CountingDataset>(37, &produced), 4);
  TF_CHECK_OK(d.status());
  auto it = d.value()->MakeIterator();
  TF_CHECK_OK(it.status());
  EXPECT_EQ(Drain(it.value().get()).size(), 37u);
}

// A source that blocks in GetNext until cancelled — the worst-case producer
// for shutdown.
class BlockingDataset : public data::DatasetBase {
 public:
  class Iter : public data::IteratorBase {
   public:
    Status GetNext(data::IteratorContext*, Element*, bool*) override {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return cancelled_; });
      return Cancelled("blocking source cancelled");
    }
    void Cancel() override {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
      cv_.notify_all();
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool cancelled_ = false;
  };

  Result<std::unique_ptr<data::IteratorBase>> MakeIterator() const override {
    return std::unique_ptr<data::IteratorBase>(new Iter);
  }
  const DataTypeVector& output_dtypes() const override { return dtypes_; }
  std::string DebugString() const override { return "BlockingDataset"; }

 private:
  const DataTypeVector dtypes_{DataType::kFloat};
};

TEST(DatasetTest, CancelUnblocksConsumerWaitingOnStalledProducer) {
  auto d = data::NewPrefetchDataset(std::make_shared<BlockingDataset>(), 2);
  TF_CHECK_OK(d.status());
  auto it = d.value()->MakeIterator();
  TF_CHECK_OK(it.status());

  Status got;
  std::thread consumer([&]() {
    data::IteratorContext ctx;
    Element e;
    bool eos = false;
    got = it.value()->GetNext(&ctx, &e, &eos);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  it.value()->Cancel();  // must promptly fail the blocked GetNext
  consumer.join();
  EXPECT_EQ(got.code(), Code::kCancelled);
}

TEST(DatasetTest, DestroyingIteratorUnblocksFullBufferProducer) {
  // Producer fills the tiny prefetch buffer and blocks on the full queue;
  // destroying the iterator (session close) must cancel and join it rather
  // than hang — the test finishing is the assertion.
  std::atomic<int> produced{0};
  auto d = data::NewPrefetchDataset(
      std::make_shared<CountingDataset>(1 << 20, &produced), 2);
  TF_CHECK_OK(d.status());
  auto it = d.value()->MakeIterator();
  TF_CHECK_OK(it.status());
  data::IteratorContext ctx;
  Element e;
  bool eos = false;
  TF_CHECK_OK(it.value()->GetNext(&ctx, &e, &eos));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  it.value().reset();  // blocked producer must be cancelled and joined
}

// -----------------------------------------------------------------------------
// End-to-end: the pipeline as graph nodes through DirectSession.
// -----------------------------------------------------------------------------

TEST(DatasetGraphTest, PipelineFeedsTrainingStep) {
  const std::string path = TempPath("ds_graph_pipeline");
  TF_CHECK_OK(data::WriteClusteredRecordFile(path, 10, 3, 4, 99));

  Graph g;
  GraphBuilder b(&g);
  Output files = ops::RecordFileDataset(&b, {path});
  Output mapped = ops::ParallelMapDataset(
      &b, files, "parse_example", 2, {DataType::kFloat, DataType::kInt64});
  Output batched = ops::BatchDataset(&b, mapped, 4);
  Output prefetched = ops::PrefetchDataset(&b, batched, 2);
  std::vector<Output> next = ops::IteratorGetNext(
      &b, prefetched, {DataType::kFloat, DataType::kInt64});
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(next.size(), 2u);

  auto session = DirectSession::Create(g);
  ASSERT_TRUE(session.ok()) << session.status();

  // 10 records, batch 4 -> 4, 4, 2.
  std::vector<int64_t> batch_sizes;
  for (int step = 0; step < 3; ++step) {
    std::vector<Tensor> out;
    TF_CHECK_OK(
        session.value()->Run({next[0].name(), next[1].name()}, &out));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].shape().dim(1), 4);  // feature dim
    EXPECT_EQ(out[0].shape().dim(0), out[1].shape().dim(0));
    batch_sizes.push_back(out[0].shape().dim(0));
  }
  EXPECT_EQ(batch_sizes, (std::vector<int64_t>{4, 4, 2}));

  // Exhausted: the next pull reports OutOfRange, like a closed queue.
  std::vector<Tensor> out;
  Status s = session.value()->Run({next[0].name(), next[1].name()}, &out);
  EXPECT_EQ(s.code(), Code::kOutOfRange);
}

TEST(DatasetGraphTest, IteratorStatePersistsAcrossSteps) {
  const std::string path = TempPath("ds_graph_shared");
  TF_CHECK_OK(data::WriteClusteredRecordFile(path, 8, 3, 4, 5));

  // The IteratorGetNext kernel is cached per session segment, so its
  // iterator advances across Run calls: 8 steps see 8 distinct records and
  // the 9th sees OutOfRange — never a silent restart from the top.
  Graph g;
  GraphBuilder b(&g);
  Output files = ops::RecordFileDataset(&b, {path}, "shared_src");
  std::vector<Output> next =
      ops::IteratorGetNext(&b, files, {DataType::kString}, "pull");
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  ASSERT_TRUE(session.ok()) << session.status();
  std::set<std::string> seen;
  for (int i = 0; i < 8; ++i) {
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({next[0].name()}, &out));
    seen.insert(out[0].str(0));
  }
  EXPECT_EQ(seen.size(), 8u);  // all distinct: each record pulled once
  std::vector<Tensor> out;
  EXPECT_EQ(session.value()->Run({next[0].name()}, &out).code(),
            Code::kOutOfRange);
}

}  // namespace
}  // namespace tfrepro
