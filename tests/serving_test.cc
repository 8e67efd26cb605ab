// Serving subsystem tests: FreezeGraph round-trips a trained checkpoint
// into an identical-output inference graph; the DynamicBatcher forms
// batches, honors its timeout, applies admission control, and records
// metrics + queue-wait spans; and a ModelManager hot-swap under sustained
// concurrent load loses zero requests and answers every request with
// exactly one version's output.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "graph/ops.h"
#include "runtime/session.h"
#include "runtime/tracing.h"
#include "serving/batcher.h"
#include "serving/freeze.h"
#include "serving/model_manager.h"
#include "serving/servable.h"
#include "train/saver.h"

namespace tfrepro {
namespace {

using ops::Const;
using serving::DynamicBatcher;
using serving::FreezeGraph;
using serving::ModelManager;
using serving::Servable;
using serving::SignatureDef;

int64_t CounterValue(const metrics::RegistrySnapshot& snap,
                     const std::string& name) {
  const metrics::MetricSnapshot* m = snap.Find(name);
  return m == nullptr ? 0 : m->value;
}

// A variable-free "model" that maps any [n, 4] input to [n, 4] rows of
// `value`: BiasAdd(MatMul(x, 0), value). Constant output makes version
// attribution in the hot-swap test unambiguous.
std::shared_ptr<const Servable> MakeValueServable(float value,
                                                  int64_t version) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({1, 4}), "x");
  Output w = Const(&b, Tensor(DataType::kFloat, TensorShape({4, 4})), "w");
  Output bias =
      Const(&b, Tensor::Vec<float>({value, value, value, value}), "bias");
  Output pred = ops::BiasAdd(&b, ops::MatMul(&b, x, w), bias);
  EXPECT_TRUE(b.ok()) << b.status();
  auto servable =
      Servable::Create(g, SignatureDef{"x", {pred.name()}}, version);
  EXPECT_TRUE(servable.ok()) << servable.status();
  return servable.value();
}

TEST(FreezeTest, RoundTripMatchesTrainedSession) {
  // Train-shaped graph: two Dense-style layers on Variables, plus training
  // machinery (init assigns, a saver, an update op) that freezing must
  // strip.
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({1, 4}), "x");
  Output w1 = ops::Variable(&b, DataType::kFloat, TensorShape({4, 3}), "w1");
  Output b1 = ops::Variable(&b, DataType::kFloat, TensorShape({3}), "b1");
  Output init = Output(
      ops::Group(
          &b,
          {ops::Assign(&b, w1,
                       Const(&b, Tensor::FromVector<float>(
                                     {1, -2, 3, 0.5f, 4, -1, 2, 2, -3, 1, 0,
                                      7},
                                     TensorShape({4, 3})))),
           ops::Assign(&b, b1, Const(&b, Tensor::Vec<float>({0.1f, -0.2f,
                                                             0.3f})))},
          "init"),
      0);
  Output pred = ops::Relu(&b, ops::BiasAdd(&b, ops::MatMul(&b, x, w1), b1));
  Output probs = ops::Softmax(&b, pred);
  // Training-only mutation that must not survive freezing.
  ops::AssignAdd(&b, b1, Const(&b, Tensor::Vec<float>({1, 1, 1})));
  train::Saver saver(&b, {w1, b1});
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  ASSERT_TRUE(session.ok()) << session.status();
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  std::string prefix = ::testing::TempDir() + "/freeze_roundtrip_ckpt";
  Result<std::string> ckpt = saver.Save(session.value().get(), prefix, 1);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();

  Result<std::unique_ptr<Graph>> frozen =
      FreezeGraph(g, {ckpt.value()}, {probs.name()});
  ASSERT_TRUE(frozen.ok()) << frozen.status();

  // No variables, no assigns, no save/restore machinery survive.
  for (const Node* node : frozen.value()->nodes()) {
    EXPECT_FALSE(node->IsVariable()) << node->name();
    EXPECT_NE(node->op(), "Assign") << node->name();
    EXPECT_NE(node->op(), "AssignAdd") << node->name();
    EXPECT_NE(node->op(), "Save") << node->name();
  }
  EXPECT_LT(frozen.value()->num_nodes(), g.num_nodes());

  // Identical outputs, including at a batch size the placeholder never
  // declared (serving feeds replace the placeholder at run time).
  Tensor batch = Tensor::FromVector<float>(
      {0.5f, -1, 2, 3, 1, 1, 1, 1}, TensorShape({2, 4}));
  std::vector<Tensor> want, got;
  TF_CHECK_OK(session.value()->Run({{"x", batch}}, {probs.name()}, {}, &want));
  auto frozen_session = DirectSession::Create(*frozen.value());
  ASSERT_TRUE(frozen_session.ok()) << frozen_session.status();
  TF_CHECK_OK(
      frozen_session.value()->Run({{"x", batch}}, {probs.name()}, {}, &got));
  ASSERT_EQ(want[0].shape(), got[0].shape());
  for (int64_t i = 0; i < want[0].num_elements(); ++i) {
    EXPECT_FLOAT_EQ(want[0].flat<float>(i), got[0].flat<float>(i)) << i;
  }
}

TEST(FreezeTest, MissingVariableInCheckpointIsNotFound) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({1, 2}), "x");
  Output w = ops::Variable(&b, DataType::kFloat, TensorShape({2, 2}), "w");
  Output extra = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "u");
  Output init = Output(
      ops::Group(&b,
                 {ops::Assign(&b, w, Const(&b, Tensor::FromVector<float>(
                                               {1, 0, 0, 1},
                                               TensorShape({2, 2})))),
                  ops::Assign(&b, extra,
                              Const(&b, Tensor::Vec<float>({1, 1})))},
                 "init"),
      0);
  Output pred = ops::BiasAdd(&b, ops::MatMul(&b, x, w), extra);
  // Checkpoint covers only `w`; `u` is live under `pred` but unsaved.
  train::Saver saver(&b, {w});
  ASSERT_TRUE(b.ok()) << b.status();
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  std::string prefix = ::testing::TempDir() + "/freeze_missing_ckpt";
  Result<std::string> ckpt = saver.Save(session.value().get(), prefix, 1);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();

  Result<std::unique_ptr<Graph>> frozen =
      FreezeGraph(g, {ckpt.value()}, {pred.name()});
  ASSERT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), Code::kNotFound)
      << frozen.status();
}

TEST(FreezeTest, RefConsumingFetchIsFailedPrecondition) {
  Graph g;
  GraphBuilder b(&g);
  Output v = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "v");
  Output assign = ops::Assign(&b, v, Const(&b, Tensor::Vec<float>({1, 2})));
  train::Saver saver(&b, {v});
  ASSERT_TRUE(b.ok()) << b.status();
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {assign.node->name()}, nullptr));
  std::string prefix = ::testing::TempDir() + "/freeze_ref_ckpt";
  Result<std::string> ckpt = saver.Save(session.value().get(), prefix, 1);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();

  // Fetching the Assign keeps a ref-consumer alive past pruning.
  Result<std::unique_ptr<Graph>> frozen =
      FreezeGraph(g, {ckpt.value()}, {assign.name()});
  ASSERT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), Code::kFailedPrecondition)
      << frozen.status();
}

TEST(ServableTest, RejectsUnfrozenGraph) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({1, 2}), "x");
  Output w = ops::Variable(&b, DataType::kFloat, TensorShape({2, 2}), "w");
  Output pred = ops::MatMul(&b, x, w);
  ASSERT_TRUE(b.ok()) << b.status();
  auto servable = Servable::Create(g, SignatureDef{"x", {pred.name()}}, 1);
  ASSERT_FALSE(servable.ok());
  EXPECT_EQ(servable.status().code(), Code::kFailedPrecondition);
}

TEST(ModelManagerTest, PublishSwapAndUnpublish) {
  ModelManager manager;
  EXPECT_EQ(manager.Current("m"), nullptr);

  auto v1 = MakeValueServable(1.0f, 1);
  auto v2 = MakeValueServable(2.0f, 2);
  TF_CHECK_OK(manager.Publish("m", v1));
  EXPECT_EQ(manager.Current("m")->version(), 1);
  TF_CHECK_OK(manager.Publish("m", v2));
  EXPECT_EQ(manager.Current("m")->version(), 2);

  // Old version stays pinnable until unpublished; duplicate publish fails.
  EXPECT_EQ(manager.Version("m", 1)->version(), 1);
  EXPECT_EQ(manager.Publish("m", MakeValueServable(9.0f, 2)).code(),
            Code::kAlreadyExists);
  EXPECT_EQ(manager.Unpublish("m", 2).code(),
            Code::kFailedPrecondition);
  TF_CHECK_OK(manager.Unpublish("m", 1));
  EXPECT_EQ(manager.Version("m", 1), nullptr);
  EXPECT_EQ(manager.Versions("m"), std::vector<int64_t>({2}));
}

TEST(DynamicBatcherTest, CoalescesConcurrentRequestsIntoOneBatch) {
  auto servable = MakeValueServable(3.0f, 1);
  DynamicBatcher::Options options;
  options.max_batch_size = 8;
  options.batch_timeout_us = 200 * 1000;  // long: dispatch on a full batch
  DynamicBatcher batcher([&] { return servable; }, options);

  metrics::RegistrySnapshot before = metrics::Registry::Global()->Snapshot();
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&batcher, &ok_count] {
      DynamicBatcher::Response r =
          batcher.RunOne(Tensor::Vec<float>({1, 2, 3, 4}));
      ASSERT_TRUE(r.status.ok()) << r.status;
      ASSERT_EQ(r.outputs.size(), 1u);
      EXPECT_EQ(r.outputs[0].shape(), TensorShape({4}));
      for (int j = 0; j < 4; ++j) {
        EXPECT_FLOAT_EQ(r.outputs[0].flat<float>(j), 3.0f);
      }
      EXPECT_EQ(r.version, 1);
      ok_count.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), 8);

  metrics::RegistrySnapshot after = metrics::Registry::Global()->Snapshot();
  EXPECT_EQ(CounterValue(after, "serving.requests") -
                CounterValue(before, "serving.requests"),
            8);
  // 8 requests with an effectively-infinite timeout coalesce into far fewer
  // than 8 batches (at most 8 even under the most adversarial interleaving;
  // typically 1–2).
  const int64_t batches = CounterValue(after, "serving.batches") -
                          CounterValue(before, "serving.batches");
  EXPECT_GE(batches, 1);
  EXPECT_LE(batches, 4);
}

TEST(DynamicBatcherTest, TimeoutDispatchesPartialBatch) {
  auto servable = MakeValueServable(1.0f, 1);
  DynamicBatcher::Options options;
  options.max_batch_size = 64;  // never fills
  options.batch_timeout_us = 1000;
  DynamicBatcher batcher([&] { return servable; }, options);

  DynamicBatcher::Response r =
      batcher.RunOne(Tensor::Vec<float>({0, 0, 0, 0}));
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.outputs[0].shape(), TensorShape({4}));
}

TEST(DynamicBatcherTest, BackpressureRejectsWhenQueueFull) {
  auto servable = MakeValueServable(1.0f, 1);
  DynamicBatcher::Options options;
  options.max_batch_size = 64;
  options.batch_timeout_us = 2 * 1000 * 1000;  // park the batch thread
  options.max_enqueued = 2;
  auto batcher = std::make_unique<DynamicBatcher>(
      [&] { return servable; }, options);

  metrics::RegistrySnapshot before = metrics::Registry::Global()->Snapshot();
  std::atomic<int> cancelled{0};
  auto on_done = [&cancelled](DynamicBatcher::Response r) {
    if (r.status.code() == Code::kCancelled) cancelled.fetch_add(1);
  };
  TF_CHECK_OK(batcher->Enqueue(Tensor::Vec<float>({0, 0, 0, 0}), on_done));
  TF_CHECK_OK(batcher->Enqueue(Tensor::Vec<float>({0, 0, 0, 0}), on_done));
  // Wait out the race with the batch thread: once it picks up the first
  // request it parks on the 2s deadline with both requests still queued.
  while (batcher->queue_depth() < 2) {
    std::this_thread::yield();
  }
  Status overflow =
      batcher->Enqueue(Tensor::Vec<float>({0, 0, 0, 0}), on_done);
  EXPECT_EQ(overflow.code(), Code::kUnavailable) << overflow;

  metrics::RegistrySnapshot after = metrics::Registry::Global()->Snapshot();
  EXPECT_EQ(CounterValue(after, "serving.rejected") -
                CounterValue(before, "serving.rejected"),
            1);

  // Shutdown fails the queued-but-undispatched requests with Cancelled.
  batcher->Shutdown();
  EXPECT_EQ(cancelled.load(), 2);
}

TEST(DynamicBatcherTest, RecordsQueueWaitSpans) {
  auto servable = MakeValueServable(1.0f, 1);
  DynamicBatcher::Options options;
  options.batch_timeout_us = 1000;
  DynamicBatcher batcher([&] { return servable; }, options);

  TraceCollector collector(/*capture_global_events=*/true);
  DynamicBatcher::Response r =
      batcher.RunOne(Tensor::Vec<float>({0, 0, 0, 0}));
  ASSERT_TRUE(r.status.ok()) << r.status;

  StepStats stats = collector.Consume(1);
  bool found = false;
  for (const SpanEvent& span : stats.spans) {
    if (span.name == "serving.queue_wait") {
      found = true;
      EXPECT_EQ(span.scope, "serving");
      EXPECT_GE(span.end_micros, span.start_micros);
    }
  }
  EXPECT_TRUE(found) << "no serving.queue_wait span recorded";
}

TEST(DynamicBatcherTest, NoServablePublishedFailsRequests) {
  DynamicBatcher batcher([] { return nullptr; }, DynamicBatcher::Options{});
  DynamicBatcher::Response r =
      batcher.RunOne(Tensor::Vec<float>({0, 0, 0, 0}));
  EXPECT_EQ(r.status.code(), Code::kFailedPrecondition) << r.status;
  EXPECT_EQ(r.version, -1);
}

TEST(DynamicBatcherTest, MismatchedShapeGetsIndividualError) {
  auto servable = MakeValueServable(1.0f, 1);
  DynamicBatcher::Options options;
  options.max_batch_size = 2;
  // Long enough that the batch only ever closes full, at two requests.
  options.batch_timeout_us = 10 * 1000 * 1000;
  DynamicBatcher batcher([&] { return servable; }, options);

  // The [4]-shaped request heads the batch, so it defines the batch shape:
  // it is served, and the [2]-shaped one in the same batch fails alone.
  std::promise<DynamicBatcher::Response> head, mismatched;
  TF_CHECK_OK(batcher.Enqueue(
      Tensor::Vec<float>({0, 0, 0, 0}),
      [&](DynamicBatcher::Response r) { head.set_value(std::move(r)); }));
  while (batcher.queue_depth() != 1) std::this_thread::yield();
  TF_CHECK_OK(batcher.Enqueue(
      Tensor::Vec<float>({0, 0}),
      [&](DynamicBatcher::Response r) { mismatched.set_value(std::move(r)); }));
  DynamicBatcher::Response served = head.get_future().get();
  DynamicBatcher::Response refused = mismatched.get_future().get();
  EXPECT_TRUE(served.status.ok()) << served.status;
  EXPECT_EQ(refused.status.code(), Code::kInvalidArgument) << refused.status;
}

TEST(ServingIntegrationTest, HotSwapLosesNoRequests) {
  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 150;

  ModelManager manager;
  TF_CHECK_OK(manager.Publish("hotswap", MakeValueServable(1.0f, 1)));

  DynamicBatcher::Options options;
  options.max_batch_size = 8;
  options.batch_timeout_us = 200;
  options.max_enqueued = 4096;
  options.num_batch_threads = 2;
  DynamicBatcher batcher([&manager] { return manager.Current("hotswap"); },
                         options);

  std::atomic<int> served_v1{0}, served_v2{0}, failed{0}, torn{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        DynamicBatcher::Response r =
            batcher.RunOne(Tensor::Vec<float>({1, 2, 3, 4}));
        if (!r.status.ok()) {
          failed.fetch_add(1);
          continue;
        }
        // Version attribution must be exact: version 1 answers 1.0 rows,
        // version 2 answers 2.0 rows, and no response mixes the two.
        const float want = r.version == 1 ? 1.0f : 2.0f;
        bool consistent = (r.version == 1 || r.version == 2) &&
                          r.outputs.size() == 1 &&
                          r.outputs[0].num_elements() == 4;
        for (int j = 0; consistent && j < 4; ++j) {
          consistent = r.outputs[0].flat<float>(j) == want;
        }
        if (!consistent) {
          torn.fetch_add(1);
        } else if (r.version == 1) {
          served_v1.fetch_add(1);
        } else {
          served_v2.fetch_add(1);
        }
      }
    });
  }

  // Swap mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  TF_CHECK_OK(manager.Publish("hotswap", MakeValueServable(2.0f, 2)));

  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(served_v1.load() + served_v2.load(),
            kClients * kRequestsPerClient);
  // The swap happened while traffic was flowing: the new version actually
  // took over.
  EXPECT_GT(served_v2.load(), 0);
  EXPECT_EQ(manager.Current("hotswap")->version(), 2);
}

}  // namespace
}  // namespace tfrepro
