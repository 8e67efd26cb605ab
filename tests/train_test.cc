// Tests for the training library: every optimizer trains a small problem
// to convergence; Saver round-trips; QueueRunner feeds a pipeline;
// SyncReplicas coordinates concurrent workers.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "golden.h"
#include "graph/ops.h"
#include "runtime/session.h"
#include "train/coordinator.h"
#include "train/optimizer.h"
#include "train/saver.h"
#include "kernels/checkpoint_format.h"
#include "train/sync_replicas.h"

namespace tfrepro {
namespace {

using ops::Const;
using train::GradAndVar;

// Builds "fit w to minimize (w*x - target)^2" and runs `steps` of `opt`.
// Returns the final loss.
float TrainQuadratic(train::Optimizer* opt, int steps) {
  Graph g;
  GraphBuilder b(&g);
  Output w = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "w");
  Output init_w = ops::Assign(&b, w, Const(&b, Tensor::Vec<float>({5, -3})));
  Output target = Const(&b, Tensor::Vec<float>({1.5f, 2.5f}));
  Output diff = ops::Sub(&b, w, target);
  Output loss = ops::SumAll(&b, ops::Mul(&b, diff, diff));
  Result<Node*> train_op = opt->Minimize(&b, loss, {w}, "train");
  TF_CHECK_OK(train_op.status());
  Node* init = train::BuildInitOp(&b, {init_w}, {opt});
  TF_CHECK_OK(b.status());

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.status());
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  for (int i = 0; i < steps; ++i) {
    TF_CHECK_OK(
        session.value()->Run({}, {}, {train_op.value()->name()}, nullptr));
  }
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({loss.name()}, &out));
  return *out[0].data<float>();
}

TEST(OptimizerTest, GradientDescentConverges) {
  train::GradientDescentOptimizer opt(0.1f);
  EXPECT_LT(TrainQuadratic(&opt, 100), 1e-4f);
}

TEST(OptimizerTest, ComposedGradientDescentMatchesFused) {
  train::GradientDescentOptimizer fused(0.1f);
  train::ComposedGradientDescentOptimizer composed(0.1f);
  float a = TrainQuadratic(&fused, 20);
  float c = TrainQuadratic(&composed, 20);
  EXPECT_NEAR(a, c, 1e-6f);
}

TEST(OptimizerTest, MomentumConverges) {
  train::MomentumOptimizer opt(0.05f, 0.9f);
  EXPECT_LT(TrainQuadratic(&opt, 200), 1e-3f);
}

TEST(OptimizerTest, AdagradConverges) {
  train::AdagradOptimizer opt(1.0f);
  EXPECT_LT(TrainQuadratic(&opt, 300), 1e-3f);
}

TEST(OptimizerTest, AdadeltaMakesProgress) {
  train::AdadeltaOptimizer opt(10.0f, 0.9f, 1e-4f);
  float initial = 2 * (3.5f * 3.5f + 5.5f * 5.5f) / 2;  // loss at w0
  EXPECT_LT(TrainQuadratic(&opt, 300), initial * 0.2f);
}

TEST(OptimizerTest, RMSPropConverges) {
  train::RMSPropOptimizer opt(0.5f);
  EXPECT_LT(TrainQuadratic(&opt, 300), 1e-3f);
}

TEST(OptimizerTest, AdamConverges) {
  train::AdamOptimizer opt(0.5f);
  EXPECT_LT(TrainQuadratic(&opt, 300), 1e-3f);
}

TEST(OptimizerTest, LinearRegressionWithFeeds) {
  // y = 2x + 1 with noise-free data; SGD on (w, b).
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({4, 1}), "x");
  Output y = ops::Placeholder(&b, DataType::kFloat, TensorShape({4, 1}), "y");
  Output w = ops::Variable(&b, DataType::kFloat, TensorShape({1, 1}), "w");
  Output bias = ops::Variable(&b, DataType::kFloat, TensorShape({1}), "bias");
  Output init = Output(
      ops::Group(&b,
                 {ops::Assign(&b, w, Const(&b, Tensor::FromVector<float>(
                                              {0.0f}, TensorShape({1, 1})))),
                  ops::Assign(&b, bias,
                              Const(&b, Tensor::Vec<float>({0.0f})))},
                 "init"),
      0);
  Output pred = ops::BiasAdd(&b, ops::MatMul(&b, x, w), bias);
  Output loss = ops::MeanAll(&b, ops::Square(&b, ops::Sub(&b, pred, y)));
  train::GradientDescentOptimizer opt(0.05f);
  Result<Node*> train_op = opt.Minimize(&b, loss, {w, bias}, "train");
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  Tensor xs = Tensor::FromVector<float>({0, 1, 2, 3}, TensorShape({4, 1}));
  Tensor ys = Tensor::FromVector<float>({1, 3, 5, 7}, TensorShape({4, 1}));
  for (int i = 0; i < 500; ++i) {
    TF_CHECK_OK(session.value()->Run({{"x", xs}, {"y", ys}}, {},
                                     {train_op.value()->name()}, nullptr));
  }
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({{"x", xs}, {"y", ys}},
                                   {w.node->name() + ":0",
                                    bias.node->name() + ":0"},
                                   {}, &out));
  EXPECT_NEAR(*out[0].data<float>(), 2.0f, 0.05f);
  EXPECT_NEAR(*out[1].data<float>(), 1.0f, 0.1f);
}

TEST(SaverTest, SaveRestoreRoundTrip) {
  std::string prefix = ::testing::TempDir() + "/saver_test_ckpt";
  Graph g;
  GraphBuilder b(&g);
  Output v1 = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "v1");
  Output v2 = ops::Variable(&b, DataType::kInt32, TensorShape(), "v2");
  Output init = Output(
      ops::Group(&b,
                 {ops::Assign(&b, v1, Const(&b, Tensor::Vec<float>({1, 2}))),
                  ops::Assign(&b, v2, Const(&b, Tensor::Scalar(int32_t{7})))},
                 "init"),
      0);
  train::Saver saver(&b, {v1, v2});
  Output bump = ops::AssignAdd(&b, v1, Const(&b, Tensor::Vec<float>({10, 10})));
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  Result<std::string> path = saver.Save(session.value().get(), prefix, 1);
  ASSERT_TRUE(path.ok()) << path.status();

  // Mutate, then restore.
  TF_CHECK_OK(session.value()->Run({}, {}, {bump.node->name()}, nullptr));
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({"v1:0"}, &out));
  EXPECT_EQ(out[0].flat<float>(0), 11.0f);

  TF_CHECK_OK(saver.Restore(session.value().get(), path.value()));
  TF_CHECK_OK(session.value()->Run({"v1:0", "v2:0"}, &out));
  EXPECT_EQ(out[0].flat<float>(0), 1.0f);
  EXPECT_EQ(*out[1].data<int32_t>(), 7);
}

TEST(SaverTest, RetentionDeletesOldCheckpoints) {
  std::string prefix = ::testing::TempDir() + "/saver_retention_ckpt";
  Graph g;
  GraphBuilder b(&g);
  Output v = ops::Variable(&b, DataType::kFloat, TensorShape(), "v");
  Output init = ops::Assign(&b, v, Const(&b, 1.0f));
  train::Saver::Options options;
  options.max_to_keep = 2;
  train::Saver saver(&b, {v}, options);
  ASSERT_TRUE(b.ok());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  for (int step = 1; step <= 4; ++step) {
    ASSERT_TRUE(saver.Save(session.value().get(), prefix, step).ok());
  }
  // Steps 1 and 2 deleted; 3 and 4 kept.
  EXPECT_FALSE(std::ifstream(prefix + "-1").good());
  EXPECT_FALSE(std::ifstream(prefix + "-2").good());
  EXPECT_TRUE(std::ifstream(prefix + "-3").good());
  EXPECT_TRUE(std::ifstream(prefix + "-4").good());
  Result<std::string> latest = train::Saver::LatestCheckpoint(prefix);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(std::filesystem::path(latest.value()).lexically_normal(),
            std::filesystem::path(prefix + "-4").lexically_normal());
}

TEST(SaverTest, LatestCheckpointMissing) {
  EXPECT_FALSE(
      train::Saver::LatestCheckpoint("/nonexistent/dir/nothing").ok());
}

TEST(CoordinatorTest, QueueRunnerFeedsPipeline) {
  // Producer threads enqueue random batches; the consumer dequeues a fixed
  // number of them (the Figure 1 input-pipeline shape).
  Graph g;
  GraphBuilder b(&g);
  Output q = ops::FIFOQueue(&b, {DataType::kFloat}, /*capacity=*/4);
  Output batch = ops::RandomUniform(&b, {8}, DataType::kFloat, /*seed=*/42);
  Node* enqueue = ops::QueueEnqueue(&b, q, {batch});
  std::vector<Output> dq = ops::QueueDequeue(&b, q, {DataType::kFloat});
  Node* close_q = ops::QueueClose(&b, q, /*cancel_pending=*/true);
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  train::Coordinator coord;
  train::QueueRunner runner(enqueue->name());
  runner.Start(session.value().get(), &coord, /*num_threads=*/2);

  for (int i = 0; i < 20; ++i) {
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({dq[0].name()}, &out));
    EXPECT_EQ(out[0].num_elements(), 8);
  }
  coord.RequestStop();
  // Unblock any producer waiting on the full queue.
  TF_CHECK_OK(session.value()->Run({}, {}, {close_q->name()}, nullptr));
  coord.Join();
  EXPECT_TRUE(coord.status().ok()) << coord.status();
}

TEST(CoordinatorTest, RequestStopAbortsBlockedEnqueue) {
  // A runner wedged on a full queue's enqueue: RequestStop must run the
  // runner's cancel op (QueueClose with cancel_pending_enqueues) so the
  // blocked enqueue aborts and Join returns instead of hanging forever.
  Graph g;
  GraphBuilder b(&g);
  Output q = ops::FIFOQueue(&b, {DataType::kFloat}, /*capacity=*/1);
  Node* enqueue = ops::QueueEnqueue(&b, q, {Const(&b, 1.0f)});
  Node* cancel = ops::QueueClose(&b, q, /*cancel_pending=*/true);
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  train::Coordinator coord;
  train::QueueRunner runner(enqueue->name(), /*close_op=*/"",
                            /*cancel_op=*/cancel->name());
  runner.Start(session.value().get(), &coord, /*num_threads=*/1);

  // Give the runner time to fill the queue (capacity 1) and block on the
  // second enqueue. No consumer ever dequeues.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  coord.RequestStop();
  coord.Join();  // must return — the cancel op aborted the pending enqueue
  EXPECT_TRUE(coord.status().ok()) << coord.status();
}

TEST(SyncReplicasTest, WorkersSeeSameParameterVersion) {
  // 3 workers contribute gradient 1.0 each; chief averages and applies with
  // lr=1. After k rounds, w == w0 - k.
  constexpr int kWorkers = 3;
  Graph g;
  GraphBuilder b(&g);
  Output w = ops::Variable(&b, DataType::kFloat, TensorShape(), "w");
  Output init_w = ops::Assign(&b, w, Const(&b, 10.0f));

  train::GradientDescentOptimizer opt(1.0f);
  train::SyncReplicas sync(&b, &opt, kWorkers, kWorkers);

  std::vector<Node*> worker_steps;
  for (int i = 0; i < kWorkers; ++i) {
    // Each worker's "gradient" is constant 1.0.
    std::vector<GradAndVar> gvs = {GradAndVar{Const(&b, 1.0f), w}};
    Result<Node*> step = sync.AddWorkerStep(gvs);
    ASSERT_TRUE(step.ok()) << step.status();
    worker_steps.push_back(step.value());
  }
  Result<Node*> chief = sync.BuildChiefUpdate();
  ASSERT_TRUE(chief.ok()) << chief.status();
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  DirectSession* sess = session.value().get();
  TF_CHECK_OK(sess->Run({}, {}, {init_w.node->name()}, nullptr));
  TF_CHECK_OK(sess->Run({}, {}, {sync.token_seed_op()->name()}, nullptr));

  constexpr int kRounds = 5;
  std::vector<std::thread> threads;
  for (int i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&, i]() {
      for (int r = 0; r < kRounds; ++r) {
        TF_CHECK_OK(sess->Run({}, {}, {worker_steps[i]->name()}, nullptr));
      }
    });
  }
  threads.emplace_back([&]() {
    for (int r = 0; r < kRounds; ++r) {
      TF_CHECK_OK(sess->Run({}, {}, {chief.value()->name()}, nullptr));
    }
  });
  for (auto& t : threads) t.join();

  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({"w:0"}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 10.0f - kRounds);
}

TEST(SyncReplicasTest, BackupWorkersTakeFirstMOfN) {
  // n=3 workers, m=2 required: the chief update only needs 2 contributions.
  Graph g;
  GraphBuilder b(&g);
  Output w = ops::Variable(&b, DataType::kFloat, TensorShape(), "w");
  Output init_w = ops::Assign(&b, w, Const(&b, 6.0f));
  train::GradientDescentOptimizer opt(1.0f);
  train::SyncReplicas sync(&b, &opt, /*num_workers=*/3, /*num_required=*/2);
  std::vector<Node*> worker_steps;
  for (int i = 0; i < 3; ++i) {
    std::vector<GradAndVar> gvs = {GradAndVar{Const(&b, 2.0f), w}};
    Result<Node*> step = sync.AddWorkerStep(gvs);
    ASSERT_TRUE(step.ok());
    worker_steps.push_back(step.value());
  }
  Result<Node*> chief = sync.BuildChiefUpdate();
  ASSERT_TRUE(chief.ok());
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  DirectSession* sess = session.value().get();
  TF_CHECK_OK(sess->Run({}, {}, {init_w.node->name()}, nullptr));
  TF_CHECK_OK(sess->Run({}, {}, {sync.token_seed_op()->name()}, nullptr));

  // Only 2 of the 3 workers contribute; the chief must still complete (the
  // straggler never shows up — that is the Figure 4c behaviour).
  std::thread w0([&]() {
    TF_CHECK_OK(sess->Run({}, {}, {worker_steps[0]->name()}, nullptr));
  });
  std::thread w1([&]() {
    TF_CHECK_OK(sess->Run({}, {}, {worker_steps[1]->name()}, nullptr));
  });
  TF_CHECK_OK(sess->Run({}, {}, {chief.value()->name()}, nullptr));
  w0.join();
  w1.join();

  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({"w:0"}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 4.0f);  // 6 - mean(2,2)
}

TEST(OptimizerTest, VariableNotInfluencingLossRejected) {
  Graph g;
  GraphBuilder b(&g);
  Output w = ops::Variable(&b, DataType::kFloat, TensorShape(), "w");
  Output unrelated = ops::Variable(&b, DataType::kFloat, TensorShape(), "u");
  Output loss = ops::Square(&b, w);
  train::GradientDescentOptimizer opt(0.1f);
  Result<Node*> train_op = opt.Minimize(&b, loss, {w, unrelated});
  EXPECT_FALSE(train_op.ok());
}


TEST(CheckpointFormatTest, CorruptFileReportsDataLoss) {
  std::string path = ::testing::TempDir() + "/corrupt_ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a checkpoint";
  }
  Result<Tensor> r = ReadCheckpointTensor(path, "v");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kDataLoss);
}

// A two-entry checkpoint file pinned to the bytes of an earlier build
// (DESIGN.md §2.1); every strict prefix of the file is DataLoss.
TEST(CheckpointFormatTest, FileBytesArePinned) {
  const std::string path = ::testing::TempDir() + "/pinned_ckpt";
  TF_CHECK_OK(WriteCheckpoint(
      path, {{"w", Tensor::FromVector<float>({0.5f, -1.0f}, TensorShape({2}))},
             {"step", Tensor::Scalar(int64_t{7})}}));
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  const std::string bytes = content.str();
  EXPECT_EQ(Hex(bytes),
            "544652434b505431020000000000000001000000000000007701000000000000"
            "00010000000000000002000000000000000000003f000080bf04000000000000"
            "0073746570040000000000000000000000000000000700000000000000");
  Result<std::vector<std::string>> names = ListCheckpointTensors(path);
  ASSERT_TRUE(names.ok()) << names.status();
  EXPECT_EQ(names.value(), (std::vector<std::string>{"w", "step"}));

  const std::string cut_path = ::testing::TempDir() + "/cut_ckpt";
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    Result<std::vector<std::string>> r = ListCheckpointTensors(cut_path);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), Code::kDataLoss) << "cut at " << cut;
  }
}

TEST(CheckpointFormatTest, MissingTensorReportsNotFound) {
  std::string path = ::testing::TempDir() + "/partial_ckpt";
  TF_CHECK_OK(WriteCheckpoint(path, {{"a", Tensor::Scalar(1.0f)}}));
  Result<Tensor> r = ReadCheckpointTensor(path, "b");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
  Result<std::vector<std::string>> names = ListCheckpointTensors(path);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"a"}));
}

TEST(CheckpointFormatTest, WriteIsAtomicViaRename) {
  // The temp file must not linger, and rewriting must fully replace.
  std::string path = ::testing::TempDir() + "/atomic_ckpt";
  TF_CHECK_OK(WriteCheckpoint(path, {{"v", Tensor::Scalar(1.0f)}}));
  TF_CHECK_OK(WriteCheckpoint(path, {{"v", Tensor::Scalar(2.0f)}}));
  for (const auto& e :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    EXPECT_NE(e.path().filename().string().rfind("atomic_ckpt.tmp", 0), 0u);
  }
  Result<Tensor> r = ReadCheckpointTensor(path, "v");
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ(*r.value().data<float>(), 2.0f);
}

}  // namespace
}  // namespace tfrepro
