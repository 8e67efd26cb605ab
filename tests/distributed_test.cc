// Tests for the distributed runtime (transport-agnostic: run under
// TFREPRO_TRANSPORT=socket they exercise real worker processes): placement onto PS/worker
// tasks, cross-task Send/Recv, parameter-server-style training, async
// training and injected stragglers.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "core/metrics.h"
#include "distributed/fault_injector.h"
#include "distributed/master.h"
#include "fuzz_graph.h"
#include "graph/ops.h"
#include "nn/embedding.h"
#include "nn/layers.h"
#include "runtime/session.h"
#include "train/optimizer.h"
#include "train/saver.h"
#include "train/sync_replicas.h"

namespace tfrepro {
namespace {

using distributed::ClusterSpec;
using distributed::FaultInjector;
using distributed::Cluster;
using distributed::MasterSession;
using ops::Const;
using train::GradAndVar;

// True when this run exercises the socket transport (real worker
// processes). Kernel-side metrics then live in the worker processes'
// registries, not this one.
bool SocketTransport() {
  const char* t = std::getenv("TFREPRO_TRANSPORT");
  return t != nullptr && std::string(t) == "socket";
}

ClusterSpec PsWorkerSpec(int ps, int workers) {
  ClusterSpec spec;
  spec.jobs["ps"] = ps;
  spec.jobs["worker"] = workers;
  return spec;
}

TEST(ClusterTest, CreateAndLookup) {
  auto cluster = Cluster::Create(PsWorkerSpec(2, 3));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  EXPECT_EQ(cluster.value()->workers().size(), 5u);
  EXPECT_EQ(cluster.value()->all_devices().size(), 5u);
  auto w = cluster.value()->worker("ps", 1);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value()->task_name(), "/job:ps/task:1");
  EXPECT_FALSE(cluster.value()->worker("ps", 7).ok());
  EXPECT_FALSE(cluster.value()->worker("gpujob", 0).ok());
}

TEST(ClusterTest, RejectsEmptySpec) {
  EXPECT_FALSE(Cluster::Create(ClusterSpec{}).ok());
}

TEST(MasterSessionTest, CrossTaskComputation) {
  auto cluster = Cluster::Create(PsWorkerSpec(1, 1));
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output on_ps;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    on_ps = ops::Mul(&b, Const(&b, 6.0f), Const(&b, 7.0f));
  }
  Output on_worker;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    on_worker = ops::Add(&b, on_ps, Const(&b, 0.5f));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(session.ok()) << session.status();
  std::vector<Tensor> out;
  Status s = session.value()->Run({on_worker.name()}, &out);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 42.5f);
}

TEST(MasterSessionTest, ParameterServerTraining) {
  // The canonical PS architecture (§3.3): parameters on /job:ps, compute on
  // /job:worker; gradients flow back over Send/Recv.
  auto cluster = Cluster::Create(PsWorkerSpec(1, 1));
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output w;
  Output init;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    w = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "w");
    init = ops::Assign(&b, w, Const(&b, Tensor::Vec<float>({4, -4})));
  }
  Output loss;
  Result<Node*> train_op = Internal("unset");
  train::GradientDescentOptimizer opt(0.25f);
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    loss = ops::SumAll(&b, ops::Square(&b, w));
    train_op = opt.Minimize(&b, loss, {w}, "train");
  }
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(session.ok());
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  for (int i = 0; i < 30; ++i) {
    TF_CHECK_OK(
        session.value()->Run({}, {}, {train_op.value()->name()}, nullptr));
  }
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({loss.name()}, &out));
  EXPECT_LT(*out[0].data<float>(), 1e-4f);
}

TEST(MasterSessionTest, ShardedParametersAcrossPsTasks) {
  // Two PS shards; the worker sums reads from both (the Figure 3 layout).
  auto cluster = Cluster::Create(PsWorkerSpec(2, 1));
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  std::vector<Output> shards;
  std::vector<Output> inits;
  for (int s = 0; s < 2; ++s) {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:" + std::to_string(s));
    Output v = ops::Variable(&b, DataType::kFloat, TensorShape({2}),
                             "shard" + std::to_string(s));
    shards.push_back(v);
    inits.push_back(ops::Assign(
        &b, v,
        Const(&b, Tensor::Vec<float>({float(s * 10 + 1), float(s * 10 + 2)}))));
  }
  Output total;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    total = ops::SumAll(&b, ops::Concat(&b, 0, {ops::Identity(&b, shards[0]),
                                                ops::Identity(&b, shards[1])}));
  }
  Node* init_all = ops::Group(&b, inits, "init");
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  TF_CHECK_OK(session.value()->Run({}, {}, {init_all->name()}, nullptr));
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({total.name()}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 1 + 2 + 11 + 12);
}

TEST(MasterSessionTest, AsynchronousDataParallelWorkers) {
  // Two workers run AssignAdd concurrently against one PS variable — the
  // asynchronous scheme of Figure 4(a). All updates must land.
  auto cluster = Cluster::Create(PsWorkerSpec(1, 2));
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output v;
  Output init;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    v = ops::Variable(&b, DataType::kFloat, TensorShape(), "v");
    init = ops::Assign(&b, v, Const(&b, 0.0f));
  }
  std::vector<Node*> bumps;
  for (int wk = 0; wk < 2; ++wk) {
    // Per-worker "gradient" computed on the worker; the mutating update op
    // runs where the variable lives (its PS task).
    Output grad;
    {
      GraphBuilder::DeviceScope scope(&b, "/job:worker/task:" +
                                              std::to_string(wk));
      grad = ops::Mul(&b, Const(&b, 1.0f), Const(&b, 1.0f));
    }
    Output apply = ops::AssignAdd(&b, v, grad);
    apply.node->set_requested_device("/job:ps/task:0");
    bumps.push_back(ops::Group(&b, {apply}, "bump" + std::to_string(wk)));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  MasterSession* sess = session.value().get();
  TF_CHECK_OK(sess->Run({}, {}, {init.node->name()}, nullptr));

  constexpr int kSteps = 20;
  std::vector<std::thread> threads;
  for (int wk = 0; wk < 2; ++wk) {
    threads.emplace_back([&, wk]() {
      for (int i = 0; i < kSteps; ++i) {
        TF_CHECK_OK(sess->Run({}, {}, {bumps[wk]->name()}, nullptr));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({"v:0"}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 2 * kSteps);
}

TEST(MasterSessionTest, InjectedDelayWaitsOffTheTasksComputeThreads) {
  // An injected delay sleeps on the cluster's delay pool, never on the
  // task's own threads: two concurrent Runs on a one-thread task each wait
  // one delay, on either transport.
  constexpr double kDelay = 0.4;
  FaultInjector injector;
  Cluster::Options cluster_options;
  cluster_options.threads_per_task = 1;
  cluster_options.fault_injector = &injector;
  ClusterSpec spec;
  spec.jobs["worker"] = 1;
  auto cluster = Cluster::Create(spec, cluster_options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  Graph g;
  GraphBuilder b(&g);
  Output y;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    y = ops::Square(
        &b, ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x"));
  }
  ASSERT_TRUE(b.ok()) << b.status();
  auto session = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(session.ok()) << session.status();
  MasterSession* sess = session.value().get();
  auto run = [&]() {
    std::vector<Tensor> out;
    TF_CHECK_OK(sess->Run({{"x", Tensor::Scalar(3.0f)}}, {y.name()}, {}, &out));
    EXPECT_FLOAT_EQ(*out[0].data<float>(), 9.0f);
  };
  run();  // compiles and registers before anything is timed

  injector.DelayTask("/job:worker/task:0", kDelay);
  double elapsed[2] = {0.0, 0.0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i]() {
      const auto start = std::chrono::steady_clock::now();
      run();
      elapsed[i] = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    });
  }
  for (auto& t : threads) t.join();
  for (double seconds : elapsed) {
    EXPECT_GE(seconds, kDelay);
    EXPECT_LT(seconds, 1.5 * kDelay);
  }
}

TEST(MasterSessionTest, MissingDeviceConstraintFails) {
  auto cluster = Cluster::Create(PsWorkerSpec(1, 1));
  Graph g;
  GraphBuilder b(&g);
  Output x;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:gpuworker/task:0");
    x = Const(&b, 1.0f);
  }
  ASSERT_TRUE(b.ok());
  auto session = MasterSession::Create(g, cluster.value().get());
  std::vector<Tensor> out;
  EXPECT_FALSE(session.value()->Run({x.name()}, &out).ok());
}

TEST(MasterSessionTest, RejectsAnInvalidGraphAsDirectSessionDoes) {
  // Both sessions compile through one CompileSignature, so a graph with a
  // provable shape mismatch fails at compile time in each with the same
  // shape-inference error, instead of reaching kernels in one of them.
  auto cluster = Cluster::Create(PsWorkerSpec(1, 1));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  Graph g;
  GraphBuilder b(&g);
  Output a = ops::Placeholder(&b, DataType::kFloat, TensorShape({2, 3}), "a");
  Output w = ops::Placeholder(&b, DataType::kFloat, TensorShape({4, 5}), "w");
  Output p = ops::MatMul(&b, a, w);  // inner dims 3 vs 4: invalid
  ASSERT_TRUE(b.ok()) << b.status();

  std::vector<Tensor> out;
  auto direct = DirectSession::Create(g);
  ASSERT_TRUE(direct.ok()) << direct.status();
  Status direct_status = direct.value()->Run({p.name()}, &out);
  auto master = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(master.ok()) << master.status();
  Status master_status = master.value()->Run({p.name()}, &out);

  EXPECT_NE(direct_status.message().find("shape inference"),
            std::string::npos)
      << direct_status;
  EXPECT_EQ(master_status.code(), direct_status.code()) << master_status;
  EXPECT_EQ(master_status.message(), direct_status.message());
}

TEST(MasterSessionTest, ControlGatedReadSeesEveryPsUpdate) {
  // k AssignAdds on the ps gate one worker-side NoOp; the partitioner
  // carries all k control edges in one token. A ps-side snapshot gated on
  // that NoOp, read back on the worker, must see all k updates every step.
  // The first update is immediate and the others wait on a MatMul chain,
  // so a token released by fewer than all k sources reads a partial sum —
  // over sockets within the first steps; in-process the early read rarely
  // wins the race, and runtime_test pins the token's sources exactly.
  constexpr int kUpdates = 5;
  constexpr int kDim = 256;
  auto cluster = Cluster::Create(PsWorkerSpec(1, 1));
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  Graph g;
  GraphBuilder b(&g);
  Output v;
  Output m;
  std::vector<Output> inits;
  std::vector<Output> adds;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    v = ops::Variable(&b, DataType::kFloat, TensorShape(), "v");
    inits.push_back(ops::Assign(&b, v, Const(&b, 0.0f)));
    // Every entry 1/kDim, so m·m == m exactly and the chain stays finite.
    m = ops::Variable(&b, DataType::kFloat, TensorShape({kDim, kDim}), "m");
    inits.push_back(ops::Assign(
        &b, m,
        Const(&b, Tensor::FromVector<float>(
                      std::vector<float>(kDim * kDim, 1.0f / kDim),
                      TensorShape({kDim, kDim})))));
    Output x = m;
    for (int i = 0; i < 4; ++i) x = ops::MatMul(&b, x, m);
    const Output slow_one = ops::Add(
        &b, ops::Mul(&b, ops::SumAll(&b, x), Const(&b, 0.0f)),
        Const(&b, 1.0f));
    adds.push_back(ops::AssignAdd(&b, v, Const(&b, 1.0f)));
    for (int i = 1; i < kUpdates; ++i) {
      adds.push_back(ops::AssignAdd(&b, v, slow_one));
    }
  }
  Node* gate;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    gate = ops::Group(&b, adds, "gate");
  }
  // v + 0 copies the value when it runs (an Identity would alias the
  // variable's buffer in-process and show later updates too).
  Output snapshot;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    snapshot = b.Op("Add")
                   .Input(v)
                   .Input(Const(&b, 0.0f))
                   .Attr("T", DataType::kFloat)
                   .ControlInput(gate)
                   .Finalize();
  }
  Output read;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    read = ops::Identity(&b, snapshot);
  }
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(session.ok()) << session.status();
  TF_CHECK_OK(session.value()->Run(
      {}, {}, {inits[0].node->name(), inits[1].node->name()}, nullptr));
  for (int step = 1; step <= 20; ++step) {
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({read.name()}, &out));
    ASSERT_EQ(*out[0].data<float>(), static_cast<float>(step * kUpdates))
        << "step " << step;
  }
}

TEST(MasterSessionTest, RunReturnsOnlyAfterEveryTransferIsAcknowledged) {
  // Over sockets a worker's cross-task Send returns once its frame is
  // written to the receiving task; the sender's RunGraph answer waits for
  // the receiver's ack. So when Run returns, every receiving task has every
  // tensor the step sent: each traced Send has its Recv in the stitched
  // trace. And the tensors went worker to worker, not through the master:
  // its RPC bytes per Run stay below the step's tensor bytes.
  if (!SocketTransport()) GTEST_SKIP() << "socket transport only";
  auto cluster = Cluster::Create(PsWorkerSpec(1, 2));
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  constexpr int64_t kElems = 1 << 16;  // 256 KB per transfer
  Graph g;
  GraphBuilder b(&g);
  Output w;
  Output init;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    w = ops::Variable(&b, DataType::kFloat, TensorShape({kElems}), "w");
    init = ops::Assign(
        &b, w,
        Const(&b, Tensor::FromVector<float>(std::vector<float>(kElems, 4.0f),
                                            TensorShape({kElems}))));
  }
  Result<Node*> train_op = Internal("unset");
  train::GradientDescentOptimizer opt(0.25f);
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    train_op = opt.Minimize(&b, ops::SumAll(&b, ops::Square(&b, w)), {w},
                            "train");
  }
  Output probe;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:1");
    probe = ops::SumAll(&b, ops::Neg(&b, w));
  }
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(session.ok()) << session.status();
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  // Compiles and registers the measured signature.
  TF_CHECK_OK(session.value()->Run({}, {probe.name()},
                                   {train_op.value()->name()}, nullptr));
  metrics::Counter* sent =
      metrics::Registry::Global()->GetCounter("rpc.bytes_sent");
  metrics::Counter* received =
      metrics::Registry::Global()->GetCounter("rpc.bytes_recv");
  for (int i = 0; i < 10; ++i) {
    const int64_t rpc_before = sent->value() + received->value();
    RunOptions run_options;
    run_options.trace = true;
    RunMetadata metadata;
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run(run_options, {}, {probe.name()},
                                     {train_op.value()->name()}, &out,
                                     &metadata));
    const int64_t rpc_bytes = sent->value() + received->value() - rpc_before;
    int64_t sends = 0;
    int64_t tensor_bytes = 0;
    for (const TransferStats& t : metadata.step_stats.transfers) {
      if (t.kind != TransferStats::Kind::kSend) continue;
      ++sends;
      tensor_bytes += t.bytes;
      const bool received_here = std::any_of(
          metadata.step_stats.transfers.begin(),
          metadata.step_stats.transfers.end(), [&t](const TransferStats& r) {
            return r.kind == TransferStats::Kind::kRecv &&
                   r.tensor_name == t.tensor_name &&
                   r.send_device == t.send_device &&
                   r.recv_device == t.recv_device;
          });
      EXPECT_TRUE(received_here) << "run " << i << ": " << t.tensor_name
                                 << " " << t.send_device << " -> "
                                 << t.recv_device;
    }
    EXPECT_GE(sends, 3);  // w to both workers, the gradient back
    EXPECT_LT(rpc_bytes, tensor_bytes) << "run " << i;
  }
}

TEST(MasterSessionTest, TransferDropOverSocketsIsUnimplemented) {
  // Transfers go worker to worker, out of the fault injector's sight, so a
  // scripted drop cannot fire there: the step is refused at once instead
  // of running to its deadline.
  if (!SocketTransport()) GTEST_SKIP() << "socket transport only";
  FaultInjector injector;
  injector.DropNthTransfer(1);
  Cluster::Options cluster_options;
  cluster_options.fault_injector = &injector;
  auto cluster = Cluster::Create(PsWorkerSpec(1, 1), cluster_options);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  Graph g;
  GraphBuilder b(&g);
  Output x;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
  }
  Output y;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    y = ops::Square(&b, x);
  }
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.step_deadline_seconds = 2.0;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok()) << session.status();
  std::vector<Tensor> out;
  Status s = session.value()->Run({{"x", Tensor::Scalar(2.0f)}}, {y.name()},
                                  {}, &out);
  EXPECT_EQ(s.code(), Code::kUnimplemented) << s;
}

TEST(MasterSessionTest, TwoSessionsInTurnOnOneClusterTrainBitExactly) {
  // Two sessions run in turn on one cluster, both counting steps from 1 —
  // the distributed_training example's pattern. Workers key step state by
  // (session, step id), so the second session trains exactly as the first.
  if (!SocketTransport()) GTEST_SKIP() << "socket transport only";
  auto cluster = Cluster::Create(PsWorkerSpec(1, 2));
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  Graph g;
  GraphBuilder b(&g);
  Output w;
  Output init;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    w = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "w");
    init = ops::Assign(&b, w, Const(&b, Tensor::Vec<float>({3, -5})));
  }
  Output loss;
  Result<Node*> train_op = Internal("unset");
  train::GradientDescentOptimizer opt(0.125f);
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    loss = ops::SumAll(&b, ops::Square(&b, w));
    train_op = opt.Minimize(&b, loss, {w}, "train");
  }
  Output probe;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:1");
    probe = ops::Neg(&b, w);
  }
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  ASSERT_TRUE(b.ok()) << b.status();

  auto trajectory = [&]() {
    std::vector<std::string> bits;
    auto session = MasterSession::Create(g, cluster.value().get());
    EXPECT_TRUE(session.ok()) << session.status();
    if (!session.ok()) return bits;
    TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
    for (int step = 0; step < 15; ++step) {
      std::vector<Tensor> out;
      TF_CHECK_OK(session.value()->Run({}, {loss.name(), probe.name()},
                                       {train_op.value()->name()}, &out));
      for (const Tensor& t : out) {
        bits.emplace_back(static_cast<const char*>(t.raw_data()),
                          t.TotalBytes());
      }
    }
    return bits;
  };
  const std::vector<std::string> first = trajectory();
  const std::vector<std::string> second = trajectory();
  ASSERT_EQ(first.size(), 30u);
  EXPECT_EQ(first, second);
}

TEST(MasterSessionTest, StatefulKernelsSharedAcrossStepSignatures) {
  // Different fetch signatures compile different subgraphs, but the
  // variable state must be shared between them.
  auto cluster = Cluster::Create(PsWorkerSpec(1, 1));
  Graph g;
  GraphBuilder b(&g);
  Output v;
  Output init;
  Output bump;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    v = ops::Variable(&b, DataType::kFloat, TensorShape(), "v");
    init = ops::Assign(&b, v, Const(&b, 5.0f));
    bump = ops::AssignAdd(&b, v, Const(&b, 1.0f));
  }
  Output read;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    read = ops::Identity(&b, v);
  }
  ASSERT_TRUE(b.ok());
  auto session = MasterSession::Create(g, cluster.value().get());
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  TF_CHECK_OK(session.value()->Run({}, {}, {bump.node->name()}, nullptr));
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({read.name()}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 6.0f);
}

TEST(MasterSessionTest, ShardedEmbeddingAcrossPsTasksTrains) {
  // Figure 3 end to end, distributed: embedding shards on two PS tasks,
  // Gather colocated with each shard, DynamicStitch on the worker, dense
  // gradients flowing back over Send/Recv.
  auto cluster = Cluster::Create(PsWorkerSpec(2, 1));
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b);
  nn::ShardedEmbedding emb(&store, "emb", /*vocab=*/8, /*dim=*/2,
                           /*num_shards=*/2, [](int shard) {
                             return "/job:ps/task:" + std::to_string(shard);
                           });
  // Check shard placement requests took effect.
  EXPECT_EQ(emb.shards()[0].node->requested_device(), "/job:ps/task:0");
  EXPECT_EQ(emb.shards()[1].node->requested_device(), "/job:ps/task:1");

  Output indices;
  Output loss;
  Result<Node*> train_op = Internal("unset");
  train::GradientDescentOptimizer opt(1.0f);
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    indices = ops::Const(&b, Tensor::Vec<int32_t>({1, 4, 6}));
    Output target = ops::Const(
        &b, Tensor::FromVector<float>({1, 0, 0, 1, -1, -1},
                                      TensorShape({3, 2})));
    Output looked_up = emb.Lookup(indices);
    loss = ops::MeanAll(
        &b, ops::Square(&b, ops::Sub(&b, looked_up, target)));
    train_op = opt.Minimize(&b, loss, emb.shards(), "train");
  }
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  Node* init = store.BuildInitOp("init");
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(session.ok()) << session.status();
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  for (int i = 0; i < 60; ++i) {
    TF_CHECK_OK(
        session.value()->Run({}, {}, {train_op.value()->name()}, nullptr));
  }
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({loss.name()}, &out));
  EXPECT_LT(*out[0].data<float>(), 1e-3f);
}

TEST(LocalRendezvousAbortTest, DoubleAbortKeepsFirstStatus) {
  LocalRendezvous rendezvous;
  rendezvous.StartAbort(Aborted("first"));
  rendezvous.StartAbort(Unavailable("second"));
  Tensor value;
  bool is_dead = false;
  Status s = rendezvous.Recv("k", &value, &is_dead);
  EXPECT_TRUE(s.IsAborted()) << s;
}


TEST(MasterSessionTest, PerTaskSaverRoundTrip) {
  // §4.3: one Save operation per task. Two PS tasks -> two task groups,
  // each writing its own checkpoint file; restore reassembles both.
  auto cluster = Cluster::Create(PsWorkerSpec(2, 1));
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  std::vector<Output> vars;
  std::vector<Output> inits;
  for (int s = 0; s < 2; ++s) {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:" + std::to_string(s));
    Output v = ops::Variable(&b, DataType::kFloat, TensorShape({2}),
                             "pvar" + std::to_string(s));
    vars.push_back(v);
    inits.push_back(ops::Assign(
        &b, v, Const(&b, Tensor::Vec<float>({float(s + 1), float(s + 2)}))));
  }
  train::Saver saver(&b, vars);
  EXPECT_EQ(saver.num_task_groups(), 2);
  Node* init = ops::Group(&b, inits, "init");
  Output clobber =
      ops::Assign(&b, vars[0], Const(&b, Tensor::Vec<float>({9, 9})));
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(session.ok());
  MasterSession* sess = session.value().get();
  TF_CHECK_OK(sess->Run({}, {}, {init->name()}, nullptr));
  std::string prefix = ::testing::TempDir() + "/per_task_ckpt";
  Result<std::string> base = saver.Save(sess, prefix, 7);
  ASSERT_TRUE(base.ok()) << base.status();
  // Two per-task files exist.
  EXPECT_TRUE(std::ifstream(base.value() + "@0").good());
  EXPECT_TRUE(std::ifstream(base.value() + "@1").good());

  TF_CHECK_OK(sess->Run({}, {}, {clobber.node->name()}, nullptr));
  TF_CHECK_OK(saver.Restore(sess, base.value()));
  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({"pvar0:0", "pvar1:0"}, &out));
  EXPECT_FLOAT_EQ(out[0].flat<float>(0), 1.0f);
  EXPECT_FLOAT_EQ(out[1].flat<float>(1), 3.0f);

  Result<std::string> latest = train::Saver::LatestCheckpoint(prefix);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_NE(latest.value().find("per_task_ckpt-7"), std::string::npos);
}

TEST(MasterSessionTest, TracedStepStitchesAllWorkerTimelines) {
  // The tentpole acceptance test (DESIGN.md §12): one traced distributed
  // step must come back as a single timeline containing node events from
  // BOTH worker tasks on task-prefixed device rows. Under
  // TFREPRO_TRANSPORT=socket the events cross real process boundaries in
  // the RunGraph response and are clock-skew-normalized by the master.
  ClusterSpec spec;
  spec.jobs["worker"] = 2;
  auto cluster = Cluster::Create(spec);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  Graph g;
  GraphBuilder b(&g);
  // A fed placeholder keeps the chain from being constant-folded: real
  // kernels must run on both tasks at step time.
  Output x;
  Output left;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
    left = ops::Mul(&b, x, Const(&b, 3.0f));
  }
  Output total;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:1");
    total = ops::Add(&b, left, Const(&b, 4.0f));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(session.ok()) << session.status();
  RunOptions run_options;
  run_options.trace = true;
  RunMetadata metadata;
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run(run_options, {{"x", Tensor::Scalar(2.0f)}},
                                   {total.name()}, {}, &out, &metadata));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 10.0f);

  // Node events from both tasks, on device names carrying the task prefix.
  bool saw_task0 = false;
  bool saw_task1 = false;
  for (const NodeExecStats& n : metadata.step_stats.nodes) {
    if (n.device.rfind("/job:worker/task:0/", 0) == 0) saw_task0 = true;
    if (n.device.rfind("/job:worker/task:1/", 0) == 0) saw_task1 = true;
    EXPECT_GT(n.end_micros, 0) << n.node_name;
    EXPECT_GE(n.end_micros, n.start_micros) << n.node_name;
  }
  EXPECT_TRUE(saw_task0);
  EXPECT_TRUE(saw_task1);

  // The cross-task hop (task:0 -> task:1) was recorded as a transfer.
  bool saw_cross_task_transfer = false;
  for (const TransferStats& t : metadata.step_stats.transfers) {
    if (t.send_device.rfind("/job:worker/task:0/", 0) == 0 &&
        t.recv_device.rfind("/job:worker/task:1/", 0) == 0) {
      saw_cross_task_transfer = true;
    }
  }
  EXPECT_TRUE(saw_cross_task_transfer);

  // The Chrome export puts both tasks in one trace: each task becomes a
  // process row, each device a thread row.
  const std::string trace = metadata.step_stats.ToChromeTraceJson();
  EXPECT_NE(trace.find("/job:worker/task:0"), std::string::npos);
  EXPECT_NE(trace.find("/job:worker/task:1"), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  // Skew normalization: every stitched event must land within the
  // master-observed step window (sanity bound — a badly normalized worker
  // clock puts events far outside it). The window is widened by a minute
  // on each side so the assertion only catches gross offsets, not jitter.
  int64_t min_us = INT64_MAX;
  int64_t max_us = 0;
  for (const NodeExecStats& n : metadata.step_stats.nodes) {
    if (n.start_micros > 0 && n.start_micros < min_us) min_us = n.start_micros;
    if (n.end_micros > max_us) max_us = n.end_micros;
  }
  ASSERT_LT(min_us, max_us);
  EXPECT_LT(max_us - min_us, int64_t{60} * 1000 * 1000);

  // An untraced run on the same session stays trace-free.
  RunMetadata untraced;
  TF_CHECK_OK(session.value()->Run(RunOptions(), {{"x", Tensor::Scalar(2.0f)}},
                                   {total.name()}, {}, &out, &untraced));
  EXPECT_TRUE(untraced.step_stats.nodes.empty());
}

TEST(MasterSessionTest, SampledStepsAggregateIntoProfileStore) {
  // Sampling cadence applies to distributed steps too: every 2nd Run is
  // traced and folded into the master's ProfileStore, including node
  // timings harvested from remote workers.
  ClusterSpec spec;
  spec.jobs["worker"] = 2;
  auto cluster = Cluster::Create(spec);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  Graph g;
  GraphBuilder b(&g);
  Output x;
  Output left;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
    left = ops::Square(&b, x);
  }
  Output total;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:1");
    total = ops::Add(&b, left, Const(&b, 1.0f));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.profile_sample_every = 2;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok()) << session.status();
  constexpr int kRuns = 6;
  for (int i = 0; i < kRuns; ++i) {
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({{"x", Tensor::Scalar(3.0f)}},
                                     {total.name()}, {}, &out));
    EXPECT_FLOAT_EQ(*out[0].data<float>(), 10.0f);
  }

  const ProfileStore* store = session.value()->profile_store();
  EXPECT_EQ(store->steps(), kRuns / 2);
  // Both tasks' devices contributed measured entries.
  bool task0_entry = false;
  bool task1_entry = false;
  for (const ProfileEntry& e : store->Entries()) {
    if (e.device.rfind("/job:worker/task:0/", 0) == 0) task0_entry = true;
    if (e.device.rfind("/job:worker/task:1/", 0) == 0) task1_entry = true;
  }
  EXPECT_TRUE(task0_entry);
  EXPECT_TRUE(task1_entry);
  EXPECT_GE(store->OpMeanMicros("Add"), 0.0);
}

TEST(MasterSessionTest, StaleBackupGradientIsDroppedNotAggregated) {
  // §4.4 "first m of n" with real staleness protection: n=4 replicas, m=3
  // required, and the whole training step is ONE distributed Run so every
  // replica's gradient carries the same issuing step id. Worker 3 is
  // delayed, so each step it is deterministically the straggler: its
  // (poisoned) gradient lands after the chief already aggregated the first
  // m fresh ones and stays queued. At the next step that leftover's tag is
  // below the advanced stale floor and QueueDequeueFreshMany discards it —
  // the poison value must never reach the variable.
  FaultInjector injector;
  Cluster::Options copts;
  copts.fault_injector = &injector;
  auto cluster = Cluster::Create(PsWorkerSpec(1, 4), copts);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  constexpr int kWorkers = 4;
  constexpr int kRequired = 3;
  Graph g;
  GraphBuilder b(&g);
  Output v;
  Output init;
  train::GradientDescentOptimizer opt(1.0f);
  std::unique_ptr<train::SyncReplicas> sync;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    v = ops::Variable(&b, DataType::kFloat, TensorShape(), "v");
    init = ops::Assign(&b, v, Const(&b, 0.0f));
    sync = std::make_unique<train::SyncReplicas>(
        &b, &opt, kWorkers, kRequired, /*drop_stale_gradients=*/true);
  }
  EXPECT_TRUE(sync->drop_stale_gradients());

  std::vector<Node*> worker_steps;
  for (int i = 0; i < kWorkers; ++i) {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:" +
                                            std::to_string(i));
    // The straggler's gradient is poisoned: if a stale one were ever
    // aggregated the trajectory below would be visibly wrong.
    const float grad = (i == kWorkers - 1) ? 300.0f : 3.0f;
    Result<Node*> step = sync->AddWorkerStep({GradAndVar{Const(&b, grad), v}});
    ASSERT_TRUE(step.ok()) << step.status();
    worker_steps.push_back(step.value());
  }
  Result<Node*> chief = Internal("unset");
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    chief = sync->BuildChiefUpdate();
  }
  ASSERT_TRUE(chief.ok()) << chief.status();
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(session.ok()) << session.status();
  MasterSession* sess = session.value().get();
  TF_CHECK_OK(sess->Run({}, {}, {init.node->name()}, nullptr));
  TF_CHECK_OK(sess->Run({}, {}, {sync->token_seed_op()->name()}, nullptr));

  injector.DelayTask("/job:worker/task:3", 0.1);
  metrics::Counter* dropped =
      metrics::Registry::Global()->GetCounter("grad.stale_dropped");
  const int64_t dropped_before = dropped->value();

  constexpr int kSteps = 5;
  std::vector<std::string> step_targets;
  for (Node* wstep : worker_steps) step_targets.push_back(wstep->name());
  step_targets.push_back(chief.value()->name());
  for (int s = 0; s < kSteps; ++s) {
    TF_CHECK_OK(sess->Run({}, {}, step_targets, nullptr));
  }

  // Every committed update averaged m fresh gradients of 3.0 — if any
  // stale 300.0 had been aggregated, v would be off by >= 99 somewhere.
  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({v.name()}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), -3.0f * kSteps);

  // Steps 2..N each dequeued (and discarded) the previous step's leftover
  // straggler gradient: its tag is below the floor advanced at commit. The
  // counter increments where the dequeue kernel runs, so over the socket
  // transport it lives in the ps process — unobservable here; the bit-exact
  // trajectory above already proves no stale gradient was aggregated.
  if (!SocketTransport()) {
    EXPECT_EQ(dropped->value() - dropped_before, kSteps - 1);
  }
}

// Session differential over the fuzz DAGs (fuzz_graph.h): each seed's
// trajectory runs through a one-task session and through a MasterSession
// over {ps:1, worker:2} with arity-balanced placement, variables pinned to
// the ps task. Every fetched tensor must agree bit for bit, and a traced
// train step must show the cluster run really moved tensors between tasks.
// Under TFREPRO_TRANSPORT=socket the cluster side crosses real processes.
std::string TaskOfDevice(const std::string& device) {
  return device.substr(0, device.find("/device:"));
}

void RunSessionDifferential(uint32_t seed) {
  fuzz::FuzzGraph fg;
  fuzz::BuildFuzzGraph(seed, "/job:ps/task:0", &fg);
  if (::testing::Test::HasFatalFailure()) return;
  const auto feeds = fuzz::FuzzFeeds(seed);

  SessionOptions local_options;
  local_options.job_name = "ps";
  auto local = DirectSession::Create(fg.graph, local_options);
  ASSERT_TRUE(local.ok()) << local.status();
  const std::vector<std::string> expected =
      fuzz::RunFuzzTrajectory(local.value().get(), fg, feeds);

  auto cluster = Cluster::Create(PsWorkerSpec(1, 2));
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  MasterSession::Options options;
  options.placer.balance = PlacerOptions::Balance::kArity;
  auto session = MasterSession::Create(fg.graph, cluster.value().get(),
                                       options);
  ASSERT_TRUE(session.ok()) << session.status();
  RunMetadata traced;
  const std::vector<std::string> actual =
      fuzz::RunFuzzTrajectory(session.value().get(), fg, feeds, &traced);

  ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
  ASSERT_FALSE(actual.empty()) << "seed " << seed;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << "seed " << seed << ": fetched tensor " << i
        << " differs between the one-task session and the cluster";
  }
  int cross_task = 0;
  for (const TransferStats& t : traced.step_stats.transfers) {
    if (TaskOfDevice(t.send_device) != TaskOfDevice(t.recv_device)) {
      ++cross_task;
    }
  }
  EXPECT_GT(cross_task, 0) << "seed " << seed
                           << ": the traced step moved nothing between tasks";
}

#define SESSION_DIFFERENTIAL_SEED(n) \
  TEST(SessionDifferentialTest, Seed##n) { RunSessionDifferential(n); }

SESSION_DIFFERENTIAL_SEED(0)
SESSION_DIFFERENTIAL_SEED(1)
SESSION_DIFFERENTIAL_SEED(2)
SESSION_DIFFERENTIAL_SEED(3)
SESSION_DIFFERENTIAL_SEED(4)
SESSION_DIFFERENTIAL_SEED(5)
SESSION_DIFFERENTIAL_SEED(6)
SESSION_DIFFERENTIAL_SEED(7)
SESSION_DIFFERENTIAL_SEED(8)
SESSION_DIFFERENTIAL_SEED(9)
SESSION_DIFFERENTIAL_SEED(10)
SESSION_DIFFERENTIAL_SEED(11)
SESSION_DIFFERENTIAL_SEED(12)
SESSION_DIFFERENTIAL_SEED(13)
SESSION_DIFFERENTIAL_SEED(14)
SESSION_DIFFERENTIAL_SEED(15)
SESSION_DIFFERENTIAL_SEED(16)
SESSION_DIFFERENTIAL_SEED(17)
SESSION_DIFFERENTIAL_SEED(18)
SESSION_DIFFERENTIAL_SEED(19)

}  // namespace
}  // namespace tfrepro
