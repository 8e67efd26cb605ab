// Error-handling and cancellation tests for the executor and session:
// kernel failures must abort the step promptly (unblocking pending
// Recv/queue waits instead of hanging), and subsequent steps must work.

#include <gtest/gtest.h>

#include <thread>

#include "graph/control_flow_builder.h"
#include "graph/ops.h"
#include "runtime/executor.h"
#include "runtime/session.h"

namespace tfrepro {
namespace {

using ops::Const;

// The [1,2] left operand of the failing MatMuls below, fed as "a". A fed
// operand's _Feed node has no static shape, so an inner-dimension mismatch
// against a [1,3] right operand passes the compile-time shape check and
// fails in the MatMul kernel.
Output FedA(GraphBuilder* b) {
  return ops::Placeholder(b, DataType::kFloat, TensorShape({1, 2}), "a");
}

Tensor A12() {
  return Tensor::FromVector<float>({1, 2}, TensorShape({1, 2}));
}

TEST(ExecutorErrorTest, KernelErrorAbortsPendingRecvInSameStep) {
  // Two devices: device 1 computes a failing op whose result device 0
  // awaits via Recv. The failure must abort the step's rendezvous so the
  // Recv unblocks; the step returns the original error.
  Graph g;
  GraphBuilder b(&g);
  Output bad_a, bad_b;
  {
    GraphBuilder::DeviceScope scope(&b, "/device:CPU:1");
    bad_a = FedA(&b);  // runtime failure: MatMul inner-dim mismatch
    bad_b = Const(&b, Tensor::FromVector<float>({1, 2, 3}, TensorShape({1, 3})));
  }
  Output bad;
  {
    GraphBuilder::DeviceScope scope(&b, "/device:CPU:1");
    bad = ops::MatMul(&b, bad_a, bad_b);
  }
  Output consume;
  {
    GraphBuilder::DeviceScope scope(&b, "/device:CPU:0");
    consume = ops::SumAll(&b, bad);  // forces a cross-device Recv
  }
  ASSERT_TRUE(b.ok()) << b.status();
  SessionOptions options;
  options.num_devices = 2;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  Status s = session.value()->Run({{"a", A12()}}, {consume.name()}, {}, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("MatMul"), std::string::npos);
}

TEST(ExecutorErrorTest, StepErrorCancelsPendingDequeue) {
  // A step that both dequeues from an empty queue and runs a failing op:
  // the cancellation manager must abort the blocked dequeue so the step
  // finishes with the kernel's error instead of hanging.
  Graph g;
  GraphBuilder b(&g);
  Output q = ops::FIFOQueue(&b, {DataType::kFloat}, 4);
  std::vector<Output> dq = ops::QueueDequeue(&b, q, {DataType::kFloat});
  Output bad = ops::MatMul(
      &b, FedA(&b),
      Const(&b, Tensor::FromVector<float>({1, 2, 3}, TensorShape({1, 3}))));
  Output sum = ops::Add(&b, dq[0], ops::SumAll(&b, bad));
  ASSERT_TRUE(b.ok());
  auto session = DirectSession::Create(g);
  std::vector<Tensor> out;
  Status s = session.value()->Run({{"a", A12()}}, {sum.name()}, {}, &out);
  EXPECT_FALSE(s.ok());  // and, crucially, it returned at all
}

TEST(ExecutorErrorTest, SessionUsableAfterFailedStep) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
  Output ok_out = ops::Square(&b, x);
  Output bad = ops::MatMul(
      &b, FedA(&b),
      Const(&b, Tensor::FromVector<float>({1, 2, 3}, TensorShape({1, 3}))));
  ASSERT_TRUE(b.ok());
  auto session = DirectSession::Create(g);
  std::vector<Tensor> out;
  EXPECT_FALSE(
      session.value()->Run({{"a", A12()}}, {bad.name()}, {}, &out).ok());
  // The failure is step-local: the next step succeeds.
  TF_CHECK_OK(session.value()->Run({{"x", Tensor::Scalar(3.0f)}},
                                   {ok_out.name()}, {}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 9.0f);
}

TEST(ExecutorErrorTest, FirstErrorWinsWithMultipleFailures) {
  Graph g;
  GraphBuilder b(&g);
  std::vector<Output> bads;
  Output a = FedA(&b);
  for (int i = 0; i < 4; ++i) {
    Output bad = ops::MatMul(
        &b, a,
        Const(&b, Tensor::FromVector<float>({float(i), 2, 3},
                                            TensorShape({1, 3}))));
    bads.push_back(ops::SumAll(&b, bad));
  }
  Output total = ops::AddN(&b, bads);
  ASSERT_TRUE(b.ok());
  SessionOptions options;
  options.optimizer.do_cse = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  Status s = session.value()->Run({{"a", A12()}}, {total.name()}, {}, &out);
  EXPECT_FALSE(s.ok());
  // Exactly one coherent error message (no concatenated garbage).
  EXPECT_NE(s.message().find("MatMul"), std::string::npos);
}

TEST(ExecutorErrorTest, MissingKernelReportedAtExecutorCreation) {
  // An op with a schema but no registered CPU kernel fails at compile.
  Status reg = OpRegistry::Global()->Register(
      OpDefBuilder("KernellessOp").Output("out: float").Build().value());
  // (Ignore AlreadyExists when the test re-runs within one process.)
  (void)reg;
  Graph g;
  GraphBuilder b(&g);
  Output o = b.Op("KernellessOp").Finalize();
  ASSERT_TRUE(b.ok());
  auto session = DirectSession::Create(g);
  std::vector<Tensor> out;
  Status s = session.value()->Run({o.name()}, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no kernel"), std::string::npos);
}

TEST(ExecutorErrorTest, ConcurrentFailingAndSucceedingSteps) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
  Output good = ops::Square(&b, x);
  Output bad = ops::MatMul(
      &b, FedA(&b),
      Const(&b, Tensor::FromVector<float>({1, 2, 3}, TensorShape({1, 3}))));
  ASSERT_TRUE(b.ok());
  auto session = DirectSession::Create(g);
  DirectSession* sess = session.value().get();

  std::thread failing([&]() {
    for (int i = 0; i < 20; ++i) {
      std::vector<Tensor> out;
      EXPECT_FALSE(sess->Run({{"a", A12()}}, {bad.name()}, {}, &out).ok());
    }
  });
  std::thread succeeding([&]() {
    for (int i = 0; i < 20; ++i) {
      std::vector<Tensor> out;
      TF_CHECK_OK(sess->Run({{"x", Tensor::Scalar(2.0f)}}, {good.name()}, {},
                            &out));
      EXPECT_FLOAT_EQ(*out[0].data<float>(), 4.0f);
    }
  });
  failing.join();
  succeeding.join();
}

TEST(ExecutorErrorTest, DeepGraphCompletesWithoutStackOverflow) {
  // 50k-node chain: the executor must iterate, not recurse.
  Graph g;
  GraphBuilder b(&g);
  Output v = Const(&b, 1.0f);
  for (int i = 0; i < 50000; ++i) {
    v = ops::Identity(&b, v);
  }
  ASSERT_TRUE(b.ok());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  options.optimizer.do_cse = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({v.name()}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 1.0f);
}

TEST(ExecutorErrorTest, ZeroOutputDeadNodePropagatesDeadnessCleanly) {
  // A zero-output node (NoOp) inside an untaken Cond branch: its dead
  // execution sizes the outputs vector as max(1, num_outputs) = 1, a
  // phantom slot that must never be delivered anywhere — the node has only
  // control out-edges, and DeliverToEdges asserts data edges always index a
  // real output. Deadness must still flow through the NoOp's control edge
  // so the downstream branch value dies and the merge picks the taken side.
  Graph g;
  GraphBuilder b(&g);
  Output pred = ops::Placeholder(&b, DataType::kBool, TensorShape(), "pred");
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
  Result<std::vector<Output>> results = ops::Cond(
      &b, pred, {x},
      [](GraphBuilder* b, const std::vector<Output>& in) {
        Output doubled = ops::Mul(b, in[0], Const(b, 2.0f));
        // NoOp is dead via the control edge from `doubled` when the branch
        // is untaken; its deadness must reach `gated` the same way.
        Node* noop = b->Op("NoOp").ControlInput(doubled.node).FinalizeNode();
        Output gated = b->Op("Identity")
                           .Input(doubled)
                           .ControlInput(noop)
                           .Attr("T", DataType::kFloat)
                           .Finalize();
        return std::vector<Output>{gated};
      },
      [](GraphBuilder* b, const std::vector<Output>& in) {
        return std::vector<Output>{ops::Neg(b, in[0])};
      });
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_TRUE(b.ok()) << b.status();
  SessionOptions options;
  options.optimizer.do_cse = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  // Taken branch: the live NoOp executes with zero outputs.
  TF_CHECK_OK(session.value()->Run(
      {{"pred", Tensor::Scalar(true)}, {"x", Tensor::Scalar(5.0f)}},
      {results.value()[0].name()}, {}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 10.0f);
  // Untaken branch: the dead NoOp propagates deadness, no phantom writes.
  TF_CHECK_OK(session.value()->Run(
      {{"pred", Tensor::Scalar(false)}, {"x", Tensor::Scalar(5.0f)}},
      {results.value()[0].name()}, {}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), -5.0f);
}

}  // namespace
}  // namespace tfrepro
