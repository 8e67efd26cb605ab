// Unit tests for the runtime's graph-processing stages: device-name
// parsing, placement with colocation constraints, partitioning with
// Send/Recv insertion, common-subexpression elimination and constant
// folding, and rendezvous semantics.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "graph/control_flow_builder.h"
#include "graph/dot.h"
#include "graph/ops.h"
#include "graph/subgraph.h"
#include "runtime/device.h"
#include "runtime/graph_optimizer.h"
#include "runtime/partition.h"
#include "runtime/placer.h"
#include "runtime/rendezvous.h"
#include "runtime/session.h"

namespace tfrepro {
namespace {

using ops::Const;

TEST(DeviceNameTest, ParseFullName) {
  Result<DeviceName> r = DeviceName::Parse("/job:ps/task:3/device:CPU:1");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().IsFullySpecified());
  EXPECT_EQ(r.value().job, "ps");
  EXPECT_EQ(r.value().task, 3);
  EXPECT_EQ(r.value().type, "CPU");
  EXPECT_EQ(r.value().id, 1);
  EXPECT_EQ(r.value().ToString(), "/job:ps/task:3/device:CPU:1");
}

TEST(DeviceNameTest, ParsePartialAndLegacyForms) {
  Result<DeviceName> job_only = DeviceName::Parse("/job:worker");
  ASSERT_TRUE(job_only.ok());
  EXPECT_TRUE(job_only.value().has_job);
  EXPECT_FALSE(job_only.value().has_task);

  Result<DeviceName> legacy = DeviceName::Parse("/cpu:0");
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy.value().type, "CPU");
  EXPECT_EQ(legacy.value().id, 0);

  EXPECT_FALSE(DeviceName::Parse("/bogus").ok());
  EXPECT_FALSE(DeviceName::Parse("/frobnicate:1").ok());
}

TEST(DeviceNameTest, MatchesPartialSpec) {
  DeviceName full = DeviceName::Parse("/job:ps/task:1/device:CPU:0").value();
  EXPECT_TRUE(full.Matches(DeviceName::Parse("/job:ps").value()));
  EXPECT_TRUE(full.Matches(DeviceName::Parse("/task:1").value()));
  EXPECT_TRUE(full.Matches(DeviceName()));  // empty spec matches anything
  EXPECT_FALSE(full.Matches(DeviceName::Parse("/job:worker").value()));
  EXPECT_FALSE(full.Matches(DeviceName::Parse("/task:2").value()));
}

TEST(DeviceNameTest, MergeDetectsConflicts) {
  DeviceName a = DeviceName::Parse("/job:ps").value();
  ASSERT_TRUE(a.MergeFrom(DeviceName::Parse("/task:2").value()).ok());
  EXPECT_EQ(a.ToString(), "/job:ps/task:2");
  EXPECT_FALSE(a.MergeFrom(DeviceName::Parse("/job:worker").value()).ok());
}

class PlacerPartitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<ThreadPool>("t", 2);
    for (int task = 0; task < 2; ++task) {
      devices_.push_back(NewCpuDevice("worker", task, 0, pool_.get()));
      device_ptrs_.push_back(devices_.back().get());
    }
  }
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<Device*> device_ptrs_;
};

TEST_F(PlacerPartitionTest, UnconstrainedNodesGoToDefaultDevice) {
  Graph g;
  GraphBuilder b(&g);
  Output c = Const(&b, 1.0f);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(PlaceGraph(&g, device_ptrs_).ok());
  EXPECT_EQ(c.node->assigned_device(), device_ptrs_[0]->name());
}

TEST_F(PlacerPartitionTest, ExplicitConstraintRespected) {
  Graph g;
  GraphBuilder b(&g);
  Output c;
  {
    GraphBuilder::DeviceScope scope(&b, "/task:1");
    c = Const(&b, 1.0f);
  }
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(PlaceGraph(&g, device_ptrs_).ok());
  EXPECT_NE(c.node->assigned_device().find("task:1"), std::string::npos);
}

TEST_F(PlacerPartitionTest, RefEdgeColocation) {
  // Assign must land with its Variable even though only the Variable is
  // constrained (§3.3 implicit colocation).
  Graph g;
  GraphBuilder b(&g);
  Output v;
  {
    GraphBuilder::DeviceScope scope(&b, "/task:1");
    v = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "v");
  }
  Output assign = ops::Assign(&b, v, Const(&b, Tensor::Vec<float>({1, 2})));
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(PlaceGraph(&g, device_ptrs_).ok());
  EXPECT_EQ(assign.node->assigned_device(), v.node->assigned_device());
  EXPECT_NE(v.node->assigned_device().find("task:1"), std::string::npos);
}

TEST_F(PlacerPartitionTest, UnsatisfiableConstraintFails) {
  Graph g;
  GraphBuilder b(&g);
  {
    GraphBuilder::DeviceScope scope(&b, "/job:tpuworker");
    Const(&b, 1.0f);
  }
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(PlaceGraph(&g, device_ptrs_).ok());
}

TEST_F(PlacerPartitionTest, PartitionInsertsOneSendRecvPerConsumerDevice) {
  Graph g;
  GraphBuilder b(&g);
  Output src;
  {
    GraphBuilder::DeviceScope scope(&b, "/task:0");
    src = Const(&b, 2.0f);
  }
  // Two consumers on task 1 must share one Send/Recv pair.
  Output c1, c2;
  {
    GraphBuilder::DeviceScope scope(&b, "/task:1");
    c1 = ops::Square(&b, src);
    c2 = ops::Neg(&b, src);
  }
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(PlaceGraph(&g, device_ptrs_).ok());
  auto parts = PartitionGraph(g);
  ASSERT_TRUE(parts.ok()) << parts.status();
  ASSERT_EQ(parts.value().size(), 2u);

  int sends = 0, recvs = 0;
  for (auto& [device, part] : parts.value()) {
    for (Node* n : part->nodes()) {
      if (n->IsSend()) ++sends;
      if (n->IsRecv()) ++recvs;
    }
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
}

TEST_F(PlacerPartitionTest, CrossDeviceControlEdgeCarriedByDummy) {
  Graph g;
  GraphBuilder b(&g);
  Node* first;
  {
    GraphBuilder::DeviceScope scope(&b, "/task:0");
    first = b.Op("NoOp").Name("first").FinalizeNode();
  }
  Node* second;
  {
    GraphBuilder::DeviceScope scope(&b, "/task:1");
    second = b.Op("NoOp").Name("second").ControlInput(first).FinalizeNode();
  }
  (void)second;
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(PlaceGraph(&g, device_ptrs_).ok());
  auto parts = PartitionGraph(g);
  ASSERT_TRUE(parts.ok());
  int sends = 0, recvs = 0;
  for (auto& [device, part] : parts.value()) {
    for (Node* n : part->nodes()) {
      if (n->IsSend()) ++sends;
      if (n->IsRecv()) ++recvs;
    }
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
}

// Counts the transfer nodes of a partitioning and, per _Recv, the nodes it
// gates through control edges.
struct TransferCounts {
  int sends = 0;
  int recvs = 0;
  std::map<std::string, std::set<std::string>> gated_by_recv;
  // Control inputs of each control-token dummy (a Const feeding a _Send).
  std::vector<std::set<std::string>> dummy_sources;
};

TransferCounts CountTransfers(
    const std::map<std::string, std::unique_ptr<Graph>>& parts) {
  TransferCounts counts;
  for (auto& [device, part] : parts) {
    for (Node* n : part->nodes()) {
      if (n->IsSend()) {
        ++counts.sends;
        for (const Edge* e : n->in_edges()) {
          if (e->IsControlEdge() || !e->src->IsOp("Const")) continue;
          std::set<std::string> sources;
          for (const Edge* c : e->src->in_edges()) {
            if (c->IsControlEdge()) sources.insert(c->src->name());
          }
          counts.dummy_sources.push_back(sources);
        }
      }
      if (n->IsRecv()) {
        ++counts.recvs;
        for (const Edge* e : n->out_edges()) {
          if (e->IsControlEdge()) {
            counts.gated_by_recv[n->name()].insert(e->dst->name());
          }
        }
      }
    }
  }
  return counts;
}

TEST_F(PlacerPartitionTest, ControlEdgesFromOneDeviceRideOneToken) {
  Graph g;
  GraphBuilder b(&g);
  Node* a;
  Node* bb;
  Node* c;
  {
    GraphBuilder::DeviceScope scope(&b, "/task:0");
    a = b.Op("NoOp").Name("a").FinalizeNode();
    bb = b.Op("NoOp").Name("b").FinalizeNode();
    c = b.Op("NoOp").Name("c").FinalizeNode();
  }
  {
    GraphBuilder::DeviceScope scope(&b, "/task:1");
    b.Op("NoOp").Name("dst").ControlInput(a).ControlInput(bb).ControlInput(c)
        .FinalizeNode();
  }
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE(PlaceGraph(&g, device_ptrs_).ok());
  auto parts = PartitionGraph(g);
  ASSERT_TRUE(parts.ok()) << parts.status();
  TransferCounts counts = CountTransfers(parts.value());
  EXPECT_EQ(counts.sends, 1);
  EXPECT_EQ(counts.recvs, 1);
  ASSERT_EQ(counts.dummy_sources.size(), 1u);
  EXPECT_EQ(counts.dummy_sources[0], (std::set<std::string>{"a", "b", "c"}));
  ASSERT_EQ(counts.gated_by_recv.size(), 1u);
  EXPECT_EQ(counts.gated_by_recv.begin()->second,
            std::set<std::string>{"dst"});
}

TEST_F(PlacerPartitionTest, SameControlSourceSetSharesOneToken) {
  Graph g;
  GraphBuilder b(&g);
  Node* a;
  Node* bb;
  {
    GraphBuilder::DeviceScope scope(&b, "/task:0");
    a = b.Op("NoOp").Name("a").FinalizeNode();
    bb = b.Op("NoOp").Name("b").FinalizeNode();
  }
  {
    GraphBuilder::DeviceScope scope(&b, "/task:1");
    // Control inputs listed in different orders: the set is what counts.
    b.Op("NoOp").Name("d1").ControlInput(a).ControlInput(bb).FinalizeNode();
    b.Op("NoOp").Name("d2").ControlInput(bb).ControlInput(a).FinalizeNode();
  }
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE(PlaceGraph(&g, device_ptrs_).ok());
  auto parts = PartitionGraph(g);
  ASSERT_TRUE(parts.ok()) << parts.status();
  TransferCounts counts = CountTransfers(parts.value());
  EXPECT_EQ(counts.sends, 1);
  EXPECT_EQ(counts.recvs, 1);
  ASSERT_EQ(counts.gated_by_recv.size(), 1u);
  EXPECT_EQ(counts.gated_by_recv.begin()->second,
            (std::set<std::string>{"d1", "d2"}));
}

TEST_F(PlacerPartitionTest, DifferentControlSourceSetsGetOwnTokens) {
  Graph g;
  GraphBuilder b(&g);
  Node* a;
  Node* bb;
  Node* c;
  {
    GraphBuilder::DeviceScope scope(&b, "/task:0");
    a = b.Op("NoOp").Name("a").FinalizeNode();
    bb = b.Op("NoOp").Name("b").FinalizeNode();
    c = b.Op("NoOp").Name("c").FinalizeNode();
  }
  {
    GraphBuilder::DeviceScope scope(&b, "/task:1");
    b.Op("NoOp").Name("d1").ControlInput(a).ControlInput(bb).FinalizeNode();
    b.Op("NoOp").Name("d2").ControlInput(a).ControlInput(bb).ControlInput(c)
        .FinalizeNode();
  }
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_TRUE(PlaceGraph(&g, device_ptrs_).ok());
  auto parts = PartitionGraph(g);
  ASSERT_TRUE(parts.ok()) << parts.status();
  TransferCounts counts = CountTransfers(parts.value());
  EXPECT_EQ(counts.sends, 2);
  EXPECT_EQ(counts.recvs, 2);
  std::set<std::set<std::string>> source_sets(counts.dummy_sources.begin(),
                                              counts.dummy_sources.end());
  EXPECT_EQ(source_sets, (std::set<std::set<std::string>>{
                             {"a", "b"}, {"a", "b", "c"}}));
  std::set<std::set<std::string>> gated;
  for (auto& [recv, dsts] : counts.gated_by_recv) gated.insert(dsts);
  EXPECT_EQ(gated, (std::set<std::set<std::string>>{{"d1"}, {"d2"}}));
}

TEST_F(PlacerPartitionTest, PartitionRequiresPlacement) {
  Graph g;
  GraphBuilder b(&g);
  Const(&b, 1.0f);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(PartitionGraph(g).ok());  // no assigned devices yet
}

class OptimizerPassTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<ThreadPool>("t", 2);
    device_ = NewCpuDevice("localhost", 0, 0, pool_.get());
  }
  void Place(Graph* g) {
    TF_CHECK_OK(PlaceGraph(g, {device_.get()}));
  }
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Device> device_;
};

TEST_F(OptimizerPassTest, CseMergesIdenticalStatelessNodes) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
  Output a = ops::Square(&b, x);
  Output c = ops::Square(&b, x);  // identical
  Output sum = ops::Add(&b, a, c);
  (void)sum;
  ASSERT_TRUE(b.ok());
  Place(&g);
  int before = g.num_nodes();
  int removed = EliminateCommonSubexpressions(&g);
  EXPECT_EQ(removed, 1);
  EXPECT_EQ(g.num_nodes(), before - 1);
}

TEST_F(OptimizerPassTest, CseDoesNotMergeStatefulNodes) {
  Graph g;
  GraphBuilder b(&g);
  Output r1 = ops::RandomUniform(&b, {4});
  Output r2 = ops::RandomUniform(&b, {4});
  Output sum = ops::Add(&b, r1, r2);
  (void)sum;
  ASSERT_TRUE(b.ok());
  Place(&g);
  // The two identical shape Consts may merge; the stateful random ops must
  // not (each keeps its own stream).
  EliminateCommonSubexpressions(&g);
  int randoms = 0;
  for (Node* n : g.nodes()) {
    if (n->op() == "RandomUniform") ++randoms;
  }
  EXPECT_EQ(randoms, 2);
}

TEST_F(OptimizerPassTest, ConstantFoldingReplacesComputations) {
  Graph g;
  GraphBuilder b(&g);
  Output folded = ops::Add(&b, Const(&b, 2.0f), Const(&b, 3.0f));
  Output keep = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
  Output result = ops::Mul(&b, folded, keep);
  (void)result;
  ASSERT_TRUE(b.ok());
  Place(&g);
  Result<int> count = FoldConstants(&g, device_.get());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 1);
  // The Add is gone; a new Const carries 5.0.
  bool found5 = false;
  for (Node* n : g.nodes()) {
    EXPECT_NE(n->op(), "Add");
    if (n->IsConstant() &&
        n->GetAttr("value").tensor().dtype() == DataType::kFloat &&
        n->GetAttr("value").tensor().IsScalar() &&
        *n->GetAttr("value").tensor().data<float>() == 5.0f) {
      found5 = true;
    }
  }
  EXPECT_TRUE(found5);
}

TEST_F(OptimizerPassTest, FoldingSkipsStatefulAndControlFlow) {
  Graph g;
  GraphBuilder b(&g);
  Output r = ops::RandomUniform(&b, {2});
  Node* sw = ops::Switch(&b, Const(&b, 1.0f), Const(&b, Tensor::Scalar(true)));
  (void)r;
  (void)sw;
  ASSERT_TRUE(b.ok());
  Place(&g);
  Result<int> count = FoldConstants(&g, device_.get());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 0);
}

TEST_F(OptimizerPassTest, MultiPassFoldingReachesFixpoint) {
  Graph g;
  GraphBuilder b(&g);
  // ((1+2)+3)+x folds to 6+x over multiple passes.
  Output chain = ops::Add(
      &b, ops::Add(&b, ops::Add(&b, Const(&b, 1.0f), Const(&b, 2.0f)),
                   Const(&b, 3.0f)),
      ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x"));
  (void)chain;
  ASSERT_TRUE(b.ok());
  Place(&g);
  TF_CHECK_OK(OptimizeGraph(&g, device_.get()));
  int adds = 0;
  for (Node* n : g.nodes()) {
    if (n->op() == "Add") ++adds;
  }
  EXPECT_EQ(adds, 1);  // only the x-dependent Add remains
}

TEST(SubgraphTest, PruneKeepsBackwardClosure) {
  Graph g;
  GraphBuilder b(&g);
  Output a = Const(&b, 1.0f);
  Output keep = ops::Square(&b, a);
  Output drop = ops::Neg(&b, a);  // not reachable from the root
  (void)drop;
  ASSERT_TRUE(b.ok());
  PruneForReverseReachability(&g, {keep.node});
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_NE(g.FindNode(a.node->name()), nullptr);
}

TEST(SubgraphTest, RewriteRejectsUnknownNames) {
  Graph g;
  GraphBuilder b(&g);
  Const(&b, 1.0f);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(RewriteGraphForExecution(&g, {}, {"nope:0"}, {}).ok());
  std::unique_ptr<Graph> g2 = g.Clone();
  EXPECT_FALSE(RewriteGraphForExecution(g2.get(), {"nope:0"}, {}, {}).ok());
  std::unique_ptr<Graph> g3 = g.Clone();
  EXPECT_FALSE(RewriteGraphForExecution(g3.get(), {}, {}, {"nope"}).ok());
}

TEST(RendezvousTest, SendThenRecv) {
  LocalRendezvous r;
  TF_CHECK_OK(r.Send("k", Tensor::Scalar(7.0f), false));
  Tensor value;
  bool is_dead = true;
  TF_CHECK_OK(r.Recv("k", &value, &is_dead));
  EXPECT_FLOAT_EQ(*value.data<float>(), 7.0f);
  EXPECT_FALSE(is_dead);
}

TEST(RendezvousTest, RecvBeforeSendCompletesOnSend) {
  LocalRendezvous r;
  Tensor received;
  bool got = false;
  r.RecvAsync("k", [&](const Status& s, const Tensor& t, bool dead) {
    TF_CHECK_OK(s);
    received = t;
    got = true;
  });
  EXPECT_FALSE(got);
  TF_CHECK_OK(r.Send("k", Tensor::Scalar(1.0f), false));
  EXPECT_TRUE(got);
}

TEST(RendezvousTest, DeadnessBitCarried) {
  LocalRendezvous r;
  TF_CHECK_OK(r.Send("k", Tensor(), true));
  Tensor value;
  bool is_dead = false;
  TF_CHECK_OK(r.Recv("k", &value, &is_dead));
  EXPECT_TRUE(is_dead);
}

TEST(RendezvousTest, AbortUnblocksWaiters) {
  LocalRendezvous r;
  Status seen;
  r.RecvAsync("k", [&](const Status& s, const Tensor&, bool) { seen = s; });
  r.StartAbort(Aborted("step failed"));
  EXPECT_EQ(seen.code(), Code::kAborted);
  // Subsequent operations fail immediately.
  EXPECT_FALSE(r.Send("k2", Tensor::Scalar(1.0f), false).ok());
}

TEST(RendezvousTest, FifoPerKey) {
  LocalRendezvous r;
  TF_CHECK_OK(r.Send("k", Tensor::Scalar(1.0f), false));
  TF_CHECK_OK(r.Send("k", Tensor::Scalar(2.0f), false));
  Tensor v;
  bool dead;
  TF_CHECK_OK(r.Recv("k", &v, &dead));
  EXPECT_FLOAT_EQ(*v.data<float>(), 1.0f);
  TF_CHECK_OK(r.Recv("k", &v, &dead));
  EXPECT_FLOAT_EQ(*v.data<float>(), 2.0f);
}

TEST(CancellationTest, CallbacksFireOnCancel) {
  CancellationManager cm;
  bool fired = false;
  CancellationManager::Token token;
  ASSERT_TRUE(cm.RegisterCallback(&token, [&]() { fired = true; }));
  cm.StartCancel();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(cm.IsCancelled());
  // Post-cancel registration is refused.
  EXPECT_FALSE(cm.RegisterCallback(&token, []() {}));
}

TEST(CancellationTest, DeregisteredCallbackDoesNotFire) {
  CancellationManager cm;
  bool fired = false;
  CancellationManager::Token token;
  ASSERT_TRUE(cm.RegisterCallback(&token, [&]() { fired = true; }));
  cm.DeregisterCallback(token);
  cm.StartCancel();
  EXPECT_FALSE(fired);
}


TEST_F(PlacerPartitionTest, LoopSpanningDevicesRejected) {
  Graph g;
  GraphBuilder b(&g);
  Output x = Const(&b, 1.0f);
  Result<std::vector<Output>> exits = ops::WhileLoop(
      &b, {x},
      [](GraphBuilder* b, const std::vector<Output>& v) {
        return ops::Less(b, v[0], Const(b, 5.0f));
      },
      [](GraphBuilder* b, const std::vector<Output>& v) {
        return std::vector<Output>{ops::Add(b, v[0], Const(b, 1.0f))};
      });
  ASSERT_TRUE(exits.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(PlaceGraph(&g, device_ptrs_).ok());
  // Force one in-frame node onto the other device.
  for (Node* n : g.nodes()) {
    if (n->IsOp("Add")) {
      n->set_assigned_device(device_ptrs_[1]->name());
    }
  }
  Result<std::map<std::string, std::unique_ptr<Graph>>> parts =
      PartitionGraph(g);
  ASSERT_FALSE(parts.ok());
  EXPECT_EQ(parts.status().code(), Code::kUnimplemented);
  EXPECT_NE(parts.status().message().find("spans devices"),
            std::string::npos);
}

TEST(DotExportTest, EmitsClustersAndEdges) {
  Graph g;
  GraphBuilder b(&g);
  Output v;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    v = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "weights");
  }
  Output read = ops::Identity(&b, v);
  Node* group = ops::Group(&b, {read}, "done");
  (void)group;
  ASSERT_TRUE(b.ok());
  std::string dot = GraphToDot(g);
  EXPECT_NE(dot.find("digraph G"), std::string::npos);
  EXPECT_NE(dot.find("weights"), std::string::npos);
  EXPECT_NE(dot.find("cluster_"), std::string::npos);     // device cluster
  EXPECT_NE(dot.find("/job:ps/task:0"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);    // stateful Variable
  EXPECT_NE(dot.find("style=dashed"), std::string::npos); // control edge
}

TEST(SessionShapeValidationTest, CatchesMismatchAtCompileTime) {
  Graph g;
  GraphBuilder b(&g);
  Output a = ops::Placeholder(&b, DataType::kFloat, TensorShape({2, 3}), "a");
  Output w = ops::Placeholder(&b, DataType::kFloat, TensorShape({4, 5}), "w");
  Output p = ops::MatMul(&b, a, w);  // inner dims 3 vs 4: invalid
  ASSERT_TRUE(b.ok());
  auto session = DirectSession::Create(g);
  std::vector<Tensor> out;
  // No feeds: the placeholders keep their static shapes, so compilation
  // itself must reject the graph (fed tensors would lose static shapes —
  // their _Feed nodes are unknown-shaped — and fail at kernel time instead).
  Status s = session.value()->Run({p.name()}, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("shape inference"), std::string::npos)
      << s.message();
}

}  // namespace
}  // namespace tfrepro
