#include "graph/graph.h"

#include <gtest/gtest.h>

#include "core/coding.h"
#include "golden.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/op_registry.h"

namespace tfrepro {
namespace {

Node* MustAdd(Graph* g, NodeDef def) {
  Result<Node*> n = g->AddNode(std::move(def));
  TF_CHECK_OK(n.status());
  return n.value();
}

NodeDef ConstDef(const std::string& name, Tensor value) {
  NodeDef def;
  def.name = name;
  def.op = "Const";
  def.attrs["dtype"] = AttrValue(value.dtype());
  def.attrs["value"] = AttrValue(std::move(value));
  return def;
}

TEST(OpRegistryTest, StandardOpsRegistered) {
  OpRegistry* reg = OpRegistry::Global();
  EXPECT_NE(reg->LookUp("MatMul"), nullptr);
  EXPECT_NE(reg->LookUp("Const"), nullptr);
  EXPECT_NE(reg->LookUp("Variable"), nullptr);
  EXPECT_NE(reg->LookUp("Switch"), nullptr);
  EXPECT_NE(reg->LookUp("QueueDequeueMany"), nullptr);
  EXPECT_EQ(reg->LookUp("NoSuchOp"), nullptr);
  EXPECT_GT(reg->num_ops(), 100);
}

TEST(OpRegistryTest, LookUpOrErrorReportsMissing) {
  Result<const OpDef*> r = OpRegistry::Global()->LookUpOrError("Bogus");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
}

TEST(OpDefTest, AttrDefaultsParsed) {
  const OpDef* matmul = OpRegistry::Global()->LookUp("MatMul");
  ASSERT_NE(matmul, nullptr);
  const AttrDef* ta = matmul->FindAttr("transpose_a");
  ASSERT_NE(ta, nullptr);
  EXPECT_TRUE(ta->has_default);
  EXPECT_FALSE(ta->default_value.b());
}

TEST(OpDefTest, StatefulFlag) {
  EXPECT_TRUE(OpRegistry::Global()->LookUp("Variable")->is_stateful());
  EXPECT_FALSE(OpRegistry::Global()->LookUp("Add")->is_stateful());
}

TEST(OpDefTest, VariadicTypesResolve) {
  const OpDef* addn = OpRegistry::Global()->LookUp("AddN");
  ASSERT_NE(addn, nullptr);
  AttrMap attrs;
  attrs["N"] = AttrValue(int64_t{3});
  attrs["T"] = AttrValue(DataType::kFloat);
  DataTypeVector in, out;
  ASSERT_TRUE(ResolveArgTypes(*addn, attrs, &in, &out).ok());
  EXPECT_EQ(in.size(), 3u);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(in[0], DataType::kFloat);
}

TEST(OpDefTest, RefOutputsResolve) {
  const OpDef* var = OpRegistry::Global()->LookUp("Variable");
  AttrMap attrs;
  attrs["dtype"] = AttrValue(DataType::kFloat);
  attrs["shape"] = AttrValue(TensorShape({2}));
  DataTypeVector in, out;
  ASSERT_TRUE(ResolveArgTypes(*var, attrs, &in, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(IsRefType(out[0]));
  EXPECT_EQ(BaseType(out[0]), DataType::kFloat);
}

TEST(OpDefTest, TypeListResolves) {
  const OpDef* q = OpRegistry::Global()->LookUp("QueueDequeue");
  AttrMap attrs;
  attrs["component_types"] =
      AttrValue(DataTypeVector{DataType::kFloat, DataType::kInt32});
  DataTypeVector in, out;
  ASSERT_TRUE(ResolveArgTypes(*q, attrs, &in, &out).ok());
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1], DataType::kInt32);
}

TEST(GraphTest, AddNodeAndEdges) {
  Graph g;
  Node* a = MustAdd(&g, ConstDef("a", Tensor::Scalar(1.0f)));
  Node* b = MustAdd(&g, ConstDef("b", Tensor::Scalar(2.0f)));
  NodeDef add;
  add.name = "add";
  add.op = "Add";
  add.attrs["T"] = AttrValue(DataType::kFloat);
  Node* c = MustAdd(&g, std::move(add));
  ASSERT_TRUE(g.AddEdge(a, 0, c, 0).ok());
  ASSERT_TRUE(g.AddEdge(b, 0, c, 1).ok());
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(c->num_inputs(), 2);
  EXPECT_EQ(c->ordered_data_inputs().size(), 2u);
}

TEST(GraphTest, DuplicateNameRejected) {
  Graph g;
  MustAdd(&g, ConstDef("x", Tensor::Scalar(1.0f)));
  Result<Node*> dup = g.AddNode(ConstDef("x", Tensor::Scalar(2.0f)));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), Code::kAlreadyExists);
}

TEST(GraphTest, TypeMismatchRejected) {
  Graph g;
  Node* f = MustAdd(&g, ConstDef("f", Tensor::Scalar(1.0f)));
  NodeDef add;
  add.name = "addi";
  add.op = "Add";
  add.attrs["T"] = AttrValue(DataType::kInt32);
  Node* c = MustAdd(&g, std::move(add));
  EXPECT_FALSE(g.AddEdge(f, 0, c, 0).ok());
}

TEST(GraphTest, DoubleConnectInputRejected) {
  Graph g;
  Node* a = MustAdd(&g, ConstDef("a", Tensor::Scalar(1.0f)));
  NodeDef id;
  id.name = "id";
  id.op = "Identity";
  id.attrs["T"] = AttrValue(DataType::kFloat);
  Node* i = MustAdd(&g, std::move(id));
  ASSERT_TRUE(g.AddEdge(a, 0, i, 0).ok());
  EXPECT_FALSE(g.AddEdge(a, 0, i, 0).ok());
}

TEST(GraphTest, ControlEdgeDedup) {
  Graph g;
  Node* a = MustAdd(&g, ConstDef("a", Tensor::Scalar(1.0f)));
  Node* b = MustAdd(&g, ConstDef("b", Tensor::Scalar(1.0f)));
  const Edge* e1 = g.AddControlEdge(a, b);
  const Edge* e2 = g.AddControlEdge(a, b);
  EXPECT_EQ(e1, e2);
  EXPECT_TRUE(e1->IsControlEdge());
}

TEST(GraphTest, RemoveNodeCleansEdges) {
  Graph g;
  Node* a = MustAdd(&g, ConstDef("a", Tensor::Scalar(1.0f)));
  NodeDef id;
  id.name = "id";
  id.op = "Identity";
  id.attrs["T"] = AttrValue(DataType::kFloat);
  Node* i = MustAdd(&g, std::move(id));
  ASSERT_TRUE(g.AddEdge(a, 0, i, 0).ok());
  g.RemoveNode(i);
  EXPECT_EQ(g.num_nodes(), 1);
  EXPECT_TRUE(a->out_edges().empty());
  EXPECT_EQ(g.FindNode("id"), nullptr);
}

TEST(GraphTest, TopologicalOrder) {
  Graph g;
  Node* a = MustAdd(&g, ConstDef("a", Tensor::Scalar(1.0f)));
  Node* b = MustAdd(&g, ConstDef("b", Tensor::Scalar(2.0f)));
  NodeDef add;
  add.name = "add";
  add.op = "Add";
  add.attrs["T"] = AttrValue(DataType::kFloat);
  Node* c = MustAdd(&g, std::move(add));
  TF_CHECK_OK(g.AddEdge(a, 0, c, 0).status());
  TF_CHECK_OK(g.AddEdge(b, 0, c, 1).status());
  Result<std::vector<Node*>> order = g.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  ASSERT_EQ(order.value().size(), 3u);
  EXPECT_EQ(order.value()[2], c);
}

TEST(GraphTest, CloneCopiesStructure) {
  Graph g;
  Node* a = MustAdd(&g, ConstDef("a", Tensor::Scalar(1.0f)));
  NodeDef id;
  id.name = "id";
  id.op = "Identity";
  id.attrs["T"] = AttrValue(DataType::kFloat);
  Node* i = MustAdd(&g, std::move(id));
  TF_CHECK_OK(g.AddEdge(a, 0, i, 0).status());
  g.AddControlEdge(a, i);
  std::map<const Node*, Node*> node_map;
  std::unique_ptr<Graph> copy = g.Clone(&node_map);
  EXPECT_EQ(copy->num_nodes(), 2);
  Node* ci = copy->FindNode("id");
  ASSERT_NE(ci, nullptr);
  EXPECT_EQ(ci->in_edges().size(), 2u);  // data + control
  EXPECT_EQ(node_map[i], ci);
}

TEST(GraphBuilderTest, FluentConstruction) {
  Graph g;
  GraphBuilder b(&g);
  Output c1 = b.Op("Const")
                  .Attr("dtype", DataType::kFloat)
                  .Attr("value", Tensor::Scalar(3.0f))
                  .Finalize();
  Output c2 = b.Op("Const")
                  .Attr("dtype", DataType::kFloat)
                  .Attr("value", Tensor::Scalar(4.0f))
                  .Finalize();
  Output sum = b.Op("Add")
                   .Input(c1)
                   .Input(c2)
                   .Attr("T", DataType::kFloat)
                   .Finalize();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_TRUE(sum.valid());
  EXPECT_EQ(sum.dtype(), DataType::kFloat);
  EXPECT_EQ(g.num_nodes(), 3);
}

TEST(GraphBuilderTest, StickyError) {
  Graph g;
  GraphBuilder b(&g);
  Output bad = b.Op("NoSuchOp").Finalize();
  EXPECT_FALSE(bad.valid());
  EXPECT_FALSE(b.ok());
  // Subsequent construction is skipped without crashing.
  Output c = b.Op("Const")
                 .Attr("dtype", DataType::kFloat)
                 .Attr("value", Tensor::Scalar(1.0f))
                 .Finalize();
  EXPECT_FALSE(c.valid());
}

TEST(GraphBuilderTest, DeviceScope) {
  Graph g;
  GraphBuilder b(&g);
  Output c1;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    c1 = b.Op("Const")
             .Attr("dtype", DataType::kFloat)
             .Attr("value", Tensor::Scalar(1.0f))
             .Finalize();
  }
  Output c2 = b.Op("Const")
                  .Attr("dtype", DataType::kFloat)
                  .Attr("value", Tensor::Scalar(2.0f))
                  .Finalize();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(c1.node->requested_device(), "/job:ps/task:0");
  EXPECT_EQ(c2.node->requested_device(), "");
}

TEST(ParseInputNameTest, Forms) {
  std::string name;
  int port;
  ParseInputName("foo", &name, &port);
  EXPECT_EQ(name, "foo");
  EXPECT_EQ(port, 0);
  ParseInputName("foo:3", &name, &port);
  EXPECT_EQ(name, "foo");
  EXPECT_EQ(port, 3);
  ParseInputName("^bar", &name, &port);
  EXPECT_EQ(name, "bar");
  EXPECT_EQ(port, kControlSlot);
}

TEST(GraphTest, RefOutputFeedsValueInput) {
  Graph g;
  NodeDef var;
  var.name = "v";
  var.op = "Variable";
  var.attrs["dtype"] = AttrValue(DataType::kFloat);
  var.attrs["shape"] = AttrValue(TensorShape({2}));
  Node* v = MustAdd(&g, std::move(var));
  NodeDef id;
  id.name = "read";
  id.op = "Identity";
  id.attrs["T"] = AttrValue(DataType::kFloat);
  Node* r = MustAdd(&g, std::move(id));
  // Implicit deref: ref output feeding a value input is allowed.
  EXPECT_TRUE(g.AddEdge(v, 0, r, 0).ok());
}

TEST(GraphTest, ValueOutputCannotFeedRefInput) {
  Graph g;
  Node* c = MustAdd(&g, ConstDef("c", Tensor::Scalar(1.0f)));
  NodeDef assign;
  assign.name = "assign";
  assign.op = "Assign";
  assign.attrs["T"] = AttrValue(DataType::kFloat);
  Node* a = MustAdd(&g, std::move(assign));
  EXPECT_FALSE(g.AddEdge(c, 0, a, 0).ok());  // ref slot
  EXPECT_TRUE(g.AddEdge(c, 0, a, 1).ok());   // value slot
}

// One node carrying an attr of every AttrValue::Kind (the Const's own dtype
// and value are the kType and kTensor ones) with requested and assigned
// devices, then a data edge and a control edge.
void BuildEveryAttrKindGraph(Graph* g) {
  NodeDef c = ConstDef(
      "c", Tensor::FromVector<float>({1.5f, -2.0f}, TensorShape({2})));
  c.device = "/job:ps/task:0";
  c.attrs["none"] = AttrValue();
  c.attrs["int"] = AttrValue(int64_t{-7});
  c.attrs["float"] = AttrValue(0.25f);
  c.attrs["bool"] = AttrValue(true);
  c.attrs["string"] = AttrValue("s");
  c.attrs["shape"] = AttrValue(TensorShape({2, 3}));
  c.attrs["int_list"] = AttrValue(std::vector<int64_t>{1, -2});
  c.attrs["float_list"] = AttrValue(std::vector<float>{0.5f});
  c.attrs["string_list"] =
      AttrValue(std::vector<std::string>{"x", std::string("a\0b", 3)});
  c.attrs["type_list"] =
      AttrValue(DataTypeVector{DataType::kFloat, DataType::kInt32});
  c.attrs["shape_list"] =
      AttrValue(std::vector<TensorShape>{TensorShape(), TensorShape({4})});
  Node* cn = MustAdd(g, std::move(c));
  cn->set_assigned_device("/job:ps/task:0/device:CPU:0");
  NodeDef neg;
  neg.name = "neg";
  neg.op = "Neg";
  neg.attrs["T"] = AttrValue(DataType::kFloat);
  Node* nn = MustAdd(g, std::move(neg));
  NodeDef done;
  done.name = "done";
  done.op = "NoOp";
  Node* dn = MustAdd(g, std::move(done));
  TF_CHECK_OK(g->AddEdge(cn, 0, nn, 0).status());
  g->AddControlEdge(nn, dn);
}

TEST(GraphIoTest, EveryAttrKindAndEdgeRoundTrips) {
  Graph g;
  BuildEveryAttrKindGraph(&g);
  std::string bytes;
  AppendGraphToBytes(g, &bytes);
  // Pinned to the bytes of an earlier build (DESIGN.md §2.1).
  EXPECT_EQ(Hex(bytes),
            "03000000000000000100000000000000630500000000000000436f6e73740e00"
            "0000000000002f6a6f623a70732f7461736b3a301b000000000000002f6a6f62"
            "3a70732f7461736b3a302f6465766963653a4350553a300d0000000000000004"
            "00000000000000626f6f6c030000000000000001000000000000000500000000"
            "0000006474797065050000000000000001000000000000000500000000000000"
            "666c6f617402000000000000000000803e0a00000000000000666c6f61745f6c"
            "697374090000000000000001000000000000000000003f030000000000000069"
            "6e740100000000000000f9ffffffffffffff0800000000000000696e745f6c69"
            "7374080000000000000002000000000000000100000000000000feffffffffff"
            "ffff04000000000000006e6f6e65000000000000000005000000000000007368"
            "6170650600000000000000020000000000000002000000000000000300000000"
            "0000000a0000000000000073686170655f6c6973740c00000000000000020000"
            "0000000000000000000000000001000000000000000400000000000000060000"
            "0000000000737472696e6704000000000000000100000000000000730b000000"
            "00000000737472696e675f6c6973740a00000000000000020000000000000001"
            "000000000000007803000000000000006100620900000000000000747970655f"
            "6c6973740b000000000000000200000000000000010000000000000003000000"
            "00000000050000000000000076616c7565070000000000000001000000000000"
            "00010000000000000002000000000000000000c03f000000c003000000000000"
            "006e656703000000000000004e65670000000000000000000000000000000001"
            "0000000000000001000000000000005405000000000000000100000000000000"
            "0400000000000000646f6e6504000000000000004e6f4f700000000000000000"
            "0000000000000000000000000000000002000000000000000000000000000000"
            "0000000000000000010000000000000000000000000000000100000000000000"
            "ffffffffffffffff0200000000000000ffffffffffffffff");
  size_t offset = 0;
  Result<std::unique_ptr<Graph>> parsed = ParseGraphFromBytes(bytes, &offset);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(offset, bytes.size());
  const Graph& p = *parsed.value();

  const Node* c = p.FindNode("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->requested_device(), "/job:ps/task:0");
  EXPECT_EQ(c->assigned_device(), "/job:ps/task:0/device:CPU:0");
  const AttrMap& want = g.FindNode("c")->attrs();
  ASSERT_EQ(c->attrs().size(), want.size());
  for (const auto& [name, attr] : want) {
    ASSERT_EQ(c->attrs().count(name), 1u) << name;
    EXPECT_EQ(c->attrs().at(name).kind(), attr.kind()) << name;
    EXPECT_EQ(c->attrs().at(name).DebugString(), attr.DebugString()) << name;
  }
  EXPECT_EQ(c->attrs().at("string_list").string_list()[1],
            std::string("a\0b", 3));
  EXPECT_EQ(c->attrs().at("value").tensor().flat<float>(1), -2.0f);

  const Node* neg = p.FindNode("neg");
  const Node* done = p.FindNode("done");
  ASSERT_NE(neg, nullptr);
  ASSERT_NE(done, nullptr);
  Result<const Edge*> data = neg->input_edge(0);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data.value()->src, c);
  ASSERT_EQ(done->in_edges().size(), 1u);
  EXPECT_TRUE(done->in_edges()[0]->IsControlEdge());
  EXPECT_EQ(done->in_edges()[0]->src, neg);

  // Node order, attrs and edges survive exactly: re-encoding is identical.
  std::string again;
  AppendGraphToBytes(p, &again);
  EXPECT_EQ(again, bytes);

  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    size_t off = 0;
    EXPECT_FALSE(ParseGraphFromBytes(bytes.substr(0, cut), &off).ok())
        << "cut at " << cut;
  }
}

// A count with nothing behind it is DataLoss before it sizes anything.
TEST(GraphIoTest, ListAttrCountBeyondInputIsDataLoss) {
  for (AttrValue::Kind kind :
       {AttrValue::Kind::kIntList, AttrValue::Kind::kFloatList,
        AttrValue::Kind::kStringList, AttrValue::Kind::kTypeList,
        AttrValue::Kind::kShapeList}) {
    std::string bytes;
    AppendInt64(&bytes, static_cast<int64_t>(kind));
    AppendInt64(&bytes, int64_t{1} << 40);
    size_t offset = 0;
    Result<AttrValue> attr = ParseAttrValueFromBytes(bytes, &offset);
    ASSERT_FALSE(attr.ok()) << AttrKindName(kind);
    EXPECT_EQ(attr.status().code(), Code::kDataLoss) << AttrKindName(kind);
  }
}

TEST(GraphIoTest, NodeCountBeyondInputIsDataLoss) {
  std::string bytes;
  AppendInt64(&bytes, int64_t{1} << 40);
  size_t offset = 0;
  Result<std::unique_ptr<Graph>> graph = ParseGraphFromBytes(bytes, &offset);
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), Code::kDataLoss) << graph.status();
}

}  // namespace
}  // namespace tfrepro
