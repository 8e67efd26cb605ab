#include "runtime/graph_optimizer.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "graph/subgraph.h"
#include "kernels/elementwise_functors.h"
#include "runtime/kernel.h"

namespace tfrepro {

namespace {

// True if this node is eligible for CSE / folding at all.
bool IsOptimizable(const Node* node) {
  if (node->IsStateful() || node->IsControlFlow()) return false;
  // Runtime-inserted ops (_Feed/_Fetch/_Send/_Recv) are pinned to their
  // role; _FusedElementwise is the optimizer's own node and stays
  // optimizable so later rounds can CSE/fold it further.
  if (node->op()[0] == '_' && node->op() != "_FusedElementwise") return false;
  // Source nodes other than Const (Placeholder, ...) stand for externally
  // supplied values: two with identical attrs are NOT interchangeable.
  if (node->num_inputs() == 0 && !node->IsConstant()) return false;
  for (int i = 0; i < node->num_outputs(); ++i) {
    if (IsRefType(node->output_type(i))) return false;
  }
  return true;
}

std::string NodeSignature(const Node* node) {
  std::ostringstream os;
  os << node->op() << "|" << node->requested_device() << "|"
     << node->assigned_device() << "|";
  for (const auto& [name, value] : node->attrs()) {
    if (value.kind() == AttrValue::Kind::kTensor) {
      // DebugString() truncates tensor content; two different Consts that
      // agree on dtype/shape and the printed prefix must not CSE-merge, so
      // hash the exact bytes instead.
      std::string bytes;
      value.tensor().AppendToBytes(&bytes);
      os << name << "=tensor[" << bytes.size() << "]:" << bytes << ";";
    } else {
      os << name << "=" << value.DebugString() << ";";
    }
  }
  os << "|";
  for (const Edge* e : node->ordered_data_inputs()) {
    os << e->src->id() << ":" << e->src_output << ",";
  }
  os << "|";
  // Control inputs, sorted.
  std::vector<int> controls;
  for (const Edge* e : node->in_edges()) {
    if (e->IsControlEdge()) controls.push_back(e->src->id());
  }
  std::sort(controls.begin(), controls.end());
  for (int c : controls) os << c << ",";
  return os.str();
}

// Redirects every out edge of `from` to come from `to` instead, then
// removes `from`.
Status ReplaceNode(Graph* graph, Node* from, Node* to) {
  std::vector<const Edge*> out_edges(from->out_edges().begin(),
                                     from->out_edges().end());
  for (const Edge* e : out_edges) {
    if (e->IsControlEdge()) {
      graph->AddControlEdge(to, e->dst);
      graph->RemoveEdge(e);
    } else {
      Node* dst = e->dst;
      int src_output = e->src_output;
      int dst_input = e->dst_input;
      graph->RemoveEdge(e);
      TF_RETURN_IF_ERROR(
          graph->AddEdge(to, src_output, dst, dst_input).status());
    }
  }
  graph->RemoveNode(from);
  return Status::OK();
}

// Preserve entries may be written as "node" or "node:port" (Run fetches and
// Output::name() carry ports); passes match on node names, so strip them.
std::set<std::string> StripPorts(const std::set<std::string>& names) {
  std::set<std::string> stripped;
  for (const std::string& n : names) {
    stripped.insert(n.substr(0, n.find(':')));
  }
  return stripped;
}

}  // namespace

int EliminateCommonSubexpressions(Graph* graph,
                                  const std::set<std::string>& preserve_in) {
  const std::set<std::string> preserve = StripPorts(preserve_in);
  int removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<std::string, Node*> canonical;
    Result<std::vector<Node*>> order = graph->TopologicalOrder();
    if (!order.ok()) return removed;
    for (Node* node : order.value()) {
      if (!IsOptimizable(node)) continue;
      std::string sig = NodeSignature(node);
      auto [it, inserted] = canonical.emplace(sig, node);
      if (!inserted && it->second != node) {
        if (preserve.count(node->name()) != 0) continue;
        if (ReplaceNode(graph, node, it->second).ok()) {
          ++removed;
          changed = true;
        }
      }
    }
  }
  return removed;
}

int ElideIdentityNodes(Graph* graph,
                       const std::set<std::string>& preserve_in) {
  const std::set<std::string> preserve = StripPorts(preserve_in);
  int removed = 0;
  for (Node* node : graph->nodes()) {
    if (!node->IsOp("Identity") && !node->IsOp("StopGradient")) continue;
    if (preserve.count(node->name()) != 0) continue;
    bool has_control = false;
    for (const Edge* e : node->in_edges()) {
      if (e->IsControlEdge()) has_control = true;
    }
    for (const Edge* e : node->out_edges()) {
      if (e->IsControlEdge()) has_control = true;
    }
    if (has_control) continue;
    Result<const Edge*> in = node->input_edge(0);
    if (!in.ok()) continue;
    Node* src = in.value()->src;
    int src_output = in.value()->src_output;
    // An Identity read of a ref output snapshots the variable; keep it.
    if (IsRefType(src->output_type(src_output))) continue;
    std::vector<const Edge*> outs(node->out_edges().begin(),
                                  node->out_edges().end());
    bool ok = true;
    for (const Edge* e : outs) {
      Node* dst = e->dst;
      int dst_input = e->dst_input;
      graph->RemoveEdge(e);
      if (!graph->AddEdge(src, src_output, dst, dst_input).ok()) {
        ok = false;
        break;
      }
    }
    if (!ok) return removed;
    graph->RemoveNode(node);
    ++removed;
  }
  return removed;
}

namespace {

// Evaluates one node whose data inputs are all constants; returns the
// output tensors.
Result<std::vector<Tensor>> EvaluateNode(Node* node,
                                         const std::vector<Tensor>& inputs,
                                         Device* device) {
  Result<std::unique_ptr<OpKernel>> kernel =
      KernelRegistry::Global()->CreateKernel(*node, device);
  TF_RETURN_IF_ERROR(kernel.status());
  if (kernel.value()->IsAsync()) {
    return Unimplemented("async kernels are not folded");
  }
  std::vector<TensorValue> in_values;
  in_values.reserve(inputs.size());
  for (const Tensor& t : inputs) {
    TensorValue v;
    v.tensor = t;
    in_values.push_back(v);
  }
  OpKernelContext::Params params;
  params.device = device;
  OpKernelContext ctx(params, std::move(in_values), node->num_outputs());
  kernel.value()->Compute(&ctx);
  TF_RETURN_IF_ERROR(ctx.status());
  std::vector<Tensor> outputs;
  for (int i = 0; i < node->num_outputs(); ++i) {
    if (!ctx.output_set(i)) {
      return Internal("folded node left an output unset");
    }
    outputs.push_back(ctx.output(i).tensor);
  }
  return outputs;
}

}  // namespace

Result<int> FoldConstants(Graph* graph, Device* device,
                          const std::set<std::string>& preserve_in) {
  const std::set<std::string> preserve = StripPorts(preserve_in);
  int folded = 0;
  Result<std::vector<Node*>> order = graph->TopologicalOrder();
  TF_RETURN_IF_ERROR(order.status());
  for (Node* node : order.value()) {
    if (!IsOptimizable(node) || node->IsConstant()) continue;
    if (preserve.count(node->name()) != 0) continue;
    if (node->num_inputs() == 0) continue;  // placeholders etc.
    bool all_const = true;
    bool has_control = false;
    for (const Edge* e : node->in_edges()) {
      if (e->IsControlEdge()) {
        has_control = true;
      } else if (!e->src->IsConstant()) {
        all_const = false;
      }
    }
    if (!all_const || has_control) continue;
    // No consumer may need this node as a ref; checked in IsOptimizable.
    std::vector<Tensor> inputs(node->num_inputs());
    for (const Edge* e : node->ordered_data_inputs()) {
      inputs[e->dst_input] = e->src->GetAttr("value").tensor();
    }
    Result<std::vector<Tensor>> outputs = EvaluateNode(node, inputs, device);
    if (!outputs.ok()) continue;  // leave unfoldable nodes in place

    // Replace each consumed output with a Const node.
    std::vector<const Edge*> out_edges(node->out_edges().begin(),
                                       node->out_edges().end());
    std::map<int, Node*> const_for_output;
    bool ok = true;
    for (const Edge* e : out_edges) {
      if (e->IsControlEdge()) continue;
      Node*& cnode = const_for_output[e->src_output];
      if (cnode == nullptr) {
        NodeDef def;
        def.name = graph->NewName(node->name() + "_folded");
        def.op = "Const";
        def.device = node->requested_device();
        def.attrs["dtype"] =
            AttrValue(BaseType(node->output_type(e->src_output)));
        def.attrs["value"] = AttrValue(outputs.value()[e->src_output]);
        Result<Node*> added = graph->AddNode(std::move(def));
        if (!added.ok()) {
          ok = false;
          break;
        }
        added.value()->set_assigned_device(node->assigned_device());
        cnode = added.value();
      }
      Node* dst = e->dst;
      int dst_input = e->dst_input;
      graph->RemoveEdge(e);
      if (!graph->AddEdge(cnode, 0, dst, dst_input).ok()) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      return Internal("constant folding failed to rewire graph");
    }
    // Forward remaining control out-edges directly from this node's const
    // replacements is unnecessary: constants have no side effects, so the
    // control edges can be dropped with the node (its inputs are constants
    // too). If the node still has control out-edges, keep it alive.
    bool has_control_consumer = false;
    for (const Edge* e : node->out_edges()) {
      if (e->IsControlEdge()) has_control_consumer = true;
    }
    if (!has_control_consumer) {
      graph->RemoveNode(node);
      ++folded;
    }
  }
  return folded;
}

namespace {

bool IsFusableDtype(DataType dt) {
  switch (BaseType(dt)) {
    case DataType::kFloat:
    case DataType::kDouble:
    case DataType::kInt32:
    case DataType::kInt64:
    case DataType::kUint8:
      return true;
    default:
      return false;
  }
}

// Replaces `chain` (execution-ordered element-wise nodes, each interior
// member feeding exactly the next) with one _FusedElementwise node carrying
// the recipe attrs (see kernels/fused_ops.cc for the encoding).
Status BuildFusedNode(Graph* graph, const std::vector<Node*>& chain) {
  Node* head = chain.front();
  Node* tail = chain.back();
  std::vector<std::pair<Node*, int>> ext;  // external inputs (src, port)
  std::vector<std::string> op_names;
  std::vector<int64_t> chain_lhs;
  Node* prev = nullptr;
  for (Node* n : chain) {
    op_names.push_back(n->op());
    if (n == head) {
      // All of the head's inputs are external; the first seeds the
      // accumulator, so the head step is always accumulator-on-the-left.
      for (const Edge* e : n->ordered_data_inputs()) {
        ext.emplace_back(e->src, e->src_output);
      }
      chain_lhs.push_back(1);
    } else if (BinaryEwiseFromOp(n->op()) != BinaryEwise::kInvalid) {
      Result<const Edge*> e0 = n->input_edge(0);
      Result<const Edge*> e1 = n->input_edge(1);
      TF_RETURN_IF_ERROR(e0.status());
      TF_RETURN_IF_ERROR(e1.status());
      // `prev` has exactly one data consumer, so it feeds exactly one slot.
      const bool acc_is_lhs = e0.value()->src == prev;
      const Edge* other = acc_is_lhs ? e1.value() : e0.value();
      ext.emplace_back(other->src, other->src_output);
      chain_lhs.push_back(acc_is_lhs ? 1 : 0);
    } else {
      chain_lhs.push_back(1);
    }
    prev = n;
  }

  NodeDef def;
  def.name = graph->NewName(head->name() + "_fused");
  def.op = "_FusedElementwise";
  def.device = head->requested_device();
  def.attrs["N"] = AttrValue(static_cast<int64_t>(ext.size()));
  def.attrs["T"] = AttrValue(BaseType(head->output_type(0)));
  def.attrs["ops"] = AttrValue(op_names);
  def.attrs["chain_lhs"] = AttrValue(chain_lhs);
  Result<Node*> fused_r = graph->AddNode(std::move(def));
  TF_RETURN_IF_ERROR(fused_r.status());
  Node* fused = fused_r.value();
  fused->set_assigned_device(head->assigned_device());
  for (size_t i = 0; i < ext.size(); ++i) {
    TF_RETURN_IF_ERROR(graph
                           ->AddEdge(ext[i].first, ext[i].second, fused,
                                     static_cast<int>(i))
                           .status());
  }
  std::vector<const Edge*> outs(tail->out_edges().begin(),
                                tail->out_edges().end());
  for (const Edge* e : outs) {
    Node* dst = e->dst;
    int dst_input = e->dst_input;
    graph->RemoveEdge(e);
    TF_RETURN_IF_ERROR(graph->AddEdge(fused, 0, dst, dst_input).status());
  }
  for (Node* n : chain) graph->RemoveNode(n);
  return Status::OK();
}

}  // namespace

Result<int> FuseElementwiseChains(Graph* graph,
                                  const std::set<std::string>& preserve_in,
                                  bool skip_const_computable) {
  const std::set<std::string> preserve = StripPorts(preserve_in);
  Result<std::vector<Node*>> order_r = graph->TopologicalOrder();
  TF_RETURN_IF_ERROR(order_r.status());
  const std::vector<Node*>& order = order_r.value();

  // Nodes the folding pass will consume (transitively constant): burying
  // them inside a fused node would hide fold candidates, so leave them out
  // when folding is enabled (the pass-ordering fix; see DESIGN.md §13).
  std::set<const Node*> constish;
  if (skip_const_computable) {
    for (Node* n : order) {
      if (n->IsConstant()) {
        constish.insert(n);
        continue;
      }
      if (!IsOptimizable(n) || preserve.count(n->name()) != 0 ||
          n->num_inputs() == 0) {
        continue;
      }
      bool all_const = true;
      bool has_control = false;
      for (const Edge* e : n->in_edges()) {
        if (e->IsControlEdge()) {
          has_control = true;
        } else if (constish.count(e->src) == 0) {
          all_const = false;
        }
      }
      if (all_const && !has_control) constish.insert(n);
    }
  }

  auto fusible = [&](const Node* n) {
    if (UnaryEwiseFromOp(n->op()) == UnaryEwise::kInvalid &&
        BinaryEwiseFromOp(n->op()) == BinaryEwise::kInvalid) {
      return false;
    }
    if (preserve.count(n->name()) != 0) return false;
    if (constish.count(n) != 0) return false;
    const DataType t = BaseType(n->output_type(0));
    if (!IsFusableDtype(t)) return false;
    for (const Edge* e : n->in_edges()) {
      if (e->IsControlEdge()) return false;  // ordering must survive
      const DataType it = e->src->output_type(e->src_output);
      // Ref reads (variables) keep their own dispatch: the standalone
      // kernel snapshots the variable at its own execution point, and
      // grouping reads would move that point.
      if (IsRefType(it)) return false;
      if (BaseType(it) != t) return false;
    }
    for (const Edge* e : n->out_edges()) {
      if (e->IsControlEdge()) return false;
    }
    return true;
  };

  std::set<const Node*> claimed;
  int fused_chains = 0;
  for (Node* start : order) {
    if (claimed.count(start) != 0 || !fusible(start)) continue;
    std::vector<Node*> chain{start};
    Node* tail = start;
    while (true) {
      // Interior members must have exactly one data consumer: the next
      // chain member. Multi-consumer nodes can only terminate a chain.
      const Edge* out = nullptr;
      int data_out = 0;
      for (const Edge* e : tail->out_edges()) {
        if (!e->IsControlEdge()) {
          out = e;
          ++data_out;
        }
      }
      if (data_out != 1) break;
      Node* next = out->dst;
      if (claimed.count(next) != 0 || !fusible(next)) break;
      // Chains never span devices.
      if (next->requested_device() != start->requested_device() ||
          next->assigned_device() != start->assigned_device() ||
          BaseType(next->output_type(0)) !=
              BaseType(start->output_type(0))) {
        break;
      }
      chain.push_back(next);
      tail = next;
    }
    if (chain.size() < 2) continue;
    for (Node* n : chain) claimed.insert(n);
    TF_RETURN_IF_ERROR(BuildFusedNode(graph, chain));
    ++fused_chains;
  }
  return fused_chains;
}

int RemoveDeadNodes(Graph* graph, const std::set<std::string>& preserve_in) {
  const std::set<std::string> preserve = StripPorts(preserve_in);
  std::vector<Node*> roots;
  for (Node* n : graph->nodes()) {
    // Ref-input consumers (Assign, AssignAdd, ScatterAdd, ...) mutate a
    // variable in place: a side effect, even though the op itself is not
    // registered stateful.
    bool mutates_state = false;
    for (const Edge* e : n->in_edges()) {
      if (!e->IsControlEdge() &&
          IsRefType(e->src->output_type(e->src_output))) {
        mutates_state = true;
        break;
      }
    }
    if (n->IsStateful() || n->IsControlFlow() || mutates_state ||
        (n->op()[0] == '_' && n->op() != "_FusedElementwise") ||
        preserve.count(n->name()) != 0) {
      roots.push_back(n);
    }
  }
  // A graph with no roots at all is a bare expression graph (unit tests,
  // ad-hoc callers); erasing it wholesale would never be what they meant.
  if (roots.empty()) return 0;
  const int before = graph->num_nodes();
  PruneForReverseReachability(graph, std::move(roots));
  return before - graph->num_nodes();
}

namespace {

// TFREPRO_OPTIMIZER=off|0|false|disabled kill-switch: lets a user bisect a
// suspected mis-optimization without touching code.
bool OptimizerDisabledByEnv() {
  const char* v = std::getenv("TFREPRO_OPTIMIZER");
  if (v == nullptr) return false;
  const std::string s(v);
  return s == "off" || s == "0" || s == "false" || s == "disabled";
}

}  // namespace

Status OptimizeGraph(Graph* graph, Device* device,
                     const OptimizerOptions& options) {
  if (!options.enable || OptimizerDisabledByEnv()) return Status::OK();
  ElideIdentityNodes(graph, options.preserve);
  // CSE -> fusion -> folding to a fixed point: folding a fused chain's
  // const inputs (or CSE-merging folded consts) exposes new fusion and
  // merge candidates for the next round.
  const int rounds = std::max(1, options.max_folding_passes);
  for (int round = 0; round < rounds; ++round) {
    int changed = 0;
    if (options.do_cse) {
      changed += EliminateCommonSubexpressions(graph, options.preserve);
    }
    Result<int> fused = FuseElementwiseChains(
        graph, options.preserve,
        /*skip_const_computable=*/options.do_constant_folding);
    TF_RETURN_IF_ERROR(fused.status());
    changed += fused.value();
    if (options.do_constant_folding) {
      Result<int> folded = FoldConstants(graph, device, options.preserve);
      TF_RETURN_IF_ERROR(folded.status());
      changed += folded.value();
    }
    if (changed == 0) break;
  }
  RemoveDeadNodes(graph, options.preserve);
  return Status::OK();
}

}  // namespace tfrepro
