#include "runtime/partition.h"

#include <algorithm>
#include <vector>

#include "runtime/control_flow_info.h"

namespace tfrepro {

Result<std::map<std::string, std::unique_ptr<Graph>>> PartitionGraph(
    const Graph& graph) {
  // Documented limitation (DESIGN.md §6): a loop frame may not span device
  // boundaries — the per-iteration distributed state machines of §3.4 are
  // out of scope. Reject such graphs loudly instead of misexecuting them.
  ControlFlowInfo cf_info;
  TF_RETURN_IF_ERROR(BuildControlFlowInfo(graph, &cf_info));
  for (Node* node : graph.nodes()) {
    if (cf_info.frame_name[node->id()].empty()) continue;
    for (const Edge* e : node->out_edges()) {
      if (!cf_info.frame_name[e->dst->id()].empty() &&
          e->src->assigned_device() != e->dst->assigned_device()) {
        return Unimplemented(
            "loop frame '" + cf_info.frame_name[node->id()] +
            "' spans devices ('" + node->name() + "' on " +
            node->assigned_device() + ", '" + e->dst->name() + "' on " +
            e->dst->assigned_device() +
            "); place each loop on a single device");
      }
    }
  }

  std::map<std::string, std::unique_ptr<Graph>> parts;
  auto part_for = [&](const std::string& device) -> Graph* {
    auto it = parts.find(device);
    if (it == parts.end()) {
      it = parts.emplace(device, std::make_unique<Graph>(graph.registry()))
               .first;
    }
    return it->second.get();
  };

  // 1. Copy each node into its device's partition.
  std::map<const Node*, Node*> copies;
  for (Node* node : graph.nodes()) {
    if (node->assigned_device().empty()) {
      return FailedPrecondition("node '" + node->name() +
                                "' has no assigned device; run the placer "
                                "before partitioning");
    }
    Graph* part = part_for(node->assigned_device());
    NodeDef def = node->def();
    def.inputs.clear();
    def.device = node->assigned_device();
    Result<Node*> copy = part->AddNode(std::move(def));
    TF_RETURN_IF_ERROR(copy.status());
    copy.value()->set_assigned_device(node->assigned_device());
    copies[node] = copy.value();
  }

  // 2. Reconnect edges; cross-device data edges become Send/Recv pairs,
  // one Recv per (src node, src output, dst device). Cross-device control
  // edges are collected per (dst node, src device) for step 3.
  std::map<std::tuple<const Node*, int, std::string>, Node*> data_recvs;
  struct ControlInputs {
    Node* dst = nullptr;
    std::vector<const Node*> sources;
  };
  std::map<std::pair<int, std::string>, ControlInputs> ctrl_inputs;
  int64_t channel = 0;

  for (Node* src : graph.nodes()) {
    for (const Edge* e : src->out_edges()) {
      Node* dst = e->dst;
      const std::string& src_dev = src->assigned_device();
      const std::string& dst_dev = dst->assigned_device();
      Graph* src_part = part_for(src_dev);
      Graph* dst_part = part_for(dst_dev);

      if (src_dev == dst_dev) {
        if (e->IsControlEdge()) {
          dst_part->AddControlEdge(copies[src], copies[dst]);
        } else {
          TF_RETURN_IF_ERROR(dst_part
                                 ->AddEdge(copies[src], e->src_output,
                                           copies[dst], e->dst_input)
                                 .status());
        }
        continue;
      }

      if (e->IsControlEdge()) {
        ControlInputs& inputs = ctrl_inputs[{dst->id(), src_dev}];
        inputs.dst = dst;
        inputs.sources.push_back(src);
        continue;
      }

      // A value-typed consumer of a remote variable dereferences at the
      // Send (the paper's read-params path); only a *mutating* consumer
      // (ref-typed input) must be colocated, which the placer enforces.
      if (IsRefType(dst->input_type(e->dst_input))) {
        return InvalidArgument(
            "edge from '" + src->name() + "' to '" + dst->name() +
            "' carries a reference across devices; the placer should have "
            "colocated these nodes");
      }

      // Cross-device data edge.
      auto key = std::make_tuple(static_cast<const Node*>(src), e->src_output,
                                 dst_dev);
      Node* recv = nullptr;
      auto it = data_recvs.find(key);
      if (it != data_recvs.end()) {
        recv = it->second;
      } else {
        DataType dtype = BaseType(src->output_type(e->src_output));
        std::string tensor_name = "edge_" + src->name() + "_" +
                                  std::to_string(e->src_output) + "_" +
                                  std::to_string(channel++);
        NodeDef send_def;
        send_def.name = src_part->NewName("_send_" + tensor_name);
        send_def.op = "_Send";
        send_def.device = src_dev;
        send_def.attrs["T"] = AttrValue(dtype);
        send_def.attrs["tensor_name"] = AttrValue(tensor_name);
        send_def.attrs["send_device"] = AttrValue(src_dev);
        send_def.attrs["recv_device"] = AttrValue(dst_dev);
        Result<Node*> send = src_part->AddNode(std::move(send_def));
        TF_RETURN_IF_ERROR(send.status());
        send.value()->set_assigned_device(src_dev);
        TF_RETURN_IF_ERROR(
            src_part->AddEdge(copies[src], e->src_output, send.value(), 0)
                .status());

        NodeDef recv_def;
        recv_def.name = dst_part->NewName("_recv_" + tensor_name);
        recv_def.op = "_Recv";
        recv_def.device = dst_dev;
        recv_def.attrs["tensor_type"] = AttrValue(dtype);
        recv_def.attrs["tensor_name"] = AttrValue(tensor_name);
        recv_def.attrs["send_device"] = AttrValue(src_dev);
        recv_def.attrs["recv_device"] = AttrValue(dst_dev);
        Result<Node*> recv_r = dst_part->AddNode(std::move(recv_def));
        TF_RETURN_IF_ERROR(recv_r.status());
        recv_r.value()->set_assigned_device(dst_dev);
        recv = recv_r.value();
        data_recvs[key] = recv;
      }
      TF_RETURN_IF_ERROR(
          dst_part->AddEdge(recv, 0, copies[dst], e->dst_input).status());
    }
  }

  // 3. Cross-device control edges. All control edges from one source
  // device into one destination node ride a single token: a dummy scalar
  // Const on the source device, gated on every one of those sources, sent
  // once. Destinations on one device waiting on the same source set share
  // the token. Loop frames never span devices (checked above), so every
  // such edge is in the root frame and each destination still waits on
  // exactly the sources the graph names.
  std::map<std::pair<std::vector<int>, std::string>, Node*> ctrl_recvs;
  for (auto& [dst_and_src_dev, inputs] : ctrl_inputs) {
    const std::string& src_dev = dst_and_src_dev.second;
    const std::string& dst_dev = inputs.dst->assigned_device();
    std::vector<const Node*>& sources = inputs.sources;
    std::sort(sources.begin(), sources.end(),
              [](const Node* a, const Node* b) { return a->id() < b->id(); });
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
    std::vector<int> source_ids;
    for (const Node* src : sources) source_ids.push_back(src->id());

    Node*& recv = ctrl_recvs[{std::move(source_ids), dst_dev}];
    if (recv == nullptr) {
      Graph* src_part = part_for(src_dev);
      Graph* dst_part = part_for(dst_dev);
      std::string tensor_name =
          "ctrl_" + sources.front()->name() + "_" + std::to_string(channel++);
      NodeDef dummy_def;
      dummy_def.name = src_part->NewName("_ctrl_dummy");
      dummy_def.op = "Const";
      dummy_def.device = src_dev;
      dummy_def.attrs["dtype"] = AttrValue(DataType::kInt32);
      dummy_def.attrs["value"] = AttrValue(Tensor::Scalar(int32_t{0}));
      Result<Node*> dummy = src_part->AddNode(std::move(dummy_def));
      TF_RETURN_IF_ERROR(dummy.status());
      dummy.value()->set_assigned_device(src_dev);
      for (const Node* src : sources) {
        src_part->AddControlEdge(copies[src], dummy.value());
      }

      NodeDef send_def;
      send_def.name = src_part->NewName("_send_" + tensor_name);
      send_def.op = "_Send";
      send_def.device = src_dev;
      send_def.attrs["T"] = AttrValue(DataType::kInt32);
      send_def.attrs["tensor_name"] = AttrValue(tensor_name);
      send_def.attrs["send_device"] = AttrValue(src_dev);
      send_def.attrs["recv_device"] = AttrValue(dst_dev);
      Result<Node*> send = src_part->AddNode(std::move(send_def));
      TF_RETURN_IF_ERROR(send.status());
      send.value()->set_assigned_device(src_dev);
      TF_RETURN_IF_ERROR(
          src_part->AddEdge(dummy.value(), 0, send.value(), 0).status());

      NodeDef recv_def;
      recv_def.name = dst_part->NewName("_recv_" + tensor_name);
      recv_def.op = "_Recv";
      recv_def.device = dst_dev;
      recv_def.attrs["tensor_type"] = AttrValue(DataType::kInt32);
      recv_def.attrs["tensor_name"] = AttrValue(tensor_name);
      recv_def.attrs["send_device"] = AttrValue(src_dev);
      recv_def.attrs["recv_device"] = AttrValue(dst_dev);
      Result<Node*> recv_r = dst_part->AddNode(std::move(recv_def));
      TF_RETURN_IF_ERROR(recv_r.status());
      recv_r.value()->set_assigned_device(dst_dev);
      recv = recv_r.value();
    }
    part_for(dst_dev)->AddControlEdge(recv, copies[inputs.dst]);
  }

  return parts;
}

}  // namespace tfrepro
