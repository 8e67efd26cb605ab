#include "runtime/placer.h"

#include <algorithm>
#include <map>
#include <numeric>

namespace tfrepro {

namespace {

// Union-find over node ids.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

Status PlaceGraph(Graph* graph, const std::vector<Device*>& devices,
                  Device* default_device) {
  return PlaceGraph(graph, devices, PlacerOptions(), default_device);
}

Status PlaceGraph(Graph* graph, const std::vector<Device*>& devices,
                  const PlacerOptions& options, Device* default_device) {
  if (devices.empty()) {
    return InvalidArgument("no devices to place onto");
  }
  if (default_device == nullptr) {
    default_device = devices.front();
  }

  // 1. Colocation groups: endpoints of reference edges must share a device
  // (implicit constraint from stateful operations, §3.3).
  UnionFind groups(graph->num_node_ids());
  for (Node* node : graph->nodes()) {
    for (const Edge* e : node->in_edges()) {
      if (e->IsControlEdge()) continue;
      if (IsRefType(node->input_type(e->dst_input))) {
        groups.Union(e->src->id(), node->id());
      }
    }
  }

  // 2. Merge the requested constraints of each group.
  std::map<int, DeviceName> group_spec;
  for (Node* node : graph->nodes()) {
    int g = groups.Find(node->id());
    DeviceName& spec = group_spec[g];  // default-constructed: unconstrained
    if (!node->requested_device().empty()) {
      Result<DeviceName> parsed = DeviceName::Parse(node->requested_device());
      if (!parsed.ok()) {
        return Status(parsed.status())
            .Prepend("device for node '" + node->name() + "'");
      }
      Status merged = spec.MergeFrom(parsed.value());
      if (!merged.ok()) {
        return merged.Prepend(
            "colocation group of node '" + node->name() +
            "' has incompatible device constraints");
      }
    }
  }

  // 2b. Group weights, used only when balancing. kArity weighs a node at
  // 1; kObservedCost asks the profile callback and falls back to 1 µs for
  // unobserved nodes.
  std::map<int, double> group_cost;
  if (options.balance != PlacerOptions::Balance::kNone) {
    for (Node* node : graph->nodes()) {
      double cost = 1.0;
      if (options.balance == PlacerOptions::Balance::kObservedCost &&
          options.node_cost) {
        const double observed = options.node_cost(*node);
        if (observed > 0.0) cost = observed;
      }
      group_cost[groups.Find(node->id())] += cost;
    }
  }

  // 3. Pick a satisfying device per group. Constrained groups always go to
  // the first matching device; unconstrained groups go to the default
  // device (kNone) or are balanced greedily across all devices.
  std::map<int, Device*> group_device;
  std::map<Device*, double> device_load;
  std::vector<int> unconstrained;
  for (const auto& [g, spec] : group_spec) {
    if (!spec.has_job && !spec.has_task && !spec.has_type && !spec.has_id) {
      if (options.balance == PlacerOptions::Balance::kNone) {
        group_device[g] = default_device;
      } else {
        unconstrained.push_back(g);
      }
      continue;
    }
    Device* chosen = nullptr;
    for (Device* d : devices) {
      if (d->parsed_name().Matches(spec)) {
        chosen = d;
        break;
      }
    }
    if (chosen == nullptr) {
      return InvalidArgument("no device matches constraint '" +
                             spec.ToString() + "'");
    }
    group_device[g] = chosen;
    device_load[chosen] += group_cost[g];
  }

  // 3b. Balanced assignment: heaviest group first onto the least-loaded
  // device. Ties on weight break by smallest group id and ties on load by
  // device order, so the result is deterministic.
  std::sort(unconstrained.begin(), unconstrained.end(),
            [&group_cost](int a, int b) {
              if (group_cost[a] != group_cost[b]) {
                return group_cost[a] > group_cost[b];
              }
              return a < b;
            });
  for (int g : unconstrained) {
    Device* chosen = devices.front();
    for (Device* d : devices) {
      if (device_load[d] < device_load[chosen]) chosen = d;
    }
    group_device[g] = chosen;
    device_load[chosen] += group_cost[g];
  }

  for (Node* node : graph->nodes()) {
    node->set_assigned_device(group_device[groups.Find(node->id())]->name());
  }
  return Status::OK();
}

}  // namespace tfrepro
