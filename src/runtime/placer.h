// Device placement (paper §3.3): "the placement algorithm computes a
// feasible set of devices for each operation, calculates the sets of
// operations that must be colocated, and selects a satisfying device for
// each colocation group."
//
// Colocation here is driven by reference edges: an operation that mutates
// state (consumes a ref input) must live with the operation that owns that
// state. Partial user constraints ("/job:ps", "/task:1/device:CPU:0") are
// merged per group and matched against the available devices.

#ifndef TFREPRO_RUNTIME_PLACER_H_
#define TFREPRO_RUNTIME_PLACER_H_

#include <functional>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"
#include "runtime/device.h"

namespace tfrepro {

// How the placer distributes colocation groups that carry no user
// constraint (DESIGN.md §12; the paper's §3.2.1 placement loop).
struct PlacerOptions {
  enum class Balance {
    // Historical behavior: every unconstrained group lands on the default
    // device. Cheapest (no cross-device transfers are introduced) and the
    // default everywhere.
    kNone,
    // Greedy least-loaded assignment where a group's weight is its node
    // count — the static heuristic a cold-started session can use.
    kArity,
    // Greedy least-loaded assignment where a group's weight is the sum of
    // node_cost(node) — measured latencies from a ProfileStore close the
    // observe→place feedback loop.
    kObservedCost,
  };

  Balance balance = Balance::kNone;

  // Per-node cost in microseconds; consulted only for kObservedCost.
  // Typically ProfileStore::CostFunction(). Nodes the profile has never
  // observed (a missing callback, or a result <= 0) weigh 1 µs.
  std::function<double(const Node&)> node_cost;
};

// Assigns every node of `graph` a device from `devices` (full names written
// to node->assigned_device()). `default_device` receives nodes with no
// constraints; pass nullptr to use devices.front().
Status PlaceGraph(Graph* graph, const std::vector<Device*>& devices,
                  Device* default_device = nullptr);

// As above, with explicit balancing options. With Balance::kNone this is
// identical to the two-argument form. With kArity/kObservedCost,
// unconstrained colocation groups are spread across `devices` greedily:
// groups are visited in descending weight (ties broken by smallest node
// id, so placement is deterministic) and each lands on the least-loaded
// device at that point; constrained groups pre-charge their matched device
// before balancing begins. `default_device` is only consulted by kNone.
Status PlaceGraph(Graph* graph, const std::vector<Device*>& devices,
                  const PlacerOptions& options,
                  Device* default_device = nullptr);

}  // namespace tfrepro

#endif  // TFREPRO_RUNTIME_PLACER_H_
