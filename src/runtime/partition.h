// Graph partitioning (paper §3.3): splits a placed graph into per-device
// subgraphs, replacing cross-device edges with _Send/_Recv pairs that meet
// at a rendezvous key. Multiple consumers of one tensor on the same remote
// device share a single Send/Recv pair. Control edges travel as tokens: all
// control edges from one source device into one node become one dummy
// Const on the source device, gated on every such source, and one
// Send/Recv pair; nodes on one device that wait on the same source set
// share the pair.

#ifndef TFREPRO_RUNTIME_PARTITION_H_
#define TFREPRO_RUNTIME_PARTITION_H_

#include <map>
#include <memory>
#include <string>

#include "core/status.h"
#include "graph/graph.h"

namespace tfrepro {

// Returns one subgraph per device name appearing in assigned_device().
// Node names are preserved so kernel/state sharing by name keeps working.
Result<std::map<std::string, std::unique_ptr<Graph>>> PartitionGraph(
    const Graph& graph);

}  // namespace tfrepro

#endif  // TFREPRO_RUNTIME_PARTITION_H_
