#include "runtime/session.h"

#include "graph/shape_inference.h"
#include "graph/subgraph.h"
#include "runtime/partition.h"

namespace tfrepro {

std::string SignatureKey(const std::vector<std::string>& feed_names,
                         const std::vector<std::string>& fetches,
                         const std::vector<std::string>& targets) {
  std::string key;
  for (const auto& f : feed_names) key.append(f).push_back(',');
  key.push_back('|');
  for (const auto& f : fetches) key.append(f).push_back(',');
  key.push_back('|');
  for (const auto& t : targets) key.append(t).push_back(',');
  return key;
}

Result<std::map<std::string, std::unique_ptr<Graph>>> CompileSignature(
    const Graph& graph, const std::vector<std::string>& feed_names,
    const std::vector<std::string>& fetches,
    const std::vector<std::string>& targets,
    const std::vector<Device*>& devices, const PlacerOptions& placer,
    OptimizerOptions optimizer) {
  std::unique_ptr<Graph> client_graph = graph.Clone();
  TF_RETURN_IF_ERROR(RewriteGraphForExecution(client_graph.get(), feed_names,
                                              fetches, targets));
  TF_RETURN_IF_ERROR(InferShapes(*client_graph));
  TF_RETURN_IF_ERROR(PlaceGraph(client_graph.get(), devices, placer));
  // Feeds/fetches are structurally protected (_Feed/_Fetch are never
  // optimized away) and stateful nodes are never touched; Run targets are
  // plain node names, so add them to the preserve set to keep the
  // optimizer from renaming, fusing or eliding them.
  for (const std::string& t : targets) {
    optimizer.preserve.insert(t.substr(0, t.find(':')));
  }
  TF_RETURN_IF_ERROR(
      OptimizeGraph(client_graph.get(), devices.front(), optimizer));
  return PartitionGraph(*client_graph);
}

}  // namespace tfrepro
