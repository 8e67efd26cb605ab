// FreezeGraph: turns a trained graph + checkpoint into a self-contained
// inference graph (the deploy-for-serving path of paper §1–§2: the same
// dataflow graph that was trained is what gets served). Each Variable is
// replaced by a Const node holding its checkpointed value, training-only
// subgraphs (optimizer updates, initializers, Save/Restore) are stripped by
// pruning to the inference fetches, and the result is cleaned up with the
// standard optimizer passes (identity elision, CSE, constant folding) so
// weight math that no longer depends on runtime inputs folds away.
//
// The frozen graph has no mutable state on the inference path, which is
// what makes a Servable immutable and safe to run from many client threads
// with zero coordination (see servable.h).

#ifndef TFREPRO_SERVING_FREEZE_H_
#define TFREPRO_SERVING_FREEZE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"
#include "runtime/graph_optimizer.h"

namespace tfrepro {
namespace serving {

struct FreezeOptions {
  // Optimizer passes run on the frozen graph — the same session-level tier
  // the session runs at compile time (DESIGN.md §13), including
  // element-wise fusion. The fetch names are added to `optimizer.preserve`
  // automatically.
  OptimizerOptions optimizer;
};

// Freezes `graph` against the checkpoint written as `checkpoint_files`
// (one file per Saver task group; a single-process checkpoint is the one
// file "<prefix>-<step>"). `fetches` name the inference outputs
// ("node" or "node:port"); the graph is pruned to what they need.
//
// Errors:
//   * NotFound          — a live Variable has no tensor in the checkpoint;
//   * FailedPrecondition — a ref-consuming op (Assign, ScatterAdd, ...)
//     survives pruning, i.e. `fetches` reach training-only state updates.
Result<std::unique_ptr<Graph>> FreezeGraph(
    const Graph& graph, const std::vector<std::string>& checkpoint_files,
    const std::vector<std::string>& fetches,
    const FreezeOptions& options = FreezeOptions());

}  // namespace serving
}  // namespace tfrepro

#endif  // TFREPRO_SERVING_FREEZE_H_
