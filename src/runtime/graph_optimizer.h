// Session-level graph-optimization tier (paper §5, DESIGN.md §13): a pass
// manager run at graph-compile time by the session (CompileSignature) and
// serving::FreezeGraph. Passes: identity elision, common-subexpression
// elimination, element-wise fusion, constant folding (the middle three in a
// fixed-point loop — folding a fused chain's const inputs exposes new CSE
// and fusion candidates), then dead-node elimination.
//
// Safety contract: optimization must be invisible. Fetches, post-step
// variable states and gradient updates are bit-exact with the unoptimized
// graph (enforced by tests/optimizer_fuzz_test.cc). Stateful nodes,
// control-flow nodes and runtime-inserted `_` ops are never touched;
// callers list additional roots (targets, freeze outputs) in `preserve`.

#ifndef TFREPRO_RUNTIME_GRAPH_OPTIMIZER_H_
#define TFREPRO_RUNTIME_GRAPH_OPTIMIZER_H_

#include <set>
#include <string>

#include "core/status.h"
#include "graph/graph.h"
#include "runtime/device.h"

namespace tfrepro {

struct OptimizerOptions {
  // Master switch for the whole tier; the environment variable
  // TFREPRO_OPTIMIZER=off (or 0/false) disables it regardless, as the
  // escape hatch when debugging a suspected mis-optimization.
  //
  // With the tier on, Identity/StopGradient pass-through nodes are always
  // elided first, chains of unary/binary element-wise ops are always fused
  // into single _FusedElementwise dispatches (kernels/fused_ops.cc), and
  // stateless nodes whose output reaches no fetch, target, stateful op or
  // preserved node are always removed last.
  bool enable = true;
  bool do_cse = true;
  bool do_constant_folding = true;
  // Bound on CSE -> fusion -> folding rounds (each round may expose new
  // candidates for the next; see the two-round regression test).
  int max_folding_passes = 3;
  // Node names that must survive optimization under their own name. Session
  // compilation protects fetch roots structurally (_Fetch nodes are never
  // optimizable) and adds Run targets here; FreezeGraph optimizes a graph
  // whose fetch roots are plain nodes, so it lists them here to keep
  // CSE/folding/elision/fusion from renaming or removing them.
  std::set<std::string> preserve;
};

// Merges duplicate stateless nodes. Returns the number of nodes removed.
// Nodes named in `preserve` are never removed (they may still act as the
// surviving canonical copy).
int EliminateCommonSubexpressions(Graph* graph,
                                  const std::set<std::string>& preserve = {});

// Removes Identity/StopGradient nodes by rewiring their consumers to the
// upstream producer. Skips nodes in `preserve`, nodes touching control
// edges, and reads of ref outputs. Returns the number of nodes removed.
int ElideIdentityNodes(Graph* graph,
                       const std::set<std::string>& preserve = {});

// Evaluates stateless nodes whose inputs are all constants on `device` and
// replaces them with Const nodes. Returns the number of nodes folded.
Result<int> FoldConstants(Graph* graph, Device* device,
                          const std::set<std::string>& preserve = {});

// Collapses chains (length >= 2) of same-device, same-dtype element-wise
// nodes into single _FusedElementwise nodes. A node joins a chain only if
// it is stateless, not preserved, touches no control edges, reads no ref
// outputs, and every interior member has exactly one data consumer (the
// next chain member), so multi-consumer interiors, cross-device hops and
// ref readers are never fused. With `skip_const_computable` set (the pass
// manager passes do_constant_folding), nodes whose inputs are transitively
// constant are left for the folding pass instead of being buried inside a
// fused node. Returns the number of chains fused.
Result<int> FuseElementwiseChains(Graph* graph,
                                  const std::set<std::string>& preserve = {},
                                  bool skip_const_computable = false);

// Removes stateless nodes from which no root (stateful / control-flow /
// `_`-prefixed / preserved node) is reachable. No-op when the graph has no
// roots at all, so optimizing a bare expression graph without a preserve
// set does not erase it. Returns the number of nodes removed.
int RemoveDeadNodes(Graph* graph, const std::set<std::string>& preserve = {});

Status OptimizeGraph(Graph* graph, Device* device,
                     const OptimizerOptions& options = OptimizerOptions());

}  // namespace tfrepro

#endif  // TFREPRO_RUNTIME_GRAPH_OPTIMIZER_H_
