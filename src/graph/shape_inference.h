// Static shape inference over partially-known shapes (paper §3.1 mentions
// "more sophisticated shape inference" as the cost of variable-size
// dimensions; this is the standard machinery). Each operation registers a
// shape function that maps (possibly unknown) input shapes to output
// shapes; InferShapes propagates them in topological order and reports
// incompatibilities at graph-construction time instead of at kernel
// execution time.

#ifndef TFREPRO_GRAPH_SHAPE_INFERENCE_H_
#define TFREPRO_GRAPH_SHAPE_INFERENCE_H_

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"

namespace tfrepro {

// A shape whose rank and/or dimensions may be unknown (-1).
class PartialShape {
 public:
  // Unknown rank.
  PartialShape() = default;
  // Known rank with (possibly unknown, -1) dims.
  explicit PartialShape(std::vector<int64_t> dims)
      : has_rank_(true), dims_(std::move(dims)) {}
  static PartialShape FromShape(const TensorShape& shape) {
    return PartialShape(shape.dims());
  }
  static PartialShape UnknownOfRank(int rank) {
    return PartialShape(std::vector<int64_t>(rank, -1));
  }

  bool has_rank() const { return has_rank_; }
  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int i) const { return dims_[i]; }
  bool dim_known(int i) const { return dims_[i] >= 0; }
  const std::vector<int64_t>& dims() const { return dims_; }
  bool FullyKnown() const;

  // Merges two constraints: unknown components adopt known ones; known
  // components must agree.
  static Result<PartialShape> Merge(const PartialShape& a,
                                    const PartialShape& b);

  // True if a tensor of shape `s` satisfies this constraint.
  bool IsCompatibleWith(const TensorShape& s) const;

  std::string DebugString() const;

 private:
  bool has_rank_ = false;
  std::vector<int64_t> dims_;
};

// Per-node context handed to shape functions.
class ShapeInferenceContext {
 public:
  ShapeInferenceContext(const Node* node,
                        std::vector<PartialShape> input_shapes)
      : node_(node),
        input_shapes_(std::move(input_shapes)),
        output_shapes_(node->num_outputs()) {}

  const Node& node() const { return *node_; }
  int num_inputs() const { return static_cast<int>(input_shapes_.size()); }
  const PartialShape& input(int i) const { return input_shapes_[i]; }

  void set_output(int i, PartialShape shape) {
    output_shapes_[i] = std::move(shape);
  }
  const std::vector<PartialShape>& output_shapes() const {
    return output_shapes_;
  }

  // If input i is produced by a Const of int32 vector, returns its values
  // (lets Reshape/Fill-style ops resolve shapes statically).
  std::optional<std::vector<int64_t>> ConstIntVector(int i) const;

  // Helpers for common idioms.
  Status WithRank(const PartialShape& shape, int rank, PartialShape* out) const;
  Status WithRankAtLeast(const PartialShape& shape, int rank,
                         PartialShape* out) const;
  Status MergeDim(int64_t a, int64_t b, int64_t* out) const;

 private:
  const Node* node_;
  std::vector<PartialShape> input_shapes_;
  std::vector<PartialShape> output_shapes_;
};

using ShapeFn = std::function<Status(ShapeInferenceContext*)>;

class ShapeRegistry {
 public:
  static ShapeRegistry* Global();
  Status Register(const std::string& op_name, ShapeFn fn);
  const ShapeFn* Lookup(const std::string& op_name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, ShapeFn> fns_;
};

namespace shape_registration {
struct ShapeRegistrar {
  ShapeRegistrar(const char* op_name, ShapeFn fn);
};
}  // namespace shape_registration

#define REGISTER_SHAPE_FN(op_name, fn)                         \
  static const ::tfrepro::shape_registration::ShapeRegistrar   \
      REGISTER_OP_CONCAT(shape_registrar_, __COUNTER__)(op_name, fn)

// The window of Conv2D, MaxPool, AvgPool and their gradients over the
// spatial dimensions of an NHWC input (DESIGN.md §15).
struct Window2D {
  int64_t in_h, in_w;          // input extent; -1 when unknown
  int64_t k_h, k_w;            // window extent
  int64_t stride_h, stride_w;
  int64_t out_h, out_w;        // output extent; -1 when the input's is unknown
  int64_t pad_top, pad_left;   // leading padding; 0 under VALID
};

// The one window-geometry rule, used by the Conv2D and pool shape functions
// and by all seven window kernels. Checks the attrs: `ksize` (a pool's, or
// {1, filter height, filter width, 1} for a convolution) and `strides` are
// lists of 4 of the form [1, h, w, 1] with h, w >= 1, and `padding` is SAME
// or VALID. Then maps the input extent (in_h, in_w; -1 when unknown) to the
// output extent and leading pad of each spatial dimension:
//   SAME:  out = ceil(in / stride); the total pad (out - 1) * stride + k - in,
//          if positive, is split with the smaller half leading;
//   VALID: out = (in - k) / stride + 1 when the window fits (in >= k), and
//          no output otherwise.
// A known output extent below 1 is InvalidArgument.
Status ComputeWindow2D(const std::vector<int64_t>& ksize,
                       const std::vector<int64_t>& strides,
                       const std::string& padding, int64_t in_h, int64_t in_w,
                       Window2D* window);

// Infers shapes for every node (topological order). Ops without a
// registered shape function get unknown output shapes (permissive).
// Returns an error for provably-incompatible graphs. If `shapes` is
// non-null it receives the inferred shape for every (node id, output).
Status InferShapes(const Graph& graph,
                   std::map<std::pair<int, int>, PartialShape>* shapes = nullptr);

}  // namespace tfrepro

#endif  // TFREPRO_GRAPH_SHAPE_INFERENCE_H_
