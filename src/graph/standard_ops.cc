// Schemas for the standard operation set (paper §5: "the runtime contains
// over 200 standard operations, including mathematical, array manipulation,
// control flow, and state management operations"). Kernels are registered
// separately in src/kernels/.

#include "graph/op_registry.h"

namespace tfrepro {
namespace {

// ---------------------------------------------------------------------------
// Constants, placeholders, identity.
// ---------------------------------------------------------------------------

REGISTER_OP("Const")
    .Output("output: dtype")
    .Attr("dtype: type")
    .Attr("value: tensor");

REGISTER_OP("Placeholder")
    .Output("output: dtype")
    .Attr("dtype: type")
    .Attr("shape: shape");

REGISTER_OP("Identity").Input("input: T").Output("output: T").Attr("T: type");

REGISTER_OP("StopGradient")
    .Input("input: T")
    .Output("output: T")
    .Attr("T: type");

REGISTER_OP("NoOp");

// Internal nodes inserted by session graph rewriting for feeds/fetches.
REGISTER_OP("_Feed").Output("output: dtype").Attr("dtype: type").Attr(
    "index: int");
REGISTER_OP("_Fetch").Input("input: T").Attr("T: type").Attr("index: int");

// ---------------------------------------------------------------------------
// Element-wise math.
// ---------------------------------------------------------------------------

#define BINARY_OP(NAME) \
  REGISTER_OP(NAME).Input("x: T").Input("y: T").Output("z: T").Attr("T: type")

BINARY_OP("Add");
BINARY_OP("Sub");
BINARY_OP("Mul");
BINARY_OP("Div");
BINARY_OP("FloorDiv");
BINARY_OP("Mod");
BINARY_OP("Pow");
BINARY_OP("Maximum");
BINARY_OP("Minimum");
BINARY_OP("SquaredDifference");

#undef BINARY_OP

#define UNARY_OP(NAME) \
  REGISTER_OP(NAME).Input("x: T").Output("y: T").Attr("T: type")

UNARY_OP("Neg");
UNARY_OP("Exp");
UNARY_OP("Log");
UNARY_OP("Sqrt");
UNARY_OP("Rsqrt");
UNARY_OP("Square");
UNARY_OP("Abs");
UNARY_OP("Sign");
UNARY_OP("Tanh");
UNARY_OP("Sigmoid");
UNARY_OP("Relu");
UNARY_OP("Floor");
UNARY_OP("Ceil");
UNARY_OP("Reciprocal");

#undef UNARY_OP

// Fused activation gradients (paper §5: hand-implemented fused kernels for
// ReLU/Sigmoid and their gradients).
REGISTER_OP("ReluGrad")
    .Input("gradients: T")
    .Input("features: T")
    .Output("backprops: T")
    .Attr("T: type");
REGISTER_OP("SigmoidGrad")
    .Input("y: T")
    .Input("dy: T")
    .Output("z: T")
    .Attr("T: type");
REGISTER_OP("TanhGrad")
    .Input("y: T")
    .Input("dy: T")
    .Output("z: T")
    .Attr("T: type");

#define COMPARE_OP(NAME)  \
  REGISTER_OP(NAME)       \
      .Input("x: T")      \
      .Input("y: T")      \
      .Output("z: bool")  \
      .Attr("T: type")

COMPARE_OP("Less");
COMPARE_OP("LessEqual");
COMPARE_OP("Greater");
COMPARE_OP("GreaterEqual");
COMPARE_OP("Equal");
COMPARE_OP("NotEqual");

#undef COMPARE_OP

REGISTER_OP("LogicalAnd")
    .Input("x: bool")
    .Input("y: bool")
    .Output("z: bool");
REGISTER_OP("LogicalOr").Input("x: bool").Input("y: bool").Output("z: bool");
REGISTER_OP("LogicalNot").Input("x: bool").Output("y: bool");

REGISTER_OP("Select")
    .Input("condition: bool")
    .Input("t: T")
    .Input("e: T")
    .Output("output: T")
    .Attr("T: type");

REGISTER_OP("Cast")
    .Input("x: SrcT")
    .Output("y: DstT")
    .Attr("SrcT: type")
    .Attr("DstT: type");

REGISTER_OP("MatMul")
    .Input("a: T")
    .Input("b: T")
    .Output("product: T")
    .Attr("T: type")
    .Attr("transpose_a: bool = false")
    .Attr("transpose_b: bool = false");

REGISTER_OP("AddN")
    .Input("inputs: N * T")
    .Output("sum: T")
    .Attr("N: int")
    .Attr("T: type");

REGISTER_OP("BiasAdd")
    .Input("value: T")
    .Input("bias: T")
    .Output("output: T")
    .Attr("T: type");
REGISTER_OP("BiasAddGrad")
    .Input("out_backprop: T")
    .Output("output: T")
    .Attr("T: type");

// Sums `grad` down to the shape of `target` (inverse of broadcasting).
// Emitted by the autodiff library for the inputs of broadcasting binary
// ops; the target tensor supplies only its shape.
REGISTER_OP("SumToShapeOf")
    .Input("grad: T")
    .Input("target: T")
    .Output("output: T")
    .Attr("T: type");

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

#define REDUCTION_OP(NAME)                 \
  REGISTER_OP(NAME)                        \
      .Input("input: T")                   \
      .Input("reduction_indices: int32")   \
      .Output("output: T")                 \
      .Attr("T: type")                     \
      .Attr("keep_dims: bool = false")

REDUCTION_OP("Sum");
REDUCTION_OP("Mean");
REDUCTION_OP("Max");
REDUCTION_OP("Min");
REDUCTION_OP("Prod");

#undef REDUCTION_OP

REGISTER_OP("ArgMax")
    .Input("input: T")
    .Input("dimension: int32")
    .Output("output: int64")
    .Attr("T: type");

// ---------------------------------------------------------------------------
// Array manipulation.
// ---------------------------------------------------------------------------

REGISTER_OP("Shape").Input("input: T").Output("output: int32").Attr("T: type");
REGISTER_OP("Rank").Input("input: T").Output("output: int32").Attr("T: type");
REGISTER_OP("Size").Input("input: T").Output("output: int32").Attr("T: type");

REGISTER_OP("Reshape")
    .Input("tensor: T")
    .Input("shape: int32")
    .Output("output: T")
    .Attr("T: type");

REGISTER_OP("ExpandDims")
    .Input("input: T")
    .Input("dim: int32")
    .Output("output: T")
    .Attr("T: type");

REGISTER_OP("Squeeze")
    .Input("input: T")
    .Output("output: T")
    .Attr("T: type")
    .Attr("squeeze_dims: list(int) = []");

REGISTER_OP("ZerosLike").Input("x: T").Output("y: T").Attr("T: type");
REGISTER_OP("OnesLike").Input("x: T").Output("y: T").Attr("T: type");

REGISTER_OP("Fill")
    .Input("dims: int32")
    .Input("value: T")
    .Output("output: T")
    .Attr("T: type");

REGISTER_OP("Range")
    .Input("start: int32")
    .Input("limit: int32")
    .Input("delta: int32")
    .Output("output: int32");

REGISTER_OP("Concat")
    .Input("concat_dim: int32")
    .Input("values: N * T")
    .Output("output: T")
    .Attr("N: int")
    .Attr("T: type");

REGISTER_OP("Split")
    .Input("split_dim: int32")
    .Input("value: T")
    .Output("output: num_split * T")
    .Attr("num_split: int")
    .Attr("T: type");

REGISTER_OP("Slice")
    .Input("input: T")
    .Input("begin: int32")
    .Input("size: int32")
    .Output("output: T")
    .Attr("T: type");

REGISTER_OP("Pad")
    .Input("input: T")
    .Input("paddings: int32")
    .Output("output: T")
    .Attr("T: type");

REGISTER_OP("Transpose")
    .Input("x: T")
    .Input("perm: int32")
    .Output("y: T")
    .Attr("T: type");

REGISTER_OP("Tile")
    .Input("input: T")
    .Input("multiples: int32")
    .Output("output: T")
    .Attr("T: type");

REGISTER_OP("Pack")
    .Input("values: N * T")
    .Output("output: T")
    .Attr("N: int")
    .Attr("T: type")
    .Attr("axis: int = 0");

REGISTER_OP("Unpack")
    .Input("value: T")
    .Output("output: num * T")
    .Attr("num: int")
    .Attr("T: type")
    .Attr("axis: int = 0");

REGISTER_OP("OneHot")
    .Input("indices: TI")
    .Input("depth: int32")
    .Input("on_value: T")
    .Input("off_value: T")
    .Output("output: T")
    .Attr("T: type")
    .Attr("TI: type = int64")
    .Attr("axis: int = -1");

// Sparse access ops (paper §4.2: Gather + dynamic partition + stitch form
// the sharded embedding layer).
REGISTER_OP("Gather")
    .Input("params: T")
    .Input("indices: Tindices")
    .Output("output: T")
    .Attr("T: type")
    .Attr("Tindices: type = int32");

REGISTER_OP("DynamicPartition")
    .Input("data: T")
    .Input("partitions: int32")
    .Output("outputs: num_partitions * T")
    .Attr("num_partitions: int")
    .Attr("T: type");

REGISTER_OP("DynamicStitch")
    .Input("indices: N * int32")
    .Input("data: N * T")
    .Output("merged: T")
    .Attr("N: int")
    .Attr("T: type");

REGISTER_OP("UnsortedSegmentSum")
    .Input("data: T")
    .Input("segment_ids: Tindices")
    .Input("num_segments: int32")
    .Output("output: T")
    .Attr("T: type")
    .Attr("Tindices: type = int32");

// ---------------------------------------------------------------------------
// Random ops.
// ---------------------------------------------------------------------------

#define RANDOM_OP(NAME)             \
  REGISTER_OP(NAME)                 \
      .Input("shape: int32")        \
      .Output("output: dtype")      \
      .Attr("dtype: type = float")  \
      .Attr("seed: int = 0")        \
      .Attr("seed2: int = 0")       \
      .SetIsStateful()

RANDOM_OP("RandomUniform");
RANDOM_OP("RandomStandardNormal");
RANDOM_OP("TruncatedNormal");

#undef RANDOM_OP

REGISTER_OP("RandomUniformInt")
    .Input("shape: int32")
    .Input("minval: T")
    .Input("maxval: T")
    .Output("output: T")
    .Attr("T: type = int64")
    .Attr("seed: int = 0")
    .Attr("seed2: int = 0")
    .SetIsStateful();

// ---------------------------------------------------------------------------
// Neural-network ops.
// ---------------------------------------------------------------------------

REGISTER_OP("Conv2D")
    .Input("input: T")
    .Input("filter: T")
    .Output("output: T")
    .Attr("T: type")
    .Attr("strides: list(int)")
    .Attr("padding: string = 'SAME'");

REGISTER_OP("Conv2DBackpropInput")
    .Input("input_sizes: int32")
    .Input("filter: T")
    .Input("out_backprop: T")
    .Output("output: T")
    .Attr("T: type")
    .Attr("strides: list(int)")
    .Attr("padding: string = 'SAME'");

REGISTER_OP("Conv2DBackpropFilter")
    .Input("input: T")
    .Input("filter_sizes: int32")
    .Input("out_backprop: T")
    .Output("output: T")
    .Attr("T: type")
    .Attr("strides: list(int)")
    .Attr("padding: string = 'SAME'");

REGISTER_OP("MaxPool")
    .Input("input: T")
    .Output("output: T")
    .Attr("T: type")
    .Attr("ksize: list(int)")
    .Attr("strides: list(int)")
    .Attr("padding: string = 'SAME'");

REGISTER_OP("MaxPoolGrad")
    .Input("orig_input: T")
    .Input("orig_output: T")
    .Input("grad: T")
    .Output("output: T")
    .Attr("T: type")
    .Attr("ksize: list(int)")
    .Attr("strides: list(int)")
    .Attr("padding: string = 'SAME'");

REGISTER_OP("AvgPool")
    .Input("input: T")
    .Output("output: T")
    .Attr("T: type")
    .Attr("ksize: list(int)")
    .Attr("strides: list(int)")
    .Attr("padding: string = 'SAME'");

REGISTER_OP("AvgPoolGrad")
    .Input("orig_input_shape: int32")
    .Input("grad: T")
    .Output("output: T")
    .Attr("T: type")
    .Attr("ksize: list(int)")
    .Attr("strides: list(int)")
    .Attr("padding: string = 'SAME'");

REGISTER_OP("Softmax").Input("logits: T").Output("softmax: T").Attr("T: type");
REGISTER_OP("LogSoftmax")
    .Input("logits: T")
    .Output("logsoftmax: T")
    .Attr("T: type");

REGISTER_OP("SoftmaxCrossEntropyWithLogits")
    .Input("features: T")
    .Input("labels: T")
    .Output("loss: T")
    .Output("backprop: T")
    .Attr("T: type");

REGISTER_OP("SparseSoftmaxCrossEntropyWithLogits")
    .Input("features: T")
    .Input("labels: Tlabels")
    .Output("loss: T")
    .Output("backprop: T")
    .Attr("T: type")
    .Attr("Tlabels: type = int64");

REGISTER_OP("L2Loss").Input("t: T").Output("output: T").Attr("T: type");

// ---------------------------------------------------------------------------
// Stateful ops: variables (paper §3.1).
// ---------------------------------------------------------------------------

REGISTER_OP("Variable")
    .Output("ref: Ref(dtype)")
    .Attr("dtype: type")
    .Attr("shape: shape")
    .SetIsStateful();

REGISTER_OP("IsVariableInitialized")
    .Input("ref: Ref(dtype)")
    .Output("is_initialized: bool")
    .Attr("dtype: type")
    .SetAllowsUninitializedInput();

REGISTER_OP("Assign")
    .Input("ref: Ref(T)")
    .Input("value: T")
    .Output("output_ref: Ref(T)")
    .Attr("T: type")
    .SetAllowsUninitializedInput();

REGISTER_OP("AssignAdd")
    .Input("ref: Ref(T)")
    .Input("value: T")
    .Output("output_ref: Ref(T)")
    .Attr("T: type");

REGISTER_OP("AssignSub")
    .Input("ref: Ref(T)")
    .Input("value: T")
    .Output("output_ref: Ref(T)")
    .Attr("T: type");

#define SCATTER_OP(NAME)                 \
  REGISTER_OP(NAME)                      \
      .Input("ref: Ref(T)")              \
      .Input("indices: Tindices")        \
      .Input("updates: T")               \
      .Output("output_ref: Ref(T)")      \
      .Attr("T: type")                   \
      .Attr("Tindices: type = int32")

SCATTER_OP("ScatterAdd");
SCATTER_OP("ScatterSub");
SCATTER_OP("ScatterUpdate");

#undef SCATTER_OP

REGISTER_OP("CountUpTo")
    .Input("ref: Ref(T)")
    .Output("output: T")
    .Attr("T: type = int64")
    .Attr("limit: int");

// Fused optimizer-update kernels (paper §5: users can register additional
// kernels for performance-critical subcomputations).
REGISTER_OP("ApplyGradientDescent")
    .Input("var: Ref(T)")
    .Input("alpha: T")
    .Input("delta: T")
    .Output("out: Ref(T)")
    .Attr("T: type");

REGISTER_OP("ApplyMomentum")
    .Input("var: Ref(T)")
    .Input("accum: Ref(T)")
    .Input("lr: T")
    .Input("grad: T")
    .Input("momentum: T")
    .Output("out: Ref(T)")
    .Attr("T: type");

REGISTER_OP("ApplyAdagrad")
    .Input("var: Ref(T)")
    .Input("accum: Ref(T)")
    .Input("lr: T")
    .Input("grad: T")
    .Output("out: Ref(T)")
    .Attr("T: type");

REGISTER_OP("ApplyAdadelta")
    .Input("var: Ref(T)")
    .Input("accum: Ref(T)")
    .Input("accum_update: Ref(T)")
    .Input("lr: T")
    .Input("rho: T")
    .Input("epsilon: T")
    .Input("grad: T")
    .Output("out: Ref(T)")
    .Attr("T: type");

REGISTER_OP("ApplyRMSProp")
    .Input("var: Ref(T)")
    .Input("ms: Ref(T)")
    .Input("mom: Ref(T)")
    .Input("lr: T")
    .Input("rho: T")
    .Input("momentum: T")
    .Input("epsilon: T")
    .Input("grad: T")
    .Output("out: Ref(T)")
    .Attr("T: type");

REGISTER_OP("ApplyAdam")
    .Input("var: Ref(T)")
    .Input("m: Ref(T)")
    .Input("v: Ref(T)")
    .Input("beta1_power: T")
    .Input("beta2_power: T")
    .Input("lr: T")
    .Input("beta1: T")
    .Input("beta2: T")
    .Input("epsilon: T")
    .Input("grad: T")
    .Output("out: Ref(T)")
    .Attr("T: type");

// Sparse variants applying updates to just the touched rows (paper §4.2).
REGISTER_OP("SparseApplyGradientDescent")
    .Input("var: Ref(T)")
    .Input("alpha: T")
    .Input("grad: T")
    .Input("indices: Tindices")
    .Output("out: Ref(T)")
    .Attr("T: type")
    .Attr("Tindices: type = int32");

REGISTER_OP("SparseApplyAdagrad")
    .Input("var: Ref(T)")
    .Input("accum: Ref(T)")
    .Input("lr: T")
    .Input("grad: T")
    .Input("indices: Tindices")
    .Output("out: Ref(T)")
    .Attr("T: type")
    .Attr("Tindices: type = int32");

// ---------------------------------------------------------------------------
// Control flow (paper §3.4).
// ---------------------------------------------------------------------------

REGISTER_OP("Switch")
    .Input("data: T")
    .Input("pred: bool")
    .Output("output_false: T")
    .Output("output_true: T")
    .Attr("T: type");

REGISTER_OP("Merge")
    .Input("inputs: N * T")
    .Output("output: T")
    .Output("value_index: int32")
    .Attr("N: int")
    .Attr("T: type");

REGISTER_OP("Enter")
    .Input("data: T")
    .Output("output: T")
    .Attr("T: type")
    .Attr("frame_name: string")
    .Attr("is_constant: bool = false")
    .Attr("parallel_iterations: int = 10");

REGISTER_OP("Exit").Input("data: T").Output("output: T").Attr("T: type");

REGISTER_OP("NextIteration")
    .Input("data: T")
    .Output("output: T")
    .Attr("T: type");

REGISTER_OP("LoopCond").Input("input: bool").Output("output: bool");

REGISTER_OP("ControlTrigger");

// ---------------------------------------------------------------------------
// Communication (inserted by graph partitioning, paper §3.3).
// ---------------------------------------------------------------------------

REGISTER_OP("_Send")
    .Input("tensor: T")
    .Attr("T: type")
    .Attr("tensor_name: string")
    .Attr("send_device: string")
    .Attr("recv_device: string")
    .SetIsStateful();

REGISTER_OP("_Recv")
    .Output("tensor: tensor_type")
    .Attr("tensor_type: type")
    .Attr("tensor_name: string")
    .Attr("send_device: string")
    .Attr("recv_device: string")
    .SetIsStateful();

// A chain of unary/binary element-wise ops collapsed into one dispatch by
// the optimizer's fusion pass (DESIGN.md §13). `ops` lists the original op
// names in execution order; the accumulator starts at inputs[0] and each
// binary step consumes the next external input, with chain_lhs[i] == 1 when
// the accumulator feeds that step's left operand. Underscore-prefixed:
// inserted by the runtime, never by clients.
REGISTER_OP("_FusedElementwise")
    .Input("inputs: N * T")
    .Output("output: T")
    .Attr("N: int")
    .Attr("T: type")
    .Attr("ops: list(string)")
    .Attr("chain_lhs: list(int)");

// The issuing master's step id, as an int64 scalar. Stateful so the
// optimizer never folds or CSEs it: the value changes every step. Used to
// tag gradients for the synchronous-replica staleness filter (§4.4).
REGISTER_OP("StepId")
    .Output("step_id: int64")
    .SetIsStateful();

// ---------------------------------------------------------------------------
// Queues (paper §3.1: FIFOQueue etc. provide coordination and backpressure).
// ---------------------------------------------------------------------------

REGISTER_OP("FIFOQueue")
    .Output("handle: Ref(string)")
    .Attr("component_types: list(type)")
    .Attr("capacity: int = -1")
    .Attr("shared_name: string = ''")
    .SetIsStateful();

REGISTER_OP("RandomShuffleQueue")
    .Output("handle: Ref(string)")
    .Attr("component_types: list(type)")
    .Attr("capacity: int = -1")
    .Attr("min_after_dequeue: int = 0")
    .Attr("seed: int = 0")
    .Attr("shared_name: string = ''")
    .SetIsStateful();

REGISTER_OP("QueueEnqueue")
    .Input("handle: Ref(string)")
    .Input("components: Tcomponents")
    .Attr("Tcomponents: list(type)")
    .SetIsStateful();

REGISTER_OP("QueueEnqueueMany")
    .Input("handle: Ref(string)")
    .Input("components: Tcomponents")
    .Attr("Tcomponents: list(type)")
    .SetIsStateful();

REGISTER_OP("QueueDequeue")
    .Input("handle: Ref(string)")
    .Output("components: component_types")
    .Attr("component_types: list(type)")
    .SetIsStateful();

REGISTER_OP("QueueDequeueMany")
    .Input("handle: Ref(string)")
    .Input("n: int32")
    .Output("components: component_types")
    .Attr("component_types: list(type)")
    .SetIsStateful();

// Dequeues `n` tuples whose leading component — an int64 step tag written
// by the producer (see StepId) — is not older than the queue's stale
// floor; older tuples are dropped and counted (grad.stale_dropped). After
// `n` fresh tuples are collected the floor advances past the caller's own
// step id, superseding every tag issued at or before this step (§4.4
// "first m of n" synchronous replicas).
REGISTER_OP("QueueDequeueFreshMany")
    .Input("handle: Ref(string)")
    .Input("n: int32")
    .Output("components: component_types")
    .Attr("component_types: list(type)")
    .SetIsStateful();

REGISTER_OP("QueueSize")
    .Input("handle: Ref(string)")
    .Output("size: int32")
    .SetIsStateful();

REGISTER_OP("QueueClose")
    .Input("handle: Ref(string)")
    .Attr("cancel_pending_enqueues: bool = false")
    .SetIsStateful();

// ---------------------------------------------------------------------------
// Input pipelines (paper Figure 1: Reader / preprocessing stages as graph
// nodes — see data/dataset.h). Each dataset op publishes a DatasetResource
// under its node name (or shared_name) and outputs a string handle; the
// whole chain plus its IteratorGetNext must be colocated on one device.
// All are stateful so the optimizer tier never folds, CSEs or prunes them.
// ---------------------------------------------------------------------------

REGISTER_OP("RecordFileDataset")
    .Output("handle: string")
    .Attr("filenames: list(string)")
    .Attr("shared_name: string = ''")
    .SetIsStateful();

REGISTER_OP("ParallelMapDataset")
    .Input("input_dataset: string")
    .Output("handle: string")
    .Attr("map_fn: string")
    .Attr("parallelism: int = 4")
    .Attr("output_types: list(type)")
    .Attr("shared_name: string = ''")
    .SetIsStateful();

REGISTER_OP("ShuffleDataset")
    .Input("input_dataset: string")
    .Output("handle: string")
    .Attr("buffer_size: int")
    .Attr("seed: int = 0")
    .Attr("shared_name: string = ''")
    .SetIsStateful();

REGISTER_OP("RepeatDataset")
    .Input("input_dataset: string")
    .Output("handle: string")
    .Attr("count: int = -1")
    .Attr("shared_name: string = ''")
    .SetIsStateful();

REGISTER_OP("BatchDataset")
    .Input("input_dataset: string")
    .Output("handle: string")
    .Attr("batch_size: int")
    .Attr("drop_remainder: bool = false")
    .Attr("shared_name: string = ''")
    .SetIsStateful();

REGISTER_OP("PrefetchDataset")
    .Input("input_dataset: string")
    .Output("handle: string")
    .Attr("buffer_size: int = 2")
    .Attr("shared_name: string = ''")
    .SetIsStateful();

// Client of the shared data service (distributed/data_service.h): elements
// come from a remote pipeline task over the rpc transport, round-robin by
// consumer index.
REGISTER_OP("DataServiceDataset")
    .Output("handle: string")
    .Attr("port: int")
    .Attr("consumer: int")
    .Attr("num_consumers: int")
    .Attr("output_types: list(type)")
    .Attr("shared_name: string = ''")
    .SetIsStateful();

// Pulls the next element from the dataset's iterator; OutOfRange at end of
// sequence. The iterator lives on the kernel, so it persists across steps
// and is torn down (cancelling blocked producers) at session close.
REGISTER_OP("IteratorGetNext")
    .Input("handle: string")
    .Output("components: output_types")
    .Attr("output_types: list(type)")
    .SetIsStateful();

// ---------------------------------------------------------------------------
// Checkpointing (paper §4.3) and file I/O.
// ---------------------------------------------------------------------------

REGISTER_OP("Save")
    .Input("filename: string")
    .Input("tensor_names: string")
    .Input("data: T")
    .Attr("T: list(type)")
    .SetIsStateful();

REGISTER_OP("Restore")
    .Input("file_pattern: string")
    .Input("tensor_name: string")
    .Output("tensor: dt")
    .Attr("dt: type")
    .SetIsStateful();

REGISTER_OP("ReadFile")
    .Input("filename: string")
    .Output("contents: string")
    .SetIsStateful();

// ---------------------------------------------------------------------------
// Quantization (paper §5: "support for quantization, which enables faster
// inference in environments such as mobile devices", using gemmlowp-style
// low-precision matrix multiplication).
// ---------------------------------------------------------------------------

// Affine quantization to uint8 over [min_range, max_range].
REGISTER_OP("Quantize")
    .Input("input: float")
    .Input("min_range: float")
    .Input("max_range: float")
    .Output("output: uint8");

REGISTER_OP("Dequantize")
    .Input("input: uint8")
    .Input("min_range: float")
    .Input("max_range: float")
    .Output("output: float");

// Low-precision matmul: uint8 x uint8 with int64 accumulation, rescaled to
// float using each operand's quantization range.
REGISTER_OP("QuantizedMatMul")
    .Input("a: uint8")
    .Input("b: uint8")
    .Input("min_a: float")
    .Input("max_a: float")
    .Input("min_b: float")
    .Input("max_b: float")
    .Output("product: float");

}  // namespace
}  // namespace tfrepro
