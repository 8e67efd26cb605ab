// Tests for the quantization path (paper §5): round-trip accuracy, the
// low-precision matmul against the float reference, and the PS device
// setter strategies.

#include <gtest/gtest.h>

#include "core/random.h"
#include "graph/ops.h"
#include "runtime/session.h"
#include "train/device_setter.h"

namespace tfrepro {
namespace {

using ops::Const;

Output Quantize(GraphBuilder* b, Output in, float lo, float hi) {
  return b->Op("Quantize")
      .Input(in)
      .Input(Const(b, lo))
      .Input(Const(b, hi))
      .Finalize();
}

Output Dequantize(GraphBuilder* b, Output in, float lo, float hi) {
  return b->Op("Dequantize")
      .Input(in)
      .Input(Const(b, lo))
      .Input(Const(b, hi))
      .Finalize();
}

TEST(QuantizationTest, RoundTripWithinOneLevel) {
  Graph g;
  GraphBuilder b(&g);
  std::vector<float> values = {-1.0f, -0.5f, 0.0f, 0.123f, 0.9f, 1.0f};
  Output in = Const(&b, Tensor::Vec<float>(values));
  Output q = Quantize(&b, in, -1.0f, 1.0f);
  Output back = Dequantize(&b, q, -1.0f, 1.0f);
  ASSERT_TRUE(b.ok()) << b.status();
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({back.name()}, &out));
  const float level = 2.0f / 255;  // one quantization step
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(out[0].flat<float>(i), values[i], level / 2 + 1e-6f) << i;
  }
}

TEST(QuantizationTest, ValuesOutsideRangeSaturate) {
  Graph g;
  GraphBuilder b(&g);
  Output in = Const(&b, Tensor::Vec<float>({-5.0f, 5.0f}));
  Output q = Quantize(&b, in, -1.0f, 1.0f);
  ASSERT_TRUE(b.ok());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({q.name()}, &out));
  EXPECT_EQ(out[0].flat<uint8_t>(0), 0);
  EXPECT_EQ(out[0].flat<uint8_t>(1), 255);
}

TEST(QuantizationTest, InvalidRangeRejected) {
  Graph g;
  GraphBuilder b(&g);
  Output in = Const(&b, Tensor::Vec<float>({0.0f}));
  Output q = Quantize(&b, in, 1.0f, 1.0f);
  ASSERT_TRUE(b.ok());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  EXPECT_FALSE(session.value()->Run({q.name()}, &out).ok());
}

TEST(QuantizationTest, QuantizedMatMulTracksFloatReference) {
  // Random matrices in [-1, 1]; the quantized product must match the float
  // product within accumulated quantization noise.
  constexpr int64_t kM = 8, kK = 32, kN = 6;
  PhiloxRandom rng(99);
  Tensor a(DataType::kFloat, TensorShape({kM, kK}));
  Tensor bt(DataType::kFloat, TensorShape({kK, kN}));
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    a.flat<float>(i) = 2 * rng.Uniform() - 1;
  }
  for (int64_t i = 0; i < bt.num_elements(); ++i) {
    bt.flat<float>(i) = 2 * rng.Uniform() - 1;
  }

  Graph g;
  GraphBuilder b(&g);
  Output fa = Const(&b, Tensor(a));
  Output fb = Const(&b, Tensor(bt));
  Output reference = ops::MatMul(&b, fa, fb);
  Output qa = Quantize(&b, fa, -1.0f, 1.0f);
  Output qb = Quantize(&b, fb, -1.0f, 1.0f);
  Output quantized = b.Op("QuantizedMatMul")
                         .Input(qa)
                         .Input(qb)
                         .Input(Const(&b, -1.0f))
                         .Input(Const(&b, 1.0f))
                         .Input(Const(&b, -1.0f))
                         .Input(Const(&b, 1.0f))
                         .Finalize();
  ASSERT_TRUE(b.ok()) << b.status();
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({reference.name(), quantized.name()}, &out));
  // Error per element ~ k * (quant step) in the worst case; use a
  // generous-but-meaningful bound.
  double tolerance = kK * (2.0 / 255) * 0.25;
  for (int64_t i = 0; i < out[0].num_elements(); ++i) {
    EXPECT_NEAR(out[1].flat<float>(i), out[0].flat<float>(i), tolerance) << i;
  }
}

// Runs one quantization op on `inputs` (constants) and returns its status.
Status RunQuantOp(const std::string& op, const std::vector<Tensor>& inputs,
                  std::vector<Tensor>* out = nullptr) {
  Graph g;
  GraphBuilder b(&g);
  NodeBuilder nb = b.Op(op);
  for (const Tensor& t : inputs) nb.Input(Const(&b, Tensor(t)));
  Output result = nb.Finalize();
  TF_RETURN_IF_ERROR(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> fetched;
  Status s = session.value()->Run({result.name()}, &fetched);
  if (out != nullptr) *out = std::move(fetched);
  return s;
}

Tensor Bytes(int64_t rows, int64_t cols, uint8_t value) {
  Tensor t(DataType::kUint8, TensorShape({rows, cols}));
  for (int64_t i = 0; i < rows * cols; ++i) t.flat<uint8_t>(i) = value;
  return t;
}

// A range input holds one float. Before, each kernel read the first float
// of whatever it was given: past the end of an empty tensor, or ignoring
// the rest of a longer one.
TEST(QuantizationTest, QuantizeRejectsRangeOfTwoFloats) {
  Status s = RunQuantOp("Quantize", {Tensor::Vec<float>({0.5f}),
                                     Tensor::Vec<float>({-1.0f, 0.0f}),
                                     Tensor::Scalar(1.0f)});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

TEST(QuantizationTest, DequantizeRejectsEmptyRange) {
  Status s = RunQuantOp("Dequantize",
                        {Bytes(1, 1, 7), Tensor::Scalar(-1.0f),
                         Tensor(DataType::kFloat, TensorShape({0}))});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

TEST(QuantizationTest, QuantizedMatMulRejectsNonScalarRange) {
  Status s = RunQuantOp(
      "QuantizedMatMul",
      {Bytes(2, 3, 1), Bytes(3, 2, 1), Tensor::Scalar(-1.0f),
       Tensor::Scalar(1.0f), Tensor::Vec<float>({-1.0f, 5.0f}),
       Tensor::Scalar(1.0f)});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

TEST(QuantizationTest, QuantizedMatMulSumsExactlyPastTheInt32Range) {
  // 40,000 products of 255 * 255 sum to 2,601,000,000, past INT32_MAX
  // (an int32 accumulator wraps once k > 33,025). With ranges [0, 255]
  // every scale is 1 and every offset 0, so each output is that sum
  // rounded once to float.
  constexpr int64_t kK = 40000;
  std::vector<Tensor> out;
  Status s = RunQuantOp(
      "QuantizedMatMul",
      {Bytes(2, kK, 255), Bytes(kK, 3, 255), Tensor::Scalar(0.0f),
       Tensor::Scalar(255.0f), Tensor::Scalar(0.0f), Tensor::Scalar(255.0f)},
      &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(out[0].shape().DebugString(), "[2,3]");
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[0].flat<float>(i), static_cast<float>(kK * 255 * 255)) << i;
  }
}

TEST(DeviceSetterTest, RoundRobinCycles) {
  train::ReplicaDeviceSetter setter(3, "/job:worker/task:0");
  EXPECT_EQ(setter.NextPsDevice(), "/job:ps/task:0");
  EXPECT_EQ(setter.NextPsDevice(), "/job:ps/task:1");
  EXPECT_EQ(setter.NextPsDevice(), "/job:ps/task:2");
  EXPECT_EQ(setter.NextPsDevice(), "/job:ps/task:0");
  EXPECT_EQ(setter.worker_device(), "/job:worker/task:0");
}

TEST(DeviceSetterTest, LeastLoadedBalancesBytes) {
  train::ReplicaDeviceSetter setter(
      2, "/job:worker/task:0",
      train::ReplicaDeviceSetter::Strategy::kLeastLoaded);
  EXPECT_EQ(setter.NextPsDevice(100), "/job:ps/task:0");
  // Task 0 holds 100 bytes; the next (small) variable goes to task 1, and
  // further small ones keep filling task 1 until it catches up.
  EXPECT_EQ(setter.NextPsDevice(10), "/job:ps/task:1");
  EXPECT_EQ(setter.NextPsDevice(10), "/job:ps/task:1");
  EXPECT_EQ(setter.ps_bytes()[0], 100);
  EXPECT_EQ(setter.ps_bytes()[1], 20);
  // A large one lands on task 1 too (still least loaded), then task 0.
  EXPECT_EQ(setter.NextPsDevice(200), "/job:ps/task:1");
  EXPECT_EQ(setter.NextPsDevice(1), "/job:ps/task:0");
}

}  // namespace
}  // namespace tfrepro
