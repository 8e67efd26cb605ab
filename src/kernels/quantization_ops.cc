// Quantization kernels (paper §5): affine uint8 quantization and a
// gemmlowp-style low-precision matrix multiply with integer accumulation on
// the packed GEMM of kernels/gemm.h.
// Quantized inference trades a little accuracy for integer arithmetic —
// the mobile/datacenter-inference path the paper describes.

#include <cmath>
#include <vector>

#include "kernels/dispatch.h"
#include "kernels/gemm.h"
#include "runtime/device.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

// value = min + q * (max - min) / 255.
struct QuantParams {
  float min;
  float scale;     // (max - min) / 255
  float inv_scale;
};

// The range held by inputs `min` and `min + 1`, one float each.
Result<QuantParams> GetParams(OpKernelContext* ctx, int min) {
  const Tensor lo = ctx->input(min);
  const Tensor hi = ctx->input(min + 1);
  if (lo.num_elements() != 1 || hi.num_elements() != 1) {
    return InvalidArgument("quantization range inputs must hold one float "
                           "each, got " + lo.shape().DebugString() + " and " +
                           hi.shape().DebugString());
  }
  const float min_range = *lo.data<float>();
  const float max_range = *hi.data<float>();
  if (!(max_range > min_range)) {
    return InvalidArgument("quantization range must satisfy max > min");
  }
  QuantParams p;
  p.min = min_range;
  p.scale = (max_range - min_range) / 255.0f;
  p.inv_scale = 255.0f / (max_range - min_range);
  return p;
}

class QuantizeOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Result<QuantParams> params = GetParams(ctx, 1);
    OP_REQUIRES_OK(ctx, params.status());
    Tensor out(DataType::kUint8, input.shape());
    const float* in = input.data<float>();
    uint8_t* o = out.data<uint8_t>();
    for (int64_t i = 0, n = input.num_elements(); i < n; ++i) {
      float q = std::round((in[i] - params.value().min) *
                           params.value().inv_scale);
      o[i] = static_cast<uint8_t>(std::min(255.0f, std::max(0.0f, q)));
    }
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Quantize", kDeviceCpu, QuantizeOp);

class DequantizeOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Result<QuantParams> params = GetParams(ctx, 1);
    OP_REQUIRES_OK(ctx, params.status());
    Tensor out(DataType::kFloat, input.shape());
    const uint8_t* in = input.data<uint8_t>();
    float* o = out.data<float>();
    for (int64_t i = 0, n = input.num_elements(); i < n; ++i) {
      o[i] = params.value().min + in[i] * params.value().scale;
    }
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Dequantize", kDeviceCpu, DequantizeOp);

// product[i,j] = sum_k dequant(a[i,k]) * dequant(b[k,j]), computed with
// integer accumulation: expanding the affine form gives four terms, three
// of which reduce to row/column sums — the standard gemmlowp trick.
class QuantizedMatMulOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor a = ctx->input(0);
    Tensor b = ctx->input(1);
    OP_REQUIRES(ctx, a.shape().rank() == 2 && b.shape().rank() == 2,
                InvalidArgument("QuantizedMatMul inputs must be rank-2"));
    OP_REQUIRES(ctx, a.dim(1) == b.dim(0),
                InvalidArgument("QuantizedMatMul inner dimensions differ"));
    Result<QuantParams> pa = GetParams(ctx, 2);
    OP_REQUIRES_OK(ctx, pa.status());
    Result<QuantParams> pb = GetParams(ctx, 4);
    OP_REQUIRES_OK(ctx, pb.status());

    const int64_t m = a.dim(0);
    const int64_t k = a.dim(1);
    const int64_t n = b.dim(1);
    const uint8_t* ap = a.data<uint8_t>();
    const uint8_t* bp = b.data<uint8_t>();

    // Both operands widened to int64 while taking the row sums of a and the
    // column sums of b for the cross terms.
    std::vector<int64_t> a64(m * k), b64(k * n), row_sum(m), col_sum(n);
    for (int64_t i = 0; i < m * k; ++i) {
      a64[i] = ap[i];
      row_sum[i / k] += a64[i];
    }
    for (int64_t i = 0; i < k * n; ++i) {
      b64[i] = bp[i];
      col_sum[i % n] += b64[i];
    }
    // The integer dot products; a uint8 product is below 2^16, so int64
    // holds any sum of fewer than 2^47 of them.
    std::vector<int64_t> acc(m * n);
    Gemm<int64_t>(a64.data(), b64.data(), acc.data(), m, k, n, false, false,
                  ctx->device() != nullptr ? ctx->device()->pool() : nullptr);

    Tensor out(DataType::kFloat, TensorShape({m, n}));
    float* o = out.data<float>();
    const float sa = pa.value().scale;
    const float sb = pb.value().scale;
    const float ma = pa.value().min;
    const float mb = pb.value().min;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        // (ma + sa*qa) . (mb + sb*qb) expanded over k terms.
        o[i * n + j] = static_cast<float>(acc[i * n + j]) * sa * sb +
                       ma * sb * static_cast<float>(col_sum[j]) +
                       mb * sa * static_cast<float>(row_sum[i]) +
                       ma * mb * static_cast<float>(k);
      }
    }
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("QuantizedMatMul", kDeviceCpu, QuantizedMatMulOp);

}  // namespace
}  // namespace tfrepro
