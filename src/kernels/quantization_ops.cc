// Quantization kernels (paper §5): affine uint8 quantization and a
// gemmlowp-style low-precision matrix multiply with int32 accumulation.
// Quantized inference trades a little accuracy for integer arithmetic —
// the mobile/datacenter-inference path the paper describes.

#include <cmath>

#include "kernels/dispatch.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

// value = min + q * (max - min) / 255.
struct QuantParams {
  float min;
  float scale;     // (max - min) / 255
  float inv_scale;
};

Result<QuantParams> GetParams(float min_range, float max_range) {
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
    Result<QuantParams> params = GetParams(*ctx->input(1).data<float>(),
                                           *ctx->input(2).data<float>());
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
    Result<QuantParams> params = GetParams(*ctx->input(1).data<float>(),
                                           *ctx->input(2).data<float>());
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
    Result<QuantParams> pa = GetParams(*ctx->input(2).data<float>(),
                                       *ctx->input(3).data<float>());
    OP_REQUIRES_OK(ctx, pa.status());
    Result<QuantParams> pb = GetParams(*ctx->input(4).data<float>(),
                                       *ctx->input(5).data<float>());
    OP_REQUIRES_OK(ctx, pb.status());

    int64_t m = a.dim(0);
    int64_t k = a.dim(1);
    int64_t n = b.dim(1);
    const uint8_t* ap = a.data<uint8_t>();
    const uint8_t* bp = b.data<uint8_t>();

    // Row sums of a and column sums of b for the cross terms.
    std::vector<int64_t> row_sum(m, 0);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t kk = 0; kk < k; ++kk) row_sum[i] += ap[i * k + kk];
    }
    std::vector<int64_t> col_sum(n, 0);
    for (int64_t kk = 0; kk < k; ++kk) {
      for (int64_t j = 0; j < n; ++j) col_sum[j] += bp[kk * n + j];
    }

    Tensor out(DataType::kFloat, TensorShape({m, n}));
    float* o = out.data<float>();
    const float sa = pa.value().scale;
    const float sb = pb.value().scale;
    const float ma = pa.value().min;
    const float mb = pb.value().min;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        int64_t acc = 0;  // integer dot product
        for (int64_t kk = 0; kk < k; ++kk) {
          acc += static_cast<int64_t>(ap[i * k + kk]) * bp[kk * n + j];
        }
        // (ma + sa*qa) . (mb + sb*qb) expanded over k terms.
        o[i * n + j] = static_cast<float>(acc) * sa * sb +
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
