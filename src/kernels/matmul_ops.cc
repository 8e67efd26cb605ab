// MatMul and bias kernels. MatMul runs the packed GEMM of kernels/gemm.h
// for every transpose form, split into blocks of output across the device's
// threads — the workhorse of every model in the paper's evaluation.

#include "kernels/dispatch.h"
#include "kernels/elementwise_functors.h"
#include "kernels/gemm.h"
#include "kernels/lanes.h"
#include "runtime/device.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

class MatMulOp : public OpKernel {
 public:
  explicit MatMulOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetBoolAttr("transpose_a", &ta_));
    ctx->SetStatus(ctx->GetBoolAttr("transpose_b", &tb_));
  }
  void Compute(OpKernelContext* ctx) override {
    Tensor a = ctx->input(0);
    Tensor b = ctx->input(1);
    OP_REQUIRES(ctx, a.shape().rank() == 2 && b.shape().rank() == 2,
                InvalidArgument("MatMul inputs must be rank-2, got " +
                                a.shape().DebugString() + " and " +
                                b.shape().DebugString()));
    int64_t m = ta_ ? a.dim(1) : a.dim(0);
    int64_t k = ta_ ? a.dim(0) : a.dim(1);
    int64_t kb = tb_ ? b.dim(1) : b.dim(0);
    int64_t n = tb_ ? b.dim(0) : b.dim(1);
    OP_REQUIRES(ctx, k == kb,
                InvalidArgument("MatMul inner dimensions differ: " +
                                a.shape().DebugString() + " x " +
                                b.shape().DebugString()));
    Tensor out(BaseType(a.dtype()), TensorShape({m, n}));
    ThreadPool* pool =
        ctx->device() != nullptr ? ctx->device()->pool() : nullptr;
    OP_REQUIRES_OK(ctx, NumericDispatch(a.dtype(), [&](auto tag) {
      using T = decltype(tag);
      Gemm<T>(a.data<T>(), b.data<T>(), out.data<T>(), m, k, n, ta_, tb_,
              pool);
    }));
    ctx->set_output(0, std::move(out));
  }

 private:
  bool ta_ = false;
  bool tb_ = false;
};
REGISTER_KERNEL("MatMul", kDeviceCpu, MatMulOp);

// BiasAdd: value[..., c] + bias[c].
class BiasAddOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor value = ctx->input(0);
    Tensor bias = ctx->input(1);
    OP_REQUIRES(ctx, value.shape().rank() >= 1,
                InvalidArgument("BiasAdd value must have rank >= 1"));
    OP_REQUIRES(ctx, bias.shape().rank() == 1,
                InvalidArgument("BiasAdd bias must be a vector"));
    int64_t c = value.dim(value.shape().rank() - 1);
    OP_REQUIRES(ctx, bias.dim(0) == c,
                InvalidArgument("BiasAdd bias length " +
                                std::to_string(bias.dim(0)) +
                                " != channel count " + std::to_string(c)));
    Tensor out(BaseType(value.dtype()), value.shape());
    OP_REQUIRES_OK(ctx, NumericDispatch(value.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* v = value.data<T>();
      const T* bp = bias.data<T>();
      T* o = out.data<T>();
      const int64_t rows = c > 0 ? value.num_elements() / c : 0;
      for (int64_t r = 0; r < rows; ++r) {
        Elementwise(c, o + r * c, RunOf<AddFunc>{}, v + r * c, bp);
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("BiasAdd", kDeviceCpu, BiasAddOp);

// BiasAddGrad: sum out_backprop over all but the last dimension, each
// column in ascending row order.
class BiasAddGradOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor g = ctx->input(0);
    OP_REQUIRES(ctx, g.shape().rank() >= 1,
                InvalidArgument("BiasAddGrad input must have rank >= 1"));
    int64_t c = g.dim(g.shape().rank() - 1);
    Tensor out(BaseType(g.dtype()), TensorShape({c}));
    OP_REQUIRES_OK(ctx, NumericDispatch(g.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* gp = g.data<T>();
      T* o = out.data<T>();
      const int64_t rows = c > 0 ? g.num_elements() / c : 0;
      for (int64_t r = 0; r < rows; ++r) {
        Elementwise(c, o, RunOf<AddFunc>{}, o, gp + r * c);
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("BiasAddGrad", kDeviceCpu, BiasAddGradOp);

}  // namespace
}  // namespace tfrepro
