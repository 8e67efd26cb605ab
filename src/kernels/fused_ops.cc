// _FusedElementwise: executes a whole chain of unary/binary element-wise
// ops in one kernel dispatch (DESIGN.md §13). The recipe comes from the
// fusion pass as attrs: `ops` (original op names in execution order) and
// `chain_lhs` (per step, whether the accumulator feeds the left operand of
// a binary step). The accumulator starts at inputs[0]; each binary step
// consumes the next external input.
//
// Bit-exactness contract: every step applies the exact same functor the
// standalone kernel would (kernels/elementwise_functors.h), and the fast
// path evaluates steps in the same order with the same float type, so fused
// and unfused executions agree bit-for-bit.

#include <vector>

#include "kernels/broadcast.h"
#include "kernels/dispatch.h"
#include "kernels/elementwise_functors.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

class FusedElementwiseOp : public OpKernel {
 public:
  explicit FusedElementwiseOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    std::vector<std::string> op_names;
    std::vector<int64_t> chain_lhs;
    int64_t n = 0;
    ctx->SetStatus(ctx->GetStringListAttr("ops", &op_names));
    ctx->SetStatus(ctx->GetIntListAttr("chain_lhs", &chain_lhs));
    ctx->SetStatus(ctx->GetIntAttr("N", &n));
    ctx->SetStatus(ctx->GetTypeAttr("T", &dtype_));
    if (!ctx->status().ok()) return;
    if (chain_lhs.size() != op_names.size()) {
      ctx->SetStatus(InvalidArgument(
          "_FusedElementwise: ops/chain_lhs length mismatch"));
      return;
    }
    int64_t consumed = 1;  // inputs[0] seeds the accumulator
    for (size_t i = 0; i < op_names.size(); ++i) {
      Step step;
      step.binary = BinaryEwiseFromOp(op_names[i]);
      if (step.binary == BinaryEwise::kInvalid) {
        step.unary = UnaryEwiseFromOp(op_names[i]);
        if (step.unary == UnaryEwise::kInvalid) {
          ctx->SetStatus(InvalidArgument(
              "_FusedElementwise: '" + op_names[i] +
              "' is not a fusable element-wise op"));
          return;
        }
      } else {
        step.rhs_input = static_cast<int>(consumed++);
        step.acc_is_lhs = chain_lhs[i] != 0;
      }
      steps_.push_back(step);
    }
    if (consumed != n) {
      ctx->SetStatus(InvalidArgument(
          "_FusedElementwise: recipe consumes " + std::to_string(consumed) +
          " inputs but N = " + std::to_string(n)));
    }
  }

  void Compute(OpKernelContext* ctx) override {
    const int n = ctx->num_inputs();
    std::vector<Tensor> inputs;
    inputs.reserve(n);
    for (int i = 0; i < n; ++i) {
      Tensor t = ctx->input(i);
      OP_REQUIRES(ctx, BaseType(t.dtype()) == BaseType(dtype_),
                  InvalidArgument("_FusedElementwise input dtype mismatch"));
      inputs.push_back(std::move(t));
    }

    // The output shape is the step-by-step broadcast of the chain, exactly
    // as the unfused kernels would compute it.
    TensorShape acc_shape = inputs[0].shape();
    for (const Step& s : steps_) {
      if (s.binary == BinaryEwise::kInvalid) continue;
      Result<TensorShape> bs =
          BroadcastShape(acc_shape, inputs[s.rhs_input].shape());
      OP_REQUIRES_OK(ctx, bs.status());
      acc_shape = bs.value();
    }

    // Fast path: every input is either a scalar or already has the output
    // shape, so the whole chain runs element-at-a-time in registers with no
    // intermediate buffers — this is the fused single loop.
    bool elementwise = true;
    for (const Tensor& t : inputs) {
      if (t.num_elements() != 1 && !(t.shape() == acc_shape)) {
        elementwise = false;
        break;
      }
    }

    Tensor out(BaseType(dtype_), acc_shape);
    if (elementwise) {
      OP_REQUIRES_OK(ctx, NumericDispatch(dtype_, [&](auto tag) {
        using T = decltype(tag);
        std::vector<const T*> in(n);
        std::vector<int64_t> stride(n);
        for (int i = 0; i < n; ++i) {
          in[i] = inputs[i].data<T>();
          stride[i] = inputs[i].num_elements() == 1 ? 0 : 1;
        }
        T* o = out.data<T>();
        const int64_t count = acc_shape.num_elements();
        for (int64_t e = 0; e < count; ++e) {
          T acc = in[0][e * stride[0]];
          for (const Step& s : steps_) {
            if (s.binary != BinaryEwise::kInvalid) {
              T rhs = in[s.rhs_input][e * stride[s.rhs_input]];
              acc = s.acc_is_lhs ? ApplyBinaryEwise<T>(s.binary, acc, rhs)
                                 : ApplyBinaryEwise<T>(s.binary, rhs, acc);
            } else {
              acc = ApplyUnaryEwise<T>(s.unary, acc);
            }
          }
          o[e] = acc;
        }
      }));
    } else {
      // General broadcasting: materialize each step with the same
      // BroadcastBinary the standalone kernels use. Still one dispatch.
      OP_REQUIRES_OK(ctx, NumericDispatch(dtype_, [&](auto tag) {
        using T = decltype(tag);
        Tensor acc = inputs[0];
        for (const Step& s : steps_) {
          if (s.binary != BinaryEwise::kInvalid) {
            const Tensor& rhs = inputs[s.rhs_input];
            Result<TensorShape> bs = BroadcastShape(acc.shape(), rhs.shape());
            if (!bs.ok()) return;  // caught by the shape fold above
            Tensor next(BaseType(dtype_), bs.value());
            const Tensor& a = s.acc_is_lhs ? acc : rhs;
            const Tensor& b = s.acc_is_lhs ? rhs : acc;
            BinaryEwise op = s.binary;
            BroadcastBinary<T, T>(a.data<T>(), a.shape(), b.data<T>(),
                                  b.shape(), next.data<T>(), next.shape(),
                                  [op](T x, T y) {
                                    return ApplyBinaryEwise<T>(op, x, y);
                                  });
            acc = std::move(next);
          } else {
            Tensor next(BaseType(dtype_), acc.shape());
            const T* a = acc.data<T>();
            T* o = next.data<T>();
            for (int64_t i = 0, count = acc.num_elements(); i < count; ++i) {
              o[i] = ApplyUnaryEwise<T>(s.unary, a[i]);
            }
            acc = std::move(next);
          }
        }
        out = std::move(acc);
      }));
    }
    ctx->set_output(0, std::move(out));
  }

 private:
  struct Step {
    BinaryEwise binary = BinaryEwise::kInvalid;
    UnaryEwise unary = UnaryEwise::kInvalid;
    int rhs_input = -1;     // external input index for binary steps
    bool acc_is_lhs = true; // accumulator feeds the left operand
  };

  DataType dtype_ = DataType::kFloat;
  std::vector<Step> steps_;
};

REGISTER_KERNEL("_FusedElementwise", kDeviceCpu, FusedElementwiseOp);

}  // namespace
}  // namespace tfrepro
