// Element-wise mathematical kernels: binary ops with broadcasting, unary
// ops, comparisons, logical ops, Select, Cast, AddN, and the fused
// activation gradients the paper calls out in §5. The plain per-element
// loops run through Elementwise (kernels/lanes.h).

#include <cmath>
#include <type_traits>

#include "kernels/broadcast.h"
#include "kernels/elementwise_functors.h"
#include "kernels/dispatch.h"
#include "kernels/lanes.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

// Binary ops with broadcasting. Comparisons return bool; the other ops
// return their input type.
template <typename Functor>
class BinaryOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    constexpr bool kBoolOut =
        std::is_same_v<decltype(Functor::Run(0, 0)), bool>;
    Tensor a = ctx->input(0);
    Tensor b = ctx->input(1);
    OP_REQUIRES(ctx, BaseType(a.dtype()) == BaseType(b.dtype()),
                InvalidArgument("binary op input dtypes differ"));
    Result<TensorShape> out_shape = BroadcastShape(a.shape(), b.shape());
    OP_REQUIRES_OK(ctx, out_shape.status());
    Tensor out(kBoolOut ? DataType::kBool : BaseType(a.dtype()),
               out_shape.value());
    OP_REQUIRES_OK(ctx, NumericDispatch(a.dtype(), [&](auto tag) {
      using T = decltype(tag);
      using Out = std::conditional_t<kBoolOut, bool, T>;
      BroadcastBinary<T, Out>(a.data<T>(), a.shape(), b.data<T>(), b.shape(),
                              out.data<Out>(), out.shape(), RunOf<Functor>{});
    }));
    ctx->set_output(0, std::move(out));
  }
};

REGISTER_KERNEL("Add", kDeviceCpu, BinaryOp<AddFunc>);
REGISTER_KERNEL("Sub", kDeviceCpu, BinaryOp<SubFunc>);
REGISTER_KERNEL("Mul", kDeviceCpu, BinaryOp<MulFunc>);
REGISTER_KERNEL("Div", kDeviceCpu, BinaryOp<DivFunc>);
REGISTER_KERNEL("FloorDiv", kDeviceCpu, BinaryOp<FloorDivFunc>);
REGISTER_KERNEL("Mod", kDeviceCpu, BinaryOp<ModFunc>);
REGISTER_KERNEL("Pow", kDeviceCpu, BinaryOp<PowFunc>);
REGISTER_KERNEL("Maximum", kDeviceCpu, BinaryOp<MaximumFunc>);
REGISTER_KERNEL("Minimum", kDeviceCpu, BinaryOp<MinimumFunc>);
REGISTER_KERNEL("SquaredDifference", kDeviceCpu, BinaryOp<SquaredDifferenceFunc>);

// Comparisons: T x T -> bool.
struct LessFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x < y;
  }
};
struct LessEqualFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x <= y;
  }
};
struct GreaterFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x > y;
  }
};
struct GreaterEqualFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x >= y;
  }
};
struct EqualFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x == y;
  }
};
struct NotEqualFunc {
  template <typename T>
  static bool Run(T x, T y) {
    return x != y;
  }
};

REGISTER_KERNEL("Less", kDeviceCpu, BinaryOp<LessFunc>);
REGISTER_KERNEL("LessEqual", kDeviceCpu, BinaryOp<LessEqualFunc>);
REGISTER_KERNEL("Greater", kDeviceCpu, BinaryOp<GreaterFunc>);
REGISTER_KERNEL("GreaterEqual", kDeviceCpu, BinaryOp<GreaterEqualFunc>);
REGISTER_KERNEL("Equal", kDeviceCpu, BinaryOp<EqualFunc>);
REGISTER_KERNEL("NotEqual", kDeviceCpu, BinaryOp<NotEqualFunc>);

// Unary ops.
template <typename Functor>
class UnaryOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor x = ctx->input(0);
    Tensor out(BaseType(x.dtype()), x.shape());
    OP_REQUIRES_OK(ctx, NumericDispatch(x.dtype(), [&](auto tag) {
      using T = decltype(tag);
      Elementwise(x.num_elements(), out.data<T>(), RunOf<Functor>{},
                  x.data<T>());
    }));
    ctx->set_output(0, std::move(out));
  }
};

REGISTER_KERNEL("Neg", kDeviceCpu, UnaryOp<NegFunc>);
REGISTER_KERNEL("Exp", kDeviceCpu, UnaryOp<ExpFunc>);
REGISTER_KERNEL("Log", kDeviceCpu, UnaryOp<LogFunc>);
REGISTER_KERNEL("Sqrt", kDeviceCpu, UnaryOp<SqrtFunc>);
REGISTER_KERNEL("Rsqrt", kDeviceCpu, UnaryOp<RsqrtFunc>);
REGISTER_KERNEL("Square", kDeviceCpu, UnaryOp<SquareFunc>);
REGISTER_KERNEL("Abs", kDeviceCpu, UnaryOp<AbsFunc>);
REGISTER_KERNEL("Sign", kDeviceCpu, UnaryOp<SignFunc>);
REGISTER_KERNEL("Tanh", kDeviceCpu, UnaryOp<TanhFunc>);
REGISTER_KERNEL("Sigmoid", kDeviceCpu, UnaryOp<SigmoidFunc>);
REGISTER_KERNEL("Relu", kDeviceCpu, UnaryOp<ReluFunc>);
REGISTER_KERNEL("Floor", kDeviceCpu, UnaryOp<FloorFunc>);
REGISTER_KERNEL("Ceil", kDeviceCpu, UnaryOp<CeilFunc>);
REGISTER_KERNEL("Reciprocal", kDeviceCpu, UnaryOp<ReciprocalFunc>);

// Fused activation gradients (paper §5).
struct ReluGradFunc : LaneFunctor {
  template <typename T>
  static T Run(T g, T x) {
    return x > T{0} ? g : T{0};
  }
};

// dz = dy * y * (1 - y), with y = sigmoid(x).
struct SigmoidGradFunc : LaneFunctor {
  template <typename T>
  static T Run(T y, T dy) {
    return dy * y * (Broadcast<T>(1) - y);
  }
};

// dz = dy * (1 - y^2), with y = tanh(x).
struct TanhGradFunc : LaneFunctor {
  template <typename T>
  static T Run(T y, T dy) {
    return dy * (Broadcast<T>(1) - y * y);
  }
};

template <typename Functor>
class ActivationGradOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor a = ctx->input(0);
    Tensor b = ctx->input(1);
    OP_REQUIRES(ctx, a.shape() == b.shape(),
                InvalidArgument(op() + " shapes differ: " +
                                a.shape().DebugString() + " vs " +
                                b.shape().DebugString()));
    Tensor out(BaseType(a.dtype()), a.shape());
    OP_REQUIRES_OK(ctx, FloatDispatch(a.dtype(), [&](auto tag) {
      using T = decltype(tag);
      Elementwise(a.num_elements(), out.data<T>(), RunOf<Functor>{},
                  a.data<T>(), b.data<T>());
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("ReluGrad", kDeviceCpu, ActivationGradOp<ReluGradFunc>);
REGISTER_KERNEL("SigmoidGrad", kDeviceCpu, ActivationGradOp<SigmoidGradFunc>);
REGISTER_KERNEL("TanhGrad", kDeviceCpu, ActivationGradOp<TanhGradFunc>);

struct LogicalAndFunc {
  static bool Run(bool x, bool y) { return x && y; }
};
struct LogicalOrFunc {
  static bool Run(bool x, bool y) { return x || y; }
};

template <typename Functor>
class LogicalBinaryOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor a = ctx->input(0);
    Tensor b = ctx->input(1);
    Result<TensorShape> out_shape = BroadcastShape(a.shape(), b.shape());
    OP_REQUIRES_OK(ctx, out_shape.status());
    Tensor out(DataType::kBool, out_shape.value());
    BroadcastBinary<bool, bool>(a.data<bool>(), a.shape(), b.data<bool>(),
                                b.shape(), out.data<bool>(), out.shape(),
                                RunOf<Functor>{});
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("LogicalAnd", kDeviceCpu, LogicalBinaryOp<LogicalAndFunc>);
REGISTER_KERNEL("LogicalOr", kDeviceCpu, LogicalBinaryOp<LogicalOrFunc>);

class LogicalNotOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor x = ctx->input(0);
    Tensor out(DataType::kBool, x.shape());
    const bool* in = x.data<bool>();
    bool* o = out.data<bool>();
    for (int64_t i = 0, n = x.num_elements(); i < n; ++i) o[i] = !in[i];
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("LogicalNot", kDeviceCpu, LogicalNotOp);

// Select(cond, t, e): elementwise cond ? t : e. cond may match t's shape or
// be a vector over dim 0.
class SelectOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor c = ctx->input(0);
    Tensor t = ctx->input(1);
    Tensor e = ctx->input(2);
    OP_REQUIRES(ctx, t.shape() == e.shape(),
                InvalidArgument("Select branches must have equal shapes"));
    Tensor out(BaseType(t.dtype()), t.shape());
    const bool* cp = c.data<bool>();
    int64_t n = t.num_elements();
    OP_REQUIRES_OK(ctx, NumericDispatch(t.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* tp = t.data<T>();
      const T* ep = e.data<T>();
      T* o = out.data<T>();
      if (c.shape() == t.shape()) {
        for (int64_t i = 0; i < n; ++i) o[i] = cp[i] ? tp[i] : ep[i];
      } else if (c.shape().rank() == 1 && t.shape().rank() >= 1 &&
                 c.dim(0) == t.dim(0)) {
        int64_t row = n / t.dim(0);
        for (int64_t r = 0; r < t.dim(0); ++r) {
          for (int64_t j = 0; j < row; ++j) {
            o[r * row + j] = cp[r] ? tp[r * row + j] : ep[r * row + j];
          }
        }
      } else if (c.IsScalar()) {
        for (int64_t i = 0; i < n; ++i) o[i] = cp[0] ? tp[i] : ep[i];
      } else {
        // Leave output unset and flag the error below.
      }
    }));
    OP_REQUIRES(ctx,
                c.shape() == t.shape() || c.IsScalar() ||
                    (c.shape().rank() == 1 && t.shape().rank() >= 1 &&
                     c.dim(0) == t.dim(0)),
                InvalidArgument("Select condition shape incompatible"));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Select", kDeviceCpu, SelectOp);

class CastOp : public OpKernel {
 public:
  explicit CastOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetTypeAttr("DstT", &dst_));
  }
  void Compute(OpKernelContext* ctx) override {
    Tensor x = ctx->input(0);
    Tensor out(dst_, x.shape());
    const int64_t n = x.num_elements();
    Status s = NumericDispatch(x.dtype(), [&](auto src_tag) {
      using Src = decltype(src_tag);
      const Src* in = x.data<Src>();
      Status s2 = NumericDispatch(dst_, [&](auto dst_tag) {
        using Dst = decltype(dst_tag);
        Dst* o = out.data<Dst>();
        for (int64_t i = 0; i < n; ++i) o[i] = static_cast<Dst>(in[i]);
      });
      (void)s2;
    });
    // Also allow bool source.
    if (!s.ok() && BaseType(x.dtype()) == DataType::kBool) {
      const bool* in = x.data<bool>();
      s = NumericDispatch(dst_, [&](auto dst_tag) {
        using Dst = decltype(dst_tag);
        Dst* o = out.data<Dst>();
        for (int64_t i = 0; i < n; ++i) o[i] = static_cast<Dst>(in[i] ? 1 : 0);
      });
    }
    OP_REQUIRES_OK(ctx, s);
    ctx->set_output(0, std::move(out));
  }

 private:
  DataType dst_ = DataType::kInvalid;
};
REGISTER_KERNEL("Cast", kDeviceCpu, CastOp);

// Sums grad down to target's shape: the inverse of broadcasting. Used by
// the gradients of broadcasting binary ops.
class SumToShapeOfOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor grad = ctx->input(0);
    Tensor target = ctx->input(1);
    if (grad.shape() == target.shape()) {
      ctx->set_output(0, grad);
      return;
    }
    // Check target broadcasts to grad's shape.
    Result<TensorShape> check = BroadcastShape(grad.shape(), target.shape());
    OP_REQUIRES_OK(ctx, check.status());
    OP_REQUIRES(ctx, check.value() == grad.shape(),
                InvalidArgument("SumToShapeOf: target shape " +
                                target.shape().DebugString() +
                                " does not broadcast to grad shape " +
                                grad.shape().DebugString()));
    Tensor out(BaseType(grad.dtype()), target.shape());  // zero-filled
    std::vector<int64_t> strides =
        BroadcastStrides(target.shape(), grad.shape());
    int rank = grad.shape().rank();
    OP_REQUIRES_OK(ctx, NumericDispatch(grad.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* g = grad.data<T>();
      T* o = out.data<T>();
      std::vector<int64_t> index(rank, 0);
      int64_t oi = 0;
      int64_t n = grad.num_elements();
      for (int64_t i = 0; i < n; ++i) {
        o[oi] += g[i];
        for (int d = rank - 1; d >= 0; --d) {
          ++index[d];
          oi += strides[d];
          if (index[d] < grad.dim(d)) break;
          index[d] = 0;
          oi -= strides[d] * grad.dim(d);
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("SumToShapeOf", kDeviceCpu, SumToShapeOfOp);

class AddNOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    OP_REQUIRES(ctx, ctx->num_inputs() >= 1,
                InvalidArgument("AddN needs at least one input"));
    Tensor first = ctx->input(0);
    for (int i = 1; i < ctx->num_inputs(); ++i) {
      OP_REQUIRES(ctx, ctx->input(i).shape() == first.shape(),
                  InvalidArgument("AddN inputs must have equal shapes"));
    }
    // out starts at zero and adds the inputs in order, per element.
    Tensor out(BaseType(first.dtype()), first.shape());
    const int64_t n = out.num_elements();
    OP_REQUIRES_OK(ctx, NumericDispatch(first.dtype(), [&](auto tag) {
      using T = decltype(tag);
      T* o = out.data<T>();
      for (int i = 0; i < ctx->num_inputs(); ++i) {
        Elementwise(n, o, RunOf<AddFunc>{}, o, ctx->input(i).data<T>());
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("AddN", kDeviceCpu, AddNOp);

}  // namespace
}  // namespace tfrepro
