// Fused optimizer-update kernels (paper §4.1/§5). Each optimizer is also
// expressible as a composition of primitive ops — src/train builds both —
// but these fused kernels show the "users can register additional kernels
// for performance-critical subcomputations" path.

#include <cmath>
#include <initializer_list>
#include <mutex>

#include "kernels/dispatch.h"
#include "kernels/lanes.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

// Locks a ref input and checks it is an initialized variable.
#define GET_VAR(ctx, index, var, mu)                                     \
  std::mutex* mu = nullptr;                                              \
  Tensor* var = (ctx)->mutable_input_ref(index, &mu);                    \
  OP_REQUIRES(ctx, var != nullptr,                                       \
              InvalidArgument("input " #index " is not a ref"));         \
  OP_REQUIRES(ctx, var->IsInitialized(),                                 \
              FailedPrecondition("variable used before initialization"))

// A dense update reads or writes each of these tensors at every index of
// var, so each must have var's shape. Checked before anything is written.
Status CheckShapes(const std::string& op, const Tensor& var,
                   std::initializer_list<const Tensor*> tensors) {
  for (const Tensor* t : tensors) {
    if (t->shape() != var.shape()) {
      return InvalidArgument(op + " shape mismatch: var " +
                             var.shape().DebugString() + " vs " +
                             t->shape().DebugString());
    }
  }
  return Status::OK();
}

// The SGD step, var - alpha * delta.
struct SgdFunc : LaneFunctor {
  template <typename T>
  static T Run(T var, T alpha, T delta) {
    return var - alpha * delta;
  }
};

// The momentum accumulator's update.
struct MomentumFunc : LaneFunctor {
  template <typename T>
  static T Run(T momentum, T accum, T grad) {
    return momentum * accum + grad;
  }
};

class ApplyGradientDescentOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu);
    Tensor alpha = ctx->input(1);
    Tensor delta = ctx->input(2);
    std::lock_guard<std::mutex> lock(*mu);
    OP_REQUIRES_OK(ctx, CheckShapes(op(), *var, {&delta}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T* v = var->data<T>();
      Elementwise(var->num_elements(), v, RunOf<SgdFunc>{}, v,
                  *alpha.data<T>(), delta.data<T>());
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyGradientDescent", kDeviceCpu, ApplyGradientDescentOp);

// accum = momentum * accum + grad; var -= lr * accum.
class ApplyMomentumOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, accum, mu_accum);
    Tensor lr = ctx->input(2);
    Tensor grad = ctx->input(3);
    Tensor momentum = ctx->input(4);
    std::lock_guard<std::mutex> lock(*mu_var);
    OP_REQUIRES_OK(ctx, CheckShapes(op(), *var, {accum, &grad}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      const int64_t n = var->num_elements();
      T* v = var->data<T>();
      T* a = accum->data<T>();
      Elementwise(n, a, RunOf<MomentumFunc>{}, *momentum.data<T>(), a,
                  grad.data<T>());
      Elementwise(n, v, RunOf<SgdFunc>{}, v, *lr.data<T>(), a);
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyMomentum", kDeviceCpu, ApplyMomentumOp);

// accum += grad^2; var -= lr * grad / sqrt(accum).
class ApplyAdagradOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, accum, mu_accum);
    Tensor lr = ctx->input(2);
    Tensor grad = ctx->input(3);
    std::lock_guard<std::mutex> lock(*mu_var);
    OP_REQUIRES_OK(ctx, CheckShapes(op(), *var, {accum, &grad}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T l = *lr.data<T>();
      T* v = var->data<T>();
      T* a = accum->data<T>();
      const T* g = grad.data<T>();
      for (int64_t i = 0, n = var->num_elements(); i < n; ++i) {
        a[i] += g[i] * g[i];
        v[i] -= l * g[i] / static_cast<T>(std::sqrt(static_cast<double>(a[i])));
      }
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyAdagrad", kDeviceCpu, ApplyAdagradOp);

// Adadelta (Zeiler 2012).
class ApplyAdadeltaOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, accum, mu_accum);
    GET_VAR(ctx, 2, accum_update, mu_update);
    Tensor lr = ctx->input(3);
    Tensor rho = ctx->input(4);
    Tensor epsilon = ctx->input(5);
    Tensor grad = ctx->input(6);
    std::lock_guard<std::mutex> lock(*mu_var);
    OP_REQUIRES_OK(ctx, CheckShapes(op(), *var, {accum, accum_update, &grad}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T l = *lr.data<T>();
      T r = *rho.data<T>();
      T eps = *epsilon.data<T>();
      T* v = var->data<T>();
      T* a = accum->data<T>();
      T* u = accum_update->data<T>();
      const T* g = grad.data<T>();
      for (int64_t i = 0, n = var->num_elements(); i < n; ++i) {
        a[i] = r * a[i] + (T{1} - r) * g[i] * g[i];
        T update = static_cast<T>(std::sqrt(static_cast<double>(u[i] + eps)) /
                                  std::sqrt(static_cast<double>(a[i] + eps))) *
                   g[i];
        u[i] = r * u[i] + (T{1} - r) * update * update;
        v[i] -= l * update;
      }
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyAdadelta", kDeviceCpu, ApplyAdadeltaOp);

// RMSProp.
class ApplyRMSPropOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, ms, mu_ms);
    GET_VAR(ctx, 2, mom, mu_mom);
    Tensor lr = ctx->input(3);
    Tensor rho = ctx->input(4);
    Tensor momentum = ctx->input(5);
    Tensor epsilon = ctx->input(6);
    Tensor grad = ctx->input(7);
    std::lock_guard<std::mutex> lock(*mu_var);
    OP_REQUIRES_OK(ctx, CheckShapes(op(), *var, {ms, mom, &grad}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T l = *lr.data<T>();
      T r = *rho.data<T>();
      T m = *momentum.data<T>();
      T eps = *epsilon.data<T>();
      T* v = var->data<T>();
      T* msp = ms->data<T>();
      T* momp = mom->data<T>();
      const T* g = grad.data<T>();
      for (int64_t i = 0, n = var->num_elements(); i < n; ++i) {
        msp[i] = r * msp[i] + (T{1} - r) * g[i] * g[i];
        momp[i] = m * momp[i] +
                  l * g[i] /
                      static_cast<T>(
                          std::sqrt(static_cast<double>(msp[i] + eps)));
        v[i] -= momp[i];
      }
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyRMSProp", kDeviceCpu, ApplyRMSPropOp);

// Adam (Kingma & Ba 2015).
class ApplyAdamOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    GET_VAR(ctx, 1, m, mu_m);
    GET_VAR(ctx, 2, v_acc, mu_v);
    Tensor beta1_power = ctx->input(3);
    Tensor beta2_power = ctx->input(4);
    Tensor lr = ctx->input(5);
    Tensor beta1 = ctx->input(6);
    Tensor beta2 = ctx->input(7);
    Tensor epsilon = ctx->input(8);
    Tensor grad = ctx->input(9);
    std::lock_guard<std::mutex> lock(*mu_var);
    OP_REQUIRES_OK(ctx, CheckShapes(op(), *var, {m, v_acc, &grad}));
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T b1p = *beta1_power.data<T>();
      T b2p = *beta2_power.data<T>();
      T l = *lr.data<T>();
      T b1 = *beta1.data<T>();
      T b2 = *beta2.data<T>();
      T eps = *epsilon.data<T>();
      T alpha = l *
                static_cast<T>(std::sqrt(1.0 - static_cast<double>(b2p))) /
                (T{1} - b1p);
      T* v = var->data<T>();
      T* mp = m->data<T>();
      T* vp = v_acc->data<T>();
      const T* g = grad.data<T>();
      for (int64_t i = 0, n = var->num_elements(); i < n; ++i) {
        mp[i] += (T{1} - b1) * (g[i] - mp[i]);
        vp[i] += (T{1} - b2) * (g[i] * g[i] - vp[i]);
        v[i] -= alpha * mp[i] /
                (static_cast<T>(std::sqrt(static_cast<double>(vp[i]))) + eps);
      }
    }));
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("ApplyAdam", kDeviceCpu, ApplyAdamOp);

// Sparse updates (paper §4.2: updates touch only the gathered rows): row
// indices[i] of var takes row i of grad. SGD: var -= alpha * grad. Adagrad:
// accum += grad^2; var -= lr * grad / sqrt(accum), on the same rows.
template <bool kAdagrad>
class SparseApplyOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    GET_VAR(ctx, 0, var, mu_var);
    Tensor* accum = nullptr;
    if constexpr (kAdagrad) {
      GET_VAR(ctx, 1, slot, mu_slot);
      accum = slot;
    }
    constexpr int kLr = kAdagrad ? 2 : 1;
    Tensor lr = ctx->input(kLr);
    Tensor grad = ctx->input(kLr + 1);
    Tensor indices = ctx->input(kLr + 2);
    std::lock_guard<std::mutex> lock(*mu_var);
    int64_t rows = var->dim(0);
    int64_t row_elems = rows == 0 ? 0 : var->num_elements() / rows;
    OP_REQUIRES(ctx, grad.num_elements() == indices.num_elements() * row_elems,
                InvalidArgument(op() + ": grad does not hold one row of var "
                                       "per index"));
    if constexpr (kAdagrad) {
      OP_REQUIRES_OK(ctx, CheckShapes(op(), *var, {accum}));
    }
    Status index_status;
    Status dispatch_status;
    OP_REQUIRES_OK(ctx, FloatDispatch(var->dtype(), [&](auto tag) {
      using T = decltype(tag);
      T l = *lr.data<T>();
      T* v = var->data<T>();
      const T* g = grad.data<T>();
      dispatch_status = IndexDispatch(indices.dtype(), [&](auto itag) {
        using I = decltype(itag);
        const I* idx = indices.data<I>();
        for (int64_t i = 0, count = indices.num_elements(); i < count; ++i) {
          if (idx[i] < 0 || idx[i] >= rows) {
            index_status = OutOfRange("sparse update index out of range");
            return;
          }
          T* vrow = v + idx[i] * row_elems;
          const T* grow = g + i * row_elems;
          if constexpr (kAdagrad) {
            T* arow = accum->data<T>() + idx[i] * row_elems;
            for (int64_t j = 0; j < row_elems; ++j) {
              arow[j] += grow[j] * grow[j];
              vrow[j] -= l * grow[j] / static_cast<T>(std::sqrt(
                                           static_cast<double>(arow[j])));
            }
          } else {
            for (int64_t j = 0; j < row_elems; ++j) vrow[j] -= l * grow[j];
          }
        }
      });
    }));
    if (index_status.ok()) index_status = dispatch_status;
    OP_REQUIRES_OK(ctx, index_status);
    ctx->forward_ref_input_to_output(0, 0);
  }
};
REGISTER_KERNEL("SparseApplyGradientDescent", kDeviceCpu,
                SparseApplyOp<false>);
REGISTER_KERNEL("SparseApplyAdagrad", kDeviceCpu, SparseApplyOp<true>);

#undef GET_VAR

}  // namespace
}  // namespace tfrepro
