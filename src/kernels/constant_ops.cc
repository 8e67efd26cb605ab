// Kernels for constants, identity, placeholders, and the _Feed/_Fetch nodes
// inserted by session graph rewriting (paper §3.2).

#include <algorithm>
#include <mutex>

#include "kernels/dispatch.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

class ConstOp : public OpKernel {
 public:
  explicit ConstOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetTensorAttr("value", &value_));
    DataType dtype;
    Status s = ctx->GetTypeAttr("dtype", &dtype);
    if (s.ok() && value_.dtype() != dtype) {
      ctx->SetStatus(InvalidArgument("Const value dtype does not match attr"));
    }
  }
  void Compute(OpKernelContext* ctx) override { ctx->set_output(0, value_); }
  bool IsExpensive() const override { return false; }

 private:
  Tensor value_;
};
REGISTER_KERNEL("Const", kDeviceCpu, ConstOp);

class IdentityOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    ctx->set_output(0, ctx->input(0));
  }
  bool IsExpensive() const override { return false; }
};
REGISTER_KERNEL("Identity", kDeviceCpu, IdentityOp);
REGISTER_KERNEL("StopGradient", kDeviceCpu, IdentityOp);

class NoOpKernel : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {}
  bool IsExpensive() const override { return false; }
};
REGISTER_KERNEL("NoOp", kDeviceCpu, NoOpKernel);
REGISTER_KERNEL("ControlTrigger", kDeviceCpu, NoOpKernel);

// Placeholders must be replaced by feeds before execution.
class PlaceholderOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    ctx->SetStatus(InvalidArgument(
        "Placeholder '" + name() +
        "' was executed without being fed; pass a value for it in Run()"));
  }
};
REGISTER_KERNEL("Placeholder", kDeviceCpu, PlaceholderOp);

class FeedOp : public OpKernel {
 public:
  explicit FeedOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntAttr("index", &index_));
    ctx->SetStatus(ctx->GetTypeAttr("dtype", &dtype_));
  }
  void Compute(OpKernelContext* ctx) override {
    OP_REQUIRES(ctx, ctx->call_frame() != nullptr,
                Internal("_Feed executed without a call frame"));
    Result<Tensor> value = ctx->call_frame()->GetFeed(static_cast<int>(index_));
    OP_REQUIRES_OK(ctx, value.status());
    OP_REQUIRES(
        ctx, value.value().dtype() == dtype_,
        InvalidArgument("feed " + std::to_string(index_) + " has dtype " +
                        DataTypeName(value.value().dtype()) + ", expected " +
                        DataTypeName(dtype_)));
    ctx->set_output(0, std::move(value).value());
  }
  bool IsExpensive() const override { return false; }

 private:
  int64_t index_ = 0;
  DataType dtype_ = DataType::kInvalid;
};
REGISTER_KERNEL("_Feed", kDeviceCpu, FeedOp);

class FetchOp : public OpKernel {
 public:
  explicit FetchOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntAttr("index", &index_));
  }
  void Compute(OpKernelContext* ctx) override {
    OP_REQUIRES(ctx, ctx->call_frame() != nullptr,
                Internal("_Fetch executed without a call frame"));
    // Deep-copy: a fetch leaves the dataflow (in the distributed runtime it
    // would be serialized to the client), so it must be a snapshot that
    // later in-place variable updates cannot alias. When fetching a ref
    // output (a Variable), the snapshot is taken under the variable's mutex
    // so a concurrent Assign*'s in-place write can never tear it.
    Tensor snapshot;
    std::mutex* mu = nullptr;
    if (Tensor* ref = ctx->mutable_input_ref(0, &mu); ref != nullptr) {
      std::lock_guard<std::mutex> lock(*mu);
      snapshot = ref->Clone();
    } else {
      snapshot = ctx->input(0).Clone();
    }
    OP_REQUIRES_OK(ctx, ctx->call_frame()->SetFetch(static_cast<int>(index_),
                                                    std::move(snapshot)));
  }
  bool IsExpensive() const override { return false; }

 private:
  int64_t index_ = 0;
};
REGISTER_KERNEL("_Fetch", kDeviceCpu, FetchOp);

class ZerosLikeOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    ctx->set_output(0, Tensor(BaseType(in.dtype()), in.shape()));
  }
};
REGISTER_KERNEL("ZerosLike", kDeviceCpu, ZerosLikeOp);

class OnesLikeOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor in = ctx->input(0);
    Tensor out(BaseType(in.dtype()), in.shape());
    OP_REQUIRES_OK(ctx, NumericDispatch(in.dtype(), [&](auto tag) {
      using T = decltype(tag);
      std::fill_n(out.data<T>(), out.num_elements(), T{1});
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("OnesLike", kDeviceCpu, OnesLikeOp);

class FillOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor dims = ctx->input(0);
    Tensor value = ctx->input(1);
    OP_REQUIRES(ctx, dims.shape().rank() <= 1,
                InvalidArgument("Fill dims must be a vector"));
    OP_REQUIRES(ctx, value.IsScalar(),
                InvalidArgument("Fill value must be a scalar"));
    std::vector<int64_t> shape_dims;
    for (int64_t i = 0, rank = dims.num_elements(); i < rank; ++i) {
      shape_dims.push_back(dims.flat<int32_t>(i));
    }
    OP_REQUIRES_OK(ctx, ValidateShape(shape_dims));
    Tensor out(value.dtype(), TensorShape(shape_dims));
    OP_REQUIRES_OK(ctx, NumericDispatch(value.dtype(), [&](auto tag) {
      using T = decltype(tag);
      std::fill_n(out.data<T>(), out.num_elements(), *value.data<T>());
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Fill", kDeviceCpu, FillOp);

class RangeOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    int32_t start = *ctx->input(0).data<int32_t>();
    int32_t limit = *ctx->input(1).data<int32_t>();
    int32_t delta = *ctx->input(2).data<int32_t>();
    OP_REQUIRES(ctx, delta != 0, InvalidArgument("Range delta must not be 0"));
    int64_t n = 0;
    if (delta > 0 && limit > start) {
      n = (static_cast<int64_t>(limit) - start + delta - 1) / delta;
    } else if (delta < 0 && limit < start) {
      n = (static_cast<int64_t>(start) - limit - delta - 1) / (-delta);
    }
    Tensor out(DataType::kInt32, TensorShape({n}));
    int32_t v = start;
    for (int64_t i = 0; i < n; ++i, v += delta) out.flat<int32_t>(i) = v;
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Range", kDeviceCpu, RangeOp);

}  // namespace
}  // namespace tfrepro
