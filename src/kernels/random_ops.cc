// Random-number kernels built on the Philox counter RNG. Each kernel
// instance owns an independent stream keyed by its seed attrs and node
// name, so data-parallel workers draw decorrelated batches (paper §4.4:
// "SGD samples training data randomly, so each worker processes a
// different random batch").

#include <mutex>

#include "core/random.h"
#include "kernels/dispatch.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

uint64_t HashName(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Result<TensorShape> ShapeFromTensor(const Tensor& t) {
  std::vector<int64_t> dims;
  for (int64_t i = 0, rank = t.num_elements(); i < rank; ++i) {
    dims.push_back(t.flat<int32_t>(i));
  }
  TF_RETURN_IF_ERROR(ValidateShape(dims));
  return TensorShape(dims);
}

enum class RandomKind { kUniform, kNormal, kTruncatedNormal };

template <RandomKind K>
class RandomOp : public OpKernel {
 public:
  explicit RandomOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetTypeAttr("dtype", &dtype_));
    int64_t seed = 0;
    int64_t seed2 = 0;
    ctx->SetStatus(ctx->GetIntAttr("seed", &seed));
    ctx->SetStatus(ctx->GetIntAttr("seed2", &seed2));
    uint64_t key = seed != 0 || seed2 != 0
                       ? static_cast<uint64_t>(seed) * 0x9E3779B97F4A7C15ULL +
                             static_cast<uint64_t>(seed2)
                       : HashName(ctx->node_name());
    rng_ = std::make_unique<PhiloxRandom>(key, HashName(ctx->node_name()));
  }

  void Compute(OpKernelContext* ctx) override {
    Result<TensorShape> shape = ShapeFromTensor(ctx->input(0));
    OP_REQUIRES_OK(ctx, shape.status());
    Tensor out(dtype_, shape.value());
    std::lock_guard<std::mutex> lock(mu_);
    OP_REQUIRES_OK(ctx, FloatDispatch(dtype_, [&](auto tag) {
      using T = decltype(tag);
      T* o = out.data<T>();
      for (int64_t i = 0, n = out.num_elements(); i < n; ++i) {
        if constexpr (K == RandomKind::kUniform) {
          o[i] = static_cast<T>(rng_->Uniform());
        } else if constexpr (K == RandomKind::kNormal) {
          o[i] = static_cast<T>(rng_->Normal());
        } else {
          o[i] = static_cast<T>(rng_->TruncatedNormal());
        }
      }
    }));
    ctx->set_output(0, std::move(out));
  }

 private:
  DataType dtype_ = DataType::kFloat;
  std::mutex mu_;
  std::unique_ptr<PhiloxRandom> rng_;
};

REGISTER_KERNEL("RandomUniform", kDeviceCpu, RandomOp<RandomKind::kUniform>);
REGISTER_KERNEL("RandomStandardNormal", kDeviceCpu,
                RandomOp<RandomKind::kNormal>);
REGISTER_KERNEL("TruncatedNormal", kDeviceCpu,
                RandomOp<RandomKind::kTruncatedNormal>);

class RandomUniformIntOp : public OpKernel {
 public:
  explicit RandomUniformIntOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetTypeAttr("T", &dtype_));
    int64_t seed = 0;
    int64_t seed2 = 0;
    ctx->SetStatus(ctx->GetIntAttr("seed", &seed));
    ctx->SetStatus(ctx->GetIntAttr("seed2", &seed2));
    uint64_t key = seed != 0 || seed2 != 0
                       ? static_cast<uint64_t>(seed) * 0x9E3779B97F4A7C15ULL +
                             static_cast<uint64_t>(seed2)
                       : HashName(ctx->node_name());
    rng_ = std::make_unique<PhiloxRandom>(key, HashName(ctx->node_name()));
  }

  void Compute(OpKernelContext* ctx) override {
    Result<TensorShape> shape = ShapeFromTensor(ctx->input(0));
    OP_REQUIRES_OK(ctx, shape.status());
    Tensor minval = ctx->input(1);
    Tensor maxval = ctx->input(2);
    Tensor out(dtype_, shape.value());
    std::lock_guard<std::mutex> lock(mu_);
    OP_REQUIRES_OK(ctx, IndexDispatch(dtype_, [&](auto tag) {
      using T = decltype(tag);
      T lo = *minval.data<T>();
      T hi = *maxval.data<T>();
      T* o = out.data<T>();
      uint64_t range = static_cast<uint64_t>(hi - lo);
      for (int64_t i = 0, n = out.num_elements(); i < n; ++i) {
        o[i] = lo + static_cast<T>(rng_->UniformInt(range));
      }
    }));
    ctx->set_output(0, std::move(out));
  }

 private:
  DataType dtype_ = DataType::kInt64;
  std::mutex mu_;
  std::unique_ptr<PhiloxRandom> rng_;
};
REGISTER_KERNEL("RandomUniformInt", kDeviceCpu, RandomUniformIntOp);

}  // namespace
}  // namespace tfrepro
