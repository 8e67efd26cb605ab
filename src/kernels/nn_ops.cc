// Neural-network kernels: 2-D convolution and pooling with their gradients
// (NHWC layout, HWIO filters, SAME/VALID padding), softmax family, and the
// fused softmax-cross-entropy kernels.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "graph/shape_inference.h"
#include "kernels/dispatch.h"
#include "kernels/gemm.h"
#include "runtime/device.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

// Convolution and pooling (DESIGN.md §15). Every window kernel takes its
// geometry from ComputeWindow2D and visits windows through ForEachWindow;
// the convolutions move their windows into a patch matrix and run one Gemm.

// A window over every output pixel of an NHWC batch.
struct Geometry : Window2D {
  int64_t batch;
  int64_t channels;  // input channels
  int64_t pixels() const { return batch * out_h * out_w; }  // output pixels
  int64_t taps() const { return k_h * k_w; }
  int64_t patch() const { return taps() * channels; }  // one window's values
};

// Marks a window tap that falls in the padding.
constexpr int64_t kPadded = -1;

// The one window walk. For each output pixel (b, oh, ow) in ascending order
// it calls visit(pixel, taps): `pixel` counts output pixels in that order,
// and taps[kh * k_w + kw] is the input pixel under tap (kh, kw), counted in
// NHW order, or kPadded.
template <typename Visit>
void ForEachWindow(const Geometry& g, Visit visit) {
  std::vector<int64_t> taps(g.taps());
  int64_t pixel = 0;
  for (int64_t b = 0; b < g.batch; ++b) {
    for (int64_t oh = 0; oh < g.out_h; ++oh) {
      for (int64_t ow = 0; ow < g.out_w; ++ow) {
        int64_t* tap = taps.data();
        for (int64_t kh = 0; kh < g.k_h; ++kh) {
          const int64_t ih = oh * g.stride_h + kh - g.pad_top;
          for (int64_t kw = 0; kw < g.k_w; ++kw) {
            const int64_t iw = ow * g.stride_w + kw - g.pad_left;
            const bool inside =
                ih >= 0 && ih < g.in_h && iw >= 0 && iw < g.in_w;
            *tap++ = inside ? (b * g.in_h + ih) * g.in_w + iw : kPadded;
          }
        }
        visit(pixel++, static_cast<const int64_t*>(taps.data()));
      }
    }
  }
}

// Row `pixel` of the patch matrix [pixels, taps * channels] holds that
// output pixel's window of `in`, tap by tap, zero where a tap is padded.
template <typename T>
std::vector<T> Im2Col(const Geometry& g, const T* in) {
  std::vector<T> patches(g.pixels() * g.patch());
  const int64_t c = g.channels;
  ForEachWindow(g, [&](int64_t pixel, const int64_t* taps) {
    T* row = patches.data() + pixel * g.patch();
    for (int64_t t = 0; t < g.taps(); ++t, row += c) {
      if (taps[t] != kPadded) std::copy_n(in + taps[t] * c, c, row);
    }
  });
  return patches;
}

// The inverse of Im2Col: adds each patch-matrix row onto the input pixels
// its window covers, pixel by pixel and tap by tap.
template <typename T>
void Col2Im(const Geometry& g, const T* patches, T* out) {
  const int64_t c = g.channels;
  ForEachWindow(g, [&](int64_t pixel, const int64_t* taps) {
    const T* row = patches + pixel * g.patch();
    for (int64_t t = 0; t < g.taps(); ++t, row += c) {
      if (taps[t] == kPadded) continue;
      T* dst = out + taps[t] * c;
      for (int64_t i = 0; i < c; ++i) dst[i] += row[i];
    }
  });
}

// The shape a gradient op reads from an int32 input (input_sizes,
// filter_sizes, orig_input_shape): four sizes, none negative.
Status ShapeFromSizes(const char* name, const Tensor& sizes,
                      TensorShape* shape) {
  std::vector<int64_t> dims(sizes.num_elements());
  for (size_t i = 0; i < dims.size(); ++i) dims[i] = sizes.flat<int32_t>(i);
  *shape = TensorShape(dims);
  if (dims.size() != 4) {
    return InvalidArgument(std::string(name) + " " + shape->DebugString() +
                           " must hold four sizes");
  }
  return ValidateShape(dims).Prepend(name);
}

// The attrs of every convolution and pooling kernel. A pool's window is its
// ksize attr; a convolution's is its filter's extent.
class WindowOp : public OpKernel {
 public:
  explicit WindowOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    if (ctx->FindAttr("ksize") != nullptr) {
      ctx->SetStatus(ctx->GetIntListAttr("ksize", &ksize_));
    }
    ctx->SetStatus(ctx->GetIntListAttr("strides", &strides_));
    ctx->SetStatus(ctx->GetStringAttr("padding", &padding_));
  }

 protected:
  // The window over an NHWC `input`; a convolution passes its HWIO filter.
  Status GetGeometry(const TensorShape& input, const TensorShape* filter,
                     Geometry* g) const {
    if (input.rank() != 4) {
      return InvalidArgument("input must be NHWC rank-4, got " +
                             input.DebugString());
    }
    std::vector<int64_t> ksize = ksize_;
    if (filter != nullptr) {
      if (filter->rank() != 4 || filter->dim(2) != input.dim(3)) {
        return InvalidArgument("filter " + filter->DebugString() +
                               " must be HWIO with the input's " +
                               std::to_string(input.dim(3)) + " channels");
      }
      ksize = {1, filter->dim(0), filter->dim(1), 1};
    }
    g->batch = input.dim(0);
    g->channels = input.dim(3);
    return ComputeWindow2D(ksize, strides_, padding_, input.dim(1),
                           input.dim(2), g);
  }

  // A gradient input must be shaped like the forward op's output.
  static Status CheckOutputShape(const char* name, const Tensor& t,
                                 const Geometry& g, int64_t channels) {
    const TensorShape want({g.batch, g.out_h, g.out_w, channels});
    if (t.shape() != want) {
      return InvalidArgument(std::string(name) + " must be " +
                             want.DebugString() + ", got " +
                             t.shape().DebugString());
    }
    return Status::OK();
  }

  static ThreadPool* Pool(OpKernelContext* ctx) {
    return ctx->device() != nullptr ? ctx->device()->pool() : nullptr;
  }

 private:
  std::vector<int64_t> ksize_;
  std::vector<int64_t> strides_;
  std::string padding_;
};

// The HWIO filter is the row-major matrix [k_h * k_w * in_c, out_c], so a
// convolution is the patch matrix times the filter.
class Conv2DOp : public WindowOp {
 public:
  using WindowOp::WindowOp;
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Tensor filter = ctx->input(1);
    Geometry g{};
    OP_REQUIRES_OK(ctx, GetGeometry(input.shape(), &filter.shape(), &g));
    const int64_t out_c = filter.dim(3);
    Tensor out(BaseType(input.dtype()),
               TensorShape({g.batch, g.out_h, g.out_w, out_c}));
    OP_REQUIRES_OK(ctx, FloatDispatch(input.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const std::vector<T> patches = Im2Col(g, input.data<T>());
      Gemm<T>(patches.data(), filter.data<T>(), out.data<T>(), g.pixels(),
              g.patch(), out_c, false, false, Pool(ctx));
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Conv2D", kDeviceCpu, Conv2DOp);

// out_backprop [pixels, out_c] times the filter transposed gives each
// window's gradient; Col2Im sums them onto the input pixels.
class Conv2DBackpropInputOp : public WindowOp {
 public:
  using WindowOp::WindowOp;
  void Compute(OpKernelContext* ctx) override {
    TensorShape in_shape;
    OP_REQUIRES_OK(ctx,
                   ShapeFromSizes("input_sizes", ctx->input(0), &in_shape));
    Tensor filter = ctx->input(1);
    Tensor grad = ctx->input(2);
    Geometry g{};
    OP_REQUIRES_OK(ctx, GetGeometry(in_shape, &filter.shape(), &g));
    const int64_t out_c = filter.dim(3);
    OP_REQUIRES_OK(ctx, CheckOutputShape("out_backprop", grad, g, out_c));
    Tensor out(BaseType(grad.dtype()), in_shape);
    OP_REQUIRES_OK(ctx, FloatDispatch(grad.dtype(), [&](auto tag) {
      using T = decltype(tag);
      std::vector<T> cols(g.pixels() * g.patch());
      Gemm<T>(grad.data<T>(), filter.data<T>(), cols.data(), g.pixels(), out_c,
              g.patch(), false, true, Pool(ctx));
      Col2Im(g, cols.data(), out.data<T>());
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Conv2DBackpropInput", kDeviceCpu, Conv2DBackpropInputOp);

// The patch matrix transposed times out_backprop: one product over the
// whole batch, so each filter entry sums its pixels in ascending order.
class Conv2DBackpropFilterOp : public WindowOp {
 public:
  using WindowOp::WindowOp;
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    TensorShape f_shape;
    OP_REQUIRES_OK(ctx,
                   ShapeFromSizes("filter_sizes", ctx->input(1), &f_shape));
    Tensor grad = ctx->input(2);
    Geometry g{};
    OP_REQUIRES_OK(ctx, GetGeometry(input.shape(), &f_shape, &g));
    const int64_t out_c = f_shape.dim(3);
    OP_REQUIRES_OK(ctx, CheckOutputShape("out_backprop", grad, g, out_c));
    Tensor out(BaseType(grad.dtype()), f_shape);
    OP_REQUIRES_OK(ctx, FloatDispatch(grad.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const std::vector<T> patches = Im2Col(g, input.data<T>());
      Gemm<T>(patches.data(), grad.data<T>(), out.data<T>(), g.patch(),
              g.pixels(), out_c, true, false, Pool(ctx));
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Conv2DBackpropFilter", kDeviceCpu, Conv2DBackpropFilterOp);

// MaxPool (kMax) or AvgPool: per output pixel and channel, the max or the
// mean of the taps inside the input; padded taps count for nothing.
template <bool kMax>
class PoolOp : public WindowOp {
 public:
  using WindowOp::WindowOp;
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Geometry g{};
    OP_REQUIRES_OK(ctx, GetGeometry(input.shape(), nullptr, &g));
    const int64_t c = g.channels;
    Tensor out(BaseType(input.dtype()),
               TensorShape({g.batch, g.out_h, g.out_w, c}));
    OP_REQUIRES_OK(ctx, FloatDispatch(input.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* in = input.data<T>();
      T* o = out.data<T>();
      ForEachWindow(g, [&](int64_t pixel, const int64_t* taps) {
        for (int64_t ch = 0; ch < c; ++ch) {
          T best = std::numeric_limits<T>::lowest();
          double sum = 0;
          int64_t count = 0;
          for (int64_t t = 0; t < g.taps(); ++t) {
            if (taps[t] == kPadded) continue;
            const T v = in[taps[t] * c + ch];
            if constexpr (kMax) {
              if (v > best) best = v;
            } else {
              sum += v;
              ++count;
            }
          }
          o[pixel * c + ch] =
              kMax ? best : static_cast<T>(count > 0 ? sum / count : 0);
        }
      });
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("MaxPool", kDeviceCpu, PoolOp<true>);
REGISTER_KERNEL("AvgPool", kDeviceCpu, PoolOp<false>);

class MaxPoolGradOp : public WindowOp {
 public:
  using WindowOp::WindowOp;
  void Compute(OpKernelContext* ctx) override {
    Tensor input = ctx->input(0);
    Tensor output = ctx->input(1);
    Tensor grad = ctx->input(2);
    Geometry g{};
    OP_REQUIRES_OK(ctx, GetGeometry(input.shape(), nullptr, &g));
    const int64_t c = g.channels;
    OP_REQUIRES_OK(ctx, CheckOutputShape("orig_output", output, g, c));
    OP_REQUIRES_OK(ctx, CheckOutputShape("grad", grad, g, c));
    Tensor out(BaseType(input.dtype()), input.shape());
    OP_REQUIRES_OK(ctx, FloatDispatch(input.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* in = input.data<T>();
      const T* op = output.data<T>();
      const T* gp = grad.data<T>();
      T* o = out.data<T>();
      ForEachWindow(g, [&](int64_t pixel, const int64_t* taps) {
        for (int64_t ch = 0; ch < c; ++ch) {
          // Route the gradient to the first tap holding the max.
          const int64_t oidx = pixel * c + ch;
          for (int64_t t = 0; t < g.taps(); ++t) {
            if (taps[t] != kPadded && in[taps[t] * c + ch] == op[oidx]) {
              o[taps[t] * c + ch] += gp[oidx];
              break;
            }
          }
        }
      });
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("MaxPoolGrad", kDeviceCpu, MaxPoolGradOp);

class AvgPoolGradOp : public WindowOp {
 public:
  using WindowOp::WindowOp;
  void Compute(OpKernelContext* ctx) override {
    TensorShape in_shape;
    OP_REQUIRES_OK(
        ctx, ShapeFromSizes("orig_input_shape", ctx->input(0), &in_shape));
    Tensor grad = ctx->input(1);
    Geometry g{};
    OP_REQUIRES_OK(ctx, GetGeometry(in_shape, nullptr, &g));
    const int64_t c = g.channels;
    OP_REQUIRES_OK(ctx, CheckOutputShape("grad", grad, g, c));
    Tensor out(BaseType(grad.dtype()), in_shape);
    OP_REQUIRES_OK(ctx, FloatDispatch(grad.dtype(), [&](auto tag) {
      using T = decltype(tag);
      const T* gp = grad.data<T>();
      T* o = out.data<T>();
      ForEachWindow(g, [&](int64_t pixel, const int64_t* taps) {
        const int64_t count =
            std::count_if(taps, taps + g.taps(),
                          [](int64_t t) { return t != kPadded; });
        if (count == 0) return;
        for (int64_t ch = 0; ch < c; ++ch) {
          const T share = gp[pixel * c + ch] / static_cast<T>(count);
          for (int64_t t = 0; t < g.taps(); ++t) {
            if (taps[t] != kPadded) o[taps[t] * c + ch] += share;
          }
        }
      });
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("AvgPoolGrad", kDeviceCpu, AvgPoolGradOp);

// Numerically-stable row softmax on [batch, classes].
template <typename T>
void SoftmaxRow(const T* in, T* out, int64_t n, bool log_form) {
  T mx = in[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, in[i]);
  double sum = 0;
  for (int64_t i = 0; i < n; ++i) {
    sum += std::exp(static_cast<double>(in[i] - mx));
  }
  double log_sum = std::log(sum);
  for (int64_t i = 0; i < n; ++i) {
    double centered = static_cast<double>(in[i] - mx);
    out[i] = log_form ? static_cast<T>(centered - log_sum)
                      : static_cast<T>(std::exp(centered - log_sum));
  }
}

template <bool LogForm>
class SoftmaxOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor logits = ctx->input(0);
    OP_REQUIRES(ctx, logits.shape().rank() == 2,
                InvalidArgument("Softmax logits must be rank-2"));
    Tensor out(BaseType(logits.dtype()), logits.shape());
    int64_t batch = logits.dim(0);
    int64_t classes = logits.dim(1);
    OP_REQUIRES_OK(ctx, FloatDispatch(logits.dtype(), [&](auto tag) {
      using T = decltype(tag);
      for (int64_t b = 0; b < batch; ++b) {
        SoftmaxRow<T>(logits.data<T>() + b * classes,
                      out.data<T>() + b * classes, classes, LogForm);
      }
    }));
    ctx->set_output(0, std::move(out));
  }
};
REGISTER_KERNEL("Softmax", kDeviceCpu, SoftmaxOp<false>);
REGISTER_KERNEL("LogSoftmax", kDeviceCpu, SoftmaxOp<true>);

// Fused loss+gradient: loss_b = -sum_c labels[b,c] * logsoftmax[b,c];
// backprop = softmax - labels.
class SoftmaxCrossEntropyOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor logits = ctx->input(0);
    Tensor labels = ctx->input(1);
    OP_REQUIRES(ctx,
                logits.shape().rank() == 2 && labels.shape() == logits.shape(),
                InvalidArgument("SoftmaxCrossEntropy shapes must match"));
    int64_t batch = logits.dim(0);
    int64_t classes = logits.dim(1);
    Tensor loss(BaseType(logits.dtype()), TensorShape({batch}));
    Tensor backprop(BaseType(logits.dtype()), logits.shape());
    OP_REQUIRES_OK(ctx, FloatDispatch(logits.dtype(), [&](auto tag) {
      using T = decltype(tag);
      std::vector<T> logsm(classes);
      for (int64_t b = 0; b < batch; ++b) {
        const T* row = logits.data<T>() + b * classes;
        const T* lab = labels.data<T>() + b * classes;
        T* bp = backprop.data<T>() + b * classes;
        SoftmaxRow<T>(row, logsm.data(), classes, /*log_form=*/true);
        double l = 0;
        for (int64_t c = 0; c < classes; ++c) {
          l -= static_cast<double>(lab[c]) * logsm[c];
          bp[c] = static_cast<T>(std::exp(static_cast<double>(logsm[c]))) -
                  lab[c];
        }
        loss.flat<T>(b) = static_cast<T>(l);
      }
    }));
    ctx->set_output(0, std::move(loss));
    ctx->set_output(1, std::move(backprop));
  }
};
REGISTER_KERNEL("SoftmaxCrossEntropyWithLogits", kDeviceCpu,
                SoftmaxCrossEntropyOp);

class SparseSoftmaxCrossEntropyOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor logits = ctx->input(0);
    Tensor labels = ctx->input(1);
    OP_REQUIRES(ctx, logits.shape().rank() == 2,
                InvalidArgument("logits must be rank-2"));
    int64_t batch = logits.dim(0);
    int64_t classes = logits.dim(1);
    OP_REQUIRES(ctx, labels.num_elements() == batch,
                InvalidArgument("labels must have one entry per row"));
    Tensor loss(BaseType(logits.dtype()), TensorShape({batch}));
    Tensor backprop(BaseType(logits.dtype()), logits.shape());
    Status index_status;
    Status dispatch_status;
    OP_REQUIRES_OK(ctx, FloatDispatch(logits.dtype(), [&](auto tag) {
      using T = decltype(tag);
      std::vector<T> logsm(classes);
      dispatch_status = IndexDispatch(labels.dtype(), [&](auto itag) {
        using I = decltype(itag);
        const I* lab = labels.data<I>();
        for (int64_t b = 0; b < batch; ++b) {
          if (lab[b] < 0 || lab[b] >= classes) {
            index_status = OutOfRange("label out of range");
            return;
          }
          const T* row = logits.data<T>() + b * classes;
          T* bp = backprop.data<T>() + b * classes;
          SoftmaxRow<T>(row, logsm.data(), classes, /*log_form=*/true);
          loss.flat<T>(b) = -logsm[lab[b]];
          for (int64_t c = 0; c < classes; ++c) {
            bp[c] =
                static_cast<T>(std::exp(static_cast<double>(logsm[c]))) -
                (c == static_cast<int64_t>(lab[b]) ? T{1} : T{0});
          }
        }
      });
    }));
    if (index_status.ok()) index_status = dispatch_status;
    OP_REQUIRES_OK(ctx, index_status);
    ctx->set_output(0, std::move(loss));
    ctx->set_output(1, std::move(backprop));
  }
};
REGISTER_KERNEL("SparseSoftmaxCrossEntropyWithLogits", kDeviceCpu,
                SparseSoftmaxCrossEntropyOp);

}  // namespace
}  // namespace tfrepro
