// Checkpoint and file kernels (paper §4.3): Save writes one or more tensors
// to a checkpoint file; Restore reads one tensor back. Both are ordinary
// graph operations — checkpointing is user-level, built by the Saver client
// library (src/train/saver.*), not runtime magic.

#include "core/file.h"
#include "kernels/checkpoint_format.h"
#include "runtime/kernel.h"

namespace tfrepro {
namespace {

class SaveOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor filename = ctx->input(0);
    Tensor tensor_names = ctx->input(1);
    OP_REQUIRES(ctx, filename.num_elements() == 1,
                InvalidArgument("Save filename must be a single string"));
    int num_tensors = ctx->num_inputs() - 2;
    OP_REQUIRES(ctx, tensor_names.num_elements() == num_tensors,
                InvalidArgument("Save got " + std::to_string(num_tensors) +
                                " tensors but " +
                                std::to_string(tensor_names.num_elements()) +
                                " names"));
    std::vector<std::pair<std::string, Tensor>> entries;
    entries.reserve(num_tensors);
    for (int i = 0; i < num_tensors; ++i) {
      entries.emplace_back(tensor_names.str(i), ctx->input(2 + i));
    }
    OP_REQUIRES_OK(ctx, WriteCheckpoint(filename.str(0), entries));
  }
};
REGISTER_KERNEL("Save", kDeviceCpu, SaveOp);

class RestoreOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor pattern = ctx->input(0);
    Tensor tensor_name = ctx->input(1);
    OP_REQUIRES(ctx,
                pattern.num_elements() == 1 && tensor_name.num_elements() == 1,
                InvalidArgument("Restore inputs must be single strings"));
    Result<Tensor> t =
        ReadCheckpointTensor(pattern.str(0), tensor_name.str(0));
    OP_REQUIRES_OK(ctx, t.status());
    ctx->set_output(0, std::move(t).value());
  }
};
REGISTER_KERNEL("Restore", kDeviceCpu, RestoreOp);

class ReadFileOp : public OpKernel {
 public:
  using OpKernel::OpKernel;
  void Compute(OpKernelContext* ctx) override {
    Tensor filename = ctx->input(0);
    OP_REQUIRES(ctx, filename.num_elements() == 1,
                InvalidArgument("ReadFile filename must be a single string"));
    Result<std::string> content = ReadFile(filename.str(0));
    OP_REQUIRES_OK(ctx, content.status());
    ctx->set_output(0, Tensor::Scalar(std::move(content).value()));
  }
};
REGISTER_KERNEL("ReadFile", kDeviceCpu, ReadFileOp);

}  // namespace
}  // namespace tfrepro
