// Model zoo: layer-level specifications of the architectures in the
// paper's evaluation — AlexNet, Overfeat, OxfordNet (VGG) and GoogleNet for
// Table 1, Inception-v3 for §6.3, and the LSTM-512-512 language model for
// §6.4. The same specs drive (a) runnable graphs at reduced scale and
// (b) the FLOP/byte accounting used by the performance simulator, so
// simulated step times and runnable models share one source of truth.

#ifndef TFREPRO_NN_MODEL_ZOO_H_
#define TFREPRO_NN_MODEL_ZOO_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tfrepro {
namespace nn {

struct LayerSpec {
  enum class Kind { kConv, kPool, kFullyConnected, kLstm, kSoftmax };
  Kind kind = Kind::kConv;

  // Conv / pool geometry (NHWC); out spatial dims derived from padding.
  int64_t in_h = 0, in_w = 0, in_c = 0;
  int64_t k = 0;       // square kernel (k_h == k_w == k); for the 1x7/7x1
  int64_t k2 = 0;      // factorized kernels, k x k2 with k2 != 0
  int64_t stride = 1;
  int64_t out_c = 0;
  bool same_padding = true;

  // Fully-connected / LSTM / softmax.
  int64_t in_dim = 0;
  int64_t out_dim = 0;  // fc units, lstm hidden size, softmax classes

  // Output extent by ComputeWindow2D (graph/shape_inference.h), the rule
  // the Conv2D and pool kernels use; 0 when the window has no output.
  int64_t OutH() const;
  int64_t OutW() const;

  // Forward multiply-add FLOPs (x2 for mul+add) for one example.
  double ForwardFlops() const;
  // Parameter bytes (float32).
  double ParamBytes() const;
  // Output activation bytes for one example.
  double ActivationBytes() const;
};

struct ModelSpec {
  std::string name;
  int64_t batch = 1;
  std::vector<LayerSpec> layers;

  double ForwardFlopsPerExample() const;
  double TrainingFlopsPerExample() const;  // fwd + bwd (~3x fwd)
  double TotalParamBytes() const;
};

// --- Table 1 models (single-machine convnet benchmarks) ---
ModelSpec AlexNet(int64_t batch);
ModelSpec Overfeat(int64_t batch);
ModelSpec OxfordNet(int64_t batch);  // VGG model A
ModelSpec GoogleNet(int64_t batch);

// --- §6.3 model ---
ModelSpec InceptionV3(int64_t batch);

// --- §6.4 model: LSTM-512-512, optionally with sampled softmax ---
ModelSpec LstmLanguageModel(int64_t batch, int64_t vocab, int64_t embedding,
                            int64_t hidden, int64_t unroll_steps,
                            int64_t softmax_classes_computed);

}  // namespace nn
}  // namespace tfrepro

#endif  // TFREPRO_NN_MODEL_ZOO_H_
