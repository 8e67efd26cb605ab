#include "nn/model_zoo.h"

#include <cmath>

#include "graph/shape_inference.h"

namespace tfrepro {
namespace nn {
namespace {

// The layer's window through ComputeWindow2D, the one output-size rule; a
// window with no output (VALID and larger than its input) has extent 0.
Window2D LayerWindow(const LayerSpec& l) {
  Window2D w{};
  const int64_t kw = l.k2 != 0 ? l.k2 : l.k;
  if (!ComputeWindow2D({1, l.k, kw, 1}, {1, l.stride, l.stride, 1},
                       l.same_padding ? "SAME" : "VALID", l.in_h, l.in_w, &w)
           .ok()) {
    w.out_h = 0;
    w.out_w = 0;
  }
  return w;
}

}  // namespace

int64_t LayerSpec::OutH() const { return LayerWindow(*this).out_h; }

int64_t LayerSpec::OutW() const { return LayerWindow(*this).out_w; }

double LayerSpec::ForwardFlops() const {
  switch (kind) {
    case Kind::kConv: {
      int64_t kw = k2 != 0 ? k2 : k;
      return 2.0 * OutH() * OutW() * out_c * k * kw * in_c;
    }
    case Kind::kPool:
      return static_cast<double>(OutH()) * OutW() * in_c * k * k;
    case Kind::kFullyConnected:
      return 2.0 * in_dim * out_dim;
    case Kind::kLstm:
      // One step: [1, in+h] x [in+h, 4h] plus elementwise gates.
      return 2.0 * (in_dim + out_dim) * 4 * out_dim + 10.0 * out_dim;
    case Kind::kSoftmax:
      return 2.0 * in_dim * out_dim;
  }
  return 0;
}

double LayerSpec::ParamBytes() const {
  switch (kind) {
    case Kind::kConv: {
      int64_t kw = k2 != 0 ? k2 : k;
      return 4.0 * k * kw * in_c * out_c;
    }
    case Kind::kPool:
      return 0;
    case Kind::kFullyConnected:
      return 4.0 * in_dim * out_dim;
    case Kind::kLstm:
      return 4.0 * (in_dim + out_dim) * 4 * out_dim;
    case Kind::kSoftmax:
      return 4.0 * in_dim * out_dim;
  }
  return 0;
}

double LayerSpec::ActivationBytes() const {
  switch (kind) {
    case Kind::kConv:
    case Kind::kPool:
      return 4.0 * OutH() * OutW() * out_c;
    case Kind::kFullyConnected:
    case Kind::kLstm:
    case Kind::kSoftmax:
      return 4.0 * out_dim;
  }
  return 0;
}

double ModelSpec::ForwardFlopsPerExample() const {
  double total = 0;
  for (const LayerSpec& l : layers) total += l.ForwardFlops();
  return total;
}

double ModelSpec::TrainingFlopsPerExample() const {
  // Backward pass costs ~2x forward (gradient w.r.t. inputs + weights).
  return 3.0 * ForwardFlopsPerExample();
}

double ModelSpec::TotalParamBytes() const {
  double total = 0;
  for (const LayerSpec& l : layers) total += l.ParamBytes();
  return total;
}

namespace {

LayerSpec Conv(int64_t hw, int64_t in_c, int64_t k, int64_t stride,
               int64_t out_c, bool same = true) {
  LayerSpec l;
  l.kind = LayerSpec::Kind::kConv;
  l.in_h = hw;
  l.in_w = hw;
  l.in_c = in_c;
  l.k = k;
  l.stride = stride;
  l.out_c = out_c;
  l.same_padding = same;
  return l;
}

LayerSpec ConvRect(int64_t hw, int64_t in_c, int64_t kh, int64_t kw,
                   int64_t out_c) {
  LayerSpec l = Conv(hw, in_c, kh, 1, out_c);
  l.k2 = kw;
  return l;
}

LayerSpec Pool(int64_t hw, int64_t c, int64_t k, int64_t stride) {
  LayerSpec l;
  l.kind = LayerSpec::Kind::kPool;
  l.in_h = hw;
  l.in_w = hw;
  l.in_c = c;
  l.out_c = c;
  l.k = k;
  l.stride = stride;
  return l;
}

LayerSpec Fc(int64_t in_dim, int64_t out_dim) {
  LayerSpec l;
  l.kind = LayerSpec::Kind::kFullyConnected;
  l.in_dim = in_dim;
  l.out_dim = out_dim;
  return l;
}

}  // namespace

ModelSpec AlexNet(int64_t batch) {
  ModelSpec m;
  m.name = "AlexNet";
  m.batch = batch;
  m.layers = {
      Conv(224, 3, 11, 4, 64, /*same=*/false),   // -> 54
      Pool(54, 64, 3, 2),                        // -> 27
      Conv(27, 64, 5, 1, 192),                   // -> 27
      Pool(27, 192, 3, 2),                       // -> 14
      Conv(14, 192, 3, 1, 384),
      Conv(14, 384, 3, 1, 256),
      Conv(14, 256, 3, 1, 256),
      Pool(14, 256, 3, 2),                       // -> 7
      Fc(7 * 7 * 256, 4096),
      Fc(4096, 4096),
      Fc(4096, 1000),
  };
  return m;
}

ModelSpec Overfeat(int64_t batch) {
  ModelSpec m;
  m.name = "Overfeat";
  m.batch = batch;
  m.layers = {
      Conv(231, 3, 11, 4, 96, /*same=*/false),   // -> 56
      Pool(56, 96, 2, 2),                        // -> 28
      Conv(28, 96, 5, 1, 256),
      Pool(28, 256, 2, 2),                       // -> 14
      Conv(14, 256, 3, 1, 512),
      Conv(14, 512, 3, 1, 1024),
      Conv(14, 1024, 3, 1, 1024),
      Pool(14, 1024, 2, 2),                      // -> 7
      Fc(7 * 7 * 1024, 3072),
      Fc(3072, 4096),
      Fc(4096, 1000),
  };
  return m;
}

ModelSpec OxfordNet(int64_t batch) {
  // VGG model A (the "OxfordNet" of convnet-benchmarks).
  ModelSpec m;
  m.name = "OxfordNet";
  m.batch = batch;
  m.layers = {
      Conv(224, 3, 3, 1, 64),
      Pool(224, 64, 2, 2),    // -> 112
      Conv(112, 64, 3, 1, 128),
      Pool(112, 128, 2, 2),   // -> 56
      Conv(56, 128, 3, 1, 256),
      Conv(56, 256, 3, 1, 256),
      Pool(56, 256, 2, 2),    // -> 28
      Conv(28, 256, 3, 1, 512),
      Conv(28, 512, 3, 1, 512),
      Pool(28, 512, 2, 2),    // -> 14
      Conv(14, 512, 3, 1, 512),
      Conv(14, 512, 3, 1, 512),
      Pool(14, 512, 2, 2),    // -> 7
      Fc(7 * 7 * 512, 4096),
      Fc(4096, 4096),
      Fc(4096, 1000),
  };
  return m;
}

namespace {

// One GoogleNet inception module at spatial size hw:
// 1x1, 1x1->3x3, 1x1->5x5, pool->1x1 branches.
void InceptionModule(std::vector<LayerSpec>* layers, int64_t hw, int64_t in_c,
                     int64_t c1, int64_t c3r, int64_t c3, int64_t c5r,
                     int64_t c5, int64_t cp) {
  layers->push_back(Conv(hw, in_c, 1, 1, c1));
  layers->push_back(Conv(hw, in_c, 1, 1, c3r));
  layers->push_back(Conv(hw, c3r, 3, 1, c3));
  layers->push_back(Conv(hw, in_c, 1, 1, c5r));
  layers->push_back(Conv(hw, c5r, 5, 1, c5));
  layers->push_back(Pool(hw, in_c, 3, 1));
  layers->push_back(Conv(hw, in_c, 1, 1, cp));
}

}  // namespace

ModelSpec GoogleNet(int64_t batch) {
  ModelSpec m;
  m.name = "GoogleNet";
  m.batch = batch;
  auto& L = m.layers;
  L.push_back(Conv(224, 3, 7, 2, 64));    // -> 112
  L.push_back(Pool(112, 64, 3, 2));       // -> 56
  L.push_back(Conv(56, 64, 1, 1, 64));
  L.push_back(Conv(56, 64, 3, 1, 192));
  L.push_back(Pool(56, 192, 3, 2));       // -> 28
  InceptionModule(&L, 28, 192, 64, 96, 128, 16, 32, 32);    // 3a -> 256
  InceptionModule(&L, 28, 256, 128, 128, 192, 32, 96, 64);  // 3b -> 480
  L.push_back(Pool(28, 480, 3, 2));       // -> 14
  InceptionModule(&L, 14, 480, 192, 96, 208, 16, 48, 64);   // 4a
  InceptionModule(&L, 14, 512, 160, 112, 224, 24, 64, 64);  // 4b
  InceptionModule(&L, 14, 512, 128, 128, 256, 24, 64, 64);  // 4c
  InceptionModule(&L, 14, 512, 112, 144, 288, 32, 64, 64);  // 4d
  InceptionModule(&L, 14, 528, 256, 160, 320, 32, 128, 128);  // 4e -> 832
  L.push_back(Pool(14, 832, 3, 2));       // -> 7
  InceptionModule(&L, 7, 832, 256, 160, 320, 32, 128, 128);   // 5a
  InceptionModule(&L, 7, 832, 384, 192, 384, 48, 128, 128);   // 5b -> 1024
  L.push_back(Pool(7, 1024, 7, 1));
  L.push_back(Fc(1024, 1000));
  return m;
}

namespace {

// Inception-v3 module helpers (channels from the published architecture).
void V3ModuleA(std::vector<LayerSpec>* L, int64_t hw, int64_t in_c,
               int64_t pool_c) {
  L->push_back(Conv(hw, in_c, 1, 1, 64));
  L->push_back(Conv(hw, in_c, 1, 1, 48));
  L->push_back(Conv(hw, 48, 5, 1, 64));
  L->push_back(Conv(hw, in_c, 1, 1, 64));
  L->push_back(Conv(hw, 64, 3, 1, 96));
  L->push_back(Conv(hw, 96, 3, 1, 96));
  L->push_back(Pool(hw, in_c, 3, 1));
  L->push_back(Conv(hw, in_c, 1, 1, pool_c));
}

void V3ModuleB(std::vector<LayerSpec>* L, int64_t hw, int64_t in_c,
               int64_t c7) {
  L->push_back(Conv(hw, in_c, 1, 1, 192));
  L->push_back(Conv(hw, in_c, 1, 1, c7));
  L->push_back(ConvRect(hw, c7, 1, 7, c7));
  L->push_back(ConvRect(hw, c7, 7, 1, 192));
  L->push_back(Conv(hw, in_c, 1, 1, c7));
  L->push_back(ConvRect(hw, c7, 7, 1, c7));
  L->push_back(ConvRect(hw, c7, 1, 7, c7));
  L->push_back(ConvRect(hw, c7, 7, 1, c7));
  L->push_back(ConvRect(hw, c7, 1, 7, 192));
  L->push_back(Pool(hw, in_c, 3, 1));
  L->push_back(Conv(hw, in_c, 1, 1, 192));
}

void V3ModuleC(std::vector<LayerSpec>* L, int64_t hw, int64_t in_c) {
  L->push_back(Conv(hw, in_c, 1, 1, 320));
  L->push_back(Conv(hw, in_c, 1, 1, 384));
  L->push_back(ConvRect(hw, 384, 1, 3, 384));
  L->push_back(ConvRect(hw, 384, 3, 1, 384));
  L->push_back(Conv(hw, in_c, 1, 1, 448));
  L->push_back(Conv(hw, 448, 3, 1, 384));
  L->push_back(ConvRect(hw, 384, 1, 3, 384));
  L->push_back(ConvRect(hw, 384, 3, 1, 384));
  L->push_back(Pool(hw, in_c, 3, 1));
  L->push_back(Conv(hw, in_c, 1, 1, 192));
}

}  // namespace

ModelSpec InceptionV3(int64_t batch) {
  ModelSpec m;
  m.name = "Inception-v3";
  m.batch = batch;
  auto& L = m.layers;
  // Stem.
  L.push_back(Conv(299, 3, 3, 2, 32, /*same=*/false));    // -> 149
  L.push_back(Conv(149, 32, 3, 1, 32, /*same=*/false));   // -> 147
  L.push_back(Conv(147, 32, 3, 1, 64));                   // -> 147
  L.push_back(Pool(147, 64, 3, 2));                       // -> 74 (73)
  L.push_back(Conv(73, 64, 1, 1, 80));
  L.push_back(Conv(73, 80, 3, 1, 192, /*same=*/false));   // -> 71
  L.push_back(Pool(71, 192, 3, 2));                       // -> 35
  // 3 x module A at 35x35.
  V3ModuleA(&L, 35, 192, 32);   // -> 256
  V3ModuleA(&L, 35, 256, 64);   // -> 288
  V3ModuleA(&L, 35, 288, 64);   // -> 288
  // Reduction to 17x17.
  L.push_back(Conv(35, 288, 3, 2, 384, /*same=*/false));
  L.push_back(Conv(35, 288, 1, 1, 64));
  L.push_back(Conv(35, 64, 3, 1, 96));
  L.push_back(Conv(35, 96, 3, 2, 96, /*same=*/false));
  L.push_back(Pool(35, 288, 3, 2));
  // 4 x module B at 17x17 (in 768).
  V3ModuleB(&L, 17, 768, 128);
  V3ModuleB(&L, 17, 768, 160);
  V3ModuleB(&L, 17, 768, 160);
  V3ModuleB(&L, 17, 768, 192);
  // Reduction to 8x8.
  L.push_back(Conv(17, 768, 1, 1, 192));
  L.push_back(Conv(17, 192, 3, 2, 320, /*same=*/false));
  L.push_back(Conv(17, 768, 1, 1, 192));
  L.push_back(ConvRect(17, 192, 1, 7, 192));
  L.push_back(ConvRect(17, 192, 7, 1, 192));
  L.push_back(Conv(17, 192, 3, 2, 192, /*same=*/false));
  L.push_back(Pool(17, 768, 3, 2));
  // 2 x module C at 8x8 (in 1280, then 2048).
  V3ModuleC(&L, 8, 1280);
  V3ModuleC(&L, 8, 2048);
  L.push_back(Pool(8, 2048, 8, 1));
  L.push_back(Fc(2048, 1000));
  return m;
}

ModelSpec LstmLanguageModel(int64_t batch, int64_t vocab, int64_t embedding,
                            int64_t hidden, int64_t unroll_steps,
                            int64_t softmax_classes_computed) {
  ModelSpec m;
  m.name = "LSTM-" + std::to_string(embedding) + "-" + std::to_string(hidden);
  m.batch = batch;
  for (int64_t t = 0; t < unroll_steps; ++t) {
    // Embedding lookup is a gather (negligible FLOPs, counted as zero-FLOP
    // softmax layer for bytes); LSTM step; softmax projection.
    LayerSpec lstm;
    lstm.kind = LayerSpec::Kind::kLstm;
    lstm.in_dim = embedding;
    lstm.out_dim = hidden;
    m.layers.push_back(lstm);

    LayerSpec softmax;
    softmax.kind = LayerSpec::Kind::kSoftmax;
    softmax.in_dim = hidden;
    softmax.out_dim = softmax_classes_computed;
    m.layers.push_back(softmax);
  }
  (void)vocab;
  return m;
}

}  // namespace nn
}  // namespace tfrepro
