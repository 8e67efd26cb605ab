// Tests for the model library: layers train, the sharded embedding of
// Figure 3 round-trips and trains (dense and sparse update paths), the
// softmax heads learn, the LSTM runs and trains, and the model zoo's FLOP
// accounting matches published magnitudes.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "data/record_file.h"
#include "data/synthetic.h"
#include "graph/ops.h"
#include "nn/embedding.h"
#include "nn/layers.h"
#include "nn/build_model.h"
#include "nn/model_zoo.h"
#include "nn/rnn.h"
#include "nn/softmax.h"
#include "runtime/session.h"
#include "train/optimizer.h"

namespace tfrepro {
namespace {

using ops::Const;

TEST(LayersTest, DenseTrainsXor) {
  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b, /*seed=*/3);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({4, 2}), "x");
  Output y = ops::Placeholder(&b, DataType::kFloat, TensorShape({4, 1}), "y");
  Output h = nn::Dense(&store, x, 2, 8, nn::Activation::kTanh, "h");
  Output logits = nn::Dense(&store, h, 8, 1, nn::Activation::kNone, "out");
  Output loss = ops::MeanAll(&b, ops::Square(&b, ops::Sub(&b, logits, y)));
  train::AdamOptimizer opt(0.05f);
  Result<Node*> train_op = opt.Minimize(&b, loss, store.variables(), "train");
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  Node* init = train::BuildInitOp(&b, {}, {&opt});
  // Include layer-variable initializers.
  Node* var_init = store.BuildInitOp("var_init");
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {var_init->name(), init->name()},
                                   nullptr));
  Tensor xs = Tensor::FromVector<float>({0, 0, 0, 1, 1, 0, 1, 1},
                                        TensorShape({4, 2}));
  Tensor ys = Tensor::FromVector<float>({0, 1, 1, 0}, TensorShape({4, 1}));
  float final_loss = 1e9f;
  for (int i = 0; i < 800; ++i) {
    TF_CHECK_OK(session.value()->Run({{"x", xs}, {"y", ys}}, {},
                                     {train_op.value()->name()}, nullptr));
  }
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({{"x", xs}, {"y", ys}}, {loss.name()}, {},
                                   &out));
  final_loss = *out[0].data<float>();
  EXPECT_LT(final_loss, 0.05f);  // XOR is learned
}

TEST(LayersTest, ConvLayerForwardShape) {
  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b);
  Output x =
      ops::Placeholder(&b, DataType::kFloat, TensorShape({2, 8, 8, 3}), "x");
  Output y = nn::ConvLayer(&store, x, 3, 16, 3, 2, "SAME",
                           nn::Activation::kRelu, "conv");
  Node* init = store.BuildInitOp();
  ASSERT_TRUE(b.ok()) << b.status();
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  PhiloxRandom rng(1);
  Tensor img = data::SyntheticImageBatch(2, 8, 8, 3, &rng);
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({{"x", img}}, {y.name()}, {}, &out));
  EXPECT_EQ(out[0].shape().DebugString(), "[2,4,4,16]");
  // ReLU output is non-negative.
  for (int64_t i = 0; i < out[0].num_elements(); ++i) {
    EXPECT_GE(out[0].flat<float>(i), 0.0f);
  }
}

TEST(EmbeddingTest, LookupMatchesDirectIndexing) {
  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b);
  nn::ShardedEmbedding emb(&store, "emb", /*vocab=*/10, /*dim=*/4,
                           /*num_shards=*/3);
  Output indices =
      ops::Placeholder(&b, DataType::kInt32, TensorShape({5}), "idx");
  Output looked_up = emb.Lookup(indices);
  Node* init = store.BuildInitOp();
  // Reference: read each shard directly.
  std::vector<Output> shard_reads;
  for (const Output& s : emb.shards()) {
    shard_reads.push_back(ops::Identity(&b, s));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  Tensor idx = Tensor::Vec<int32_t>({7, 0, 4, 7, 2});
  std::vector<Tensor> out;
  std::vector<std::string> fetches = {looked_up.name()};
  for (const Output& r : shard_reads) fetches.push_back(r.name());
  TF_CHECK_OK(session.value()->Run({{"idx", idx}}, fetches, {}, &out));
  ASSERT_EQ(out[0].shape().DebugString(), "[5,4]");
  // Row i of the result must equal shard[idx%3] row [idx/3].
  for (int i = 0; i < 5; ++i) {
    int32_t ix = idx.flat<int32_t>(i);
    const Tensor& shard = out[1 + ix % 3];
    for (int d = 0; d < 4; ++d) {
      EXPECT_FLOAT_EQ(out[0].matrix<float>(i, d),
                      shard.matrix<float>(ix / 3, d))
          << "row " << i << " dim " << d;
    }
  }
}

TEST(EmbeddingTest, DenseGradientTrainsEmbedding) {
  // Train embeddings so that looked-up rows match targets, via generic
  // autodiff through Gather/DynamicPartition/DynamicStitch.
  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b);
  nn::ShardedEmbedding emb(&store, "emb", 6, 2, 2);
  Output indices = Const(&b, Tensor::Vec<int32_t>({0, 3, 5}));
  Output target = Const(&b, Tensor::FromVector<float>(
                                {1, 0, 0, 1, -1, -1}, TensorShape({3, 2})));
  Output looked_up = emb.Lookup(indices);
  Output loss = ops::MeanAll(&b, ops::Square(&b, ops::Sub(&b, looked_up,
                                                          target)));
  train::GradientDescentOptimizer opt(1.0f);
  Result<Node*> train_op = opt.Minimize(&b, loss, emb.shards(), "train");
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  Node* init = store.BuildInitOp();
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  for (int i = 0; i < 100; ++i) {
    TF_CHECK_OK(
        session.value()->Run({}, {}, {train_op.value()->name()}, nullptr));
  }
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({loss.name()}, &out));
  EXPECT_LT(*out[0].data<float>(), 1e-4f);
}

TEST(EmbeddingTest, SparseApplySgdUpdatesOnlyTouchedRows) {
  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b);
  nn::ShardedEmbedding emb(&store, "emb", 4, 2, 2);
  Output indices = Const(&b, Tensor::Vec<int32_t>({1}));
  // Gradient of 1.0 on the single looked-up row.
  Output grad = Const(&b, Tensor::FromVector<float>({1, 1}, TensorShape({1, 2})));
  Node* update = emb.SparseApplySgd(indices, grad, /*lr=*/0.5f);
  Node* init = store.BuildInitOp();
  std::vector<Output> reads;
  for (const Output& s : emb.shards()) reads.push_back(ops::Identity(&b, s));
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  std::vector<Tensor> before;
  TF_CHECK_OK(
      session.value()->Run({reads[0].name(), reads[1].name()}, &before));
  TF_CHECK_OK(session.value()->Run({}, {}, {update->name()}, nullptr));
  std::vector<Tensor> after;
  TF_CHECK_OK(
      session.value()->Run({reads[0].name(), reads[1].name()}, &after));
  // Index 1 -> shard 1 (1 % 2), local row 0. Only that row changed.
  EXPECT_FLOAT_EQ(after[1].matrix<float>(0, 0),
                  before[1].matrix<float>(0, 0) - 0.5f);
  EXPECT_FLOAT_EQ(after[0].matrix<float>(0, 0),
                  before[0].matrix<float>(0, 0));
  EXPECT_FLOAT_EQ(after[1].matrix<float>(1, 0),
                  before[1].matrix<float>(1, 0));
}

TEST(SoftmaxHeadTest, FullSoftmaxLearnsSyntheticClasses) {
  data::ClusteredDataset dataset(/*classes=*/4, /*dim=*/8, /*seed=*/5);
  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({16, 8}), "x");
  Output y = ops::Placeholder(&b, DataType::kInt64, TensorShape({16}), "y");
  nn::FullSoftmaxHead head(&store, "softmax", 8, 4, /*num_shards=*/2);
  nn::SoftmaxLoss sm = head.Loss(x, y);
  train::GradientDescentOptimizer opt(0.5f);
  Result<Node*> train_op =
      opt.Minimize(&b, sm.loss, store.variables(), "train");
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  Node* init = store.BuildInitOp();
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  float last_loss = 0;
  for (int i = 0; i < 150; ++i) {
    Tensor features, labels;
    dataset.Batch(16, &features, &labels);
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({{"x", features}, {"y", labels}},
                                     {sm.loss.name()},
                                     {train_op.value()->name()}, &out));
    last_loss = *out[0].data<float>();
  }
  EXPECT_LT(last_loss, 0.7f);  // well below log(4) ~ 1.39
}

TEST(SoftmaxHeadTest, SampledSoftmaxLearns) {
  data::ClusteredDataset dataset(4, 8, 6);
  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({16, 8}), "x");
  Output y = ops::Placeholder(&b, DataType::kInt64, TensorShape({16}), "y");
  nn::SampledSoftmaxHead head(&store, "sampled", 8, 4, /*num_sampled=*/2,
                              /*num_shards=*/2);
  nn::SoftmaxLoss sm = head.Loss(x, y);
  train::GradientDescentOptimizer opt(0.2f);
  Result<Node*> train_op =
      opt.Minimize(&b, sm.loss, store.variables(), "train");
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  Node* init = store.BuildInitOp();
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  float first_loss = -1;
  float last_loss = 0;
  for (int i = 0; i < 200; ++i) {
    Tensor features, labels;
    dataset.Batch(16, &features, &labels);
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({{"x", features}, {"y", labels}},
                                     {sm.loss.name()},
                                     {train_op.value()->name()}, &out));
    if (first_loss < 0) first_loss = *out[0].data<float>();
    last_loss = *out[0].data<float>();
  }
  EXPECT_LT(last_loss, first_loss * 0.8f);  // clear learning signal
}

TEST(RnnTest, LstmStepShapesAndTraining) {
  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b);
  nn::LSTMCell cell(&store, "lstm", /*input=*/4, /*hidden=*/6);
  Output x0 =
      ops::Placeholder(&b, DataType::kFloat, TensorShape({2, 4}), "x0");
  Output x1 =
      ops::Placeholder(&b, DataType::kFloat, TensorShape({2, 4}), "x1");
  std::vector<Output> outs = nn::UnrollLSTM(&cell, {x0, x1});
  ASSERT_EQ(outs.size(), 2u);
  Output target = Const(&b, Tensor(DataType::kFloat, TensorShape({2, 6})));
  Output loss =
      ops::MeanAll(&b, ops::Square(&b, ops::Sub(&b, outs[1], target)));
  train::AdamOptimizer opt(0.05f);
  Result<Node*> train_op = opt.Minimize(&b, loss, store.variables(), "train");
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  Node* init = store.BuildInitOp();
  Node* opt_init = train::BuildInitOp(&b, {}, {&opt}, "opt_init");
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {},
                                   {init->name(), opt_init->name()}, nullptr));
  Tensor xa = Tensor::FromVector<float>({1, 0, 0, 1, 0, 1, 1, 0},
                                        TensorShape({2, 4}));
  Tensor xb = Tensor::FromVector<float>({0, 1, 1, 0, 1, 0, 0, 1},
                                        TensorShape({2, 4}));
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({{"x0", xa}, {"x1", xb}},
                                   {outs[1].name(), loss.name()}, {}, &out));
  EXPECT_EQ(out[0].shape().DebugString(), "[2,6]");
  float initial_loss = *out[1].data<float>();
  for (int i = 0; i < 60; ++i) {
    TF_CHECK_OK(session.value()->Run({{"x0", xa}, {"x1", xb}}, {},
                                     {train_op.value()->name()}, nullptr));
  }
  TF_CHECK_OK(
      session.value()->Run({{"x0", xa}, {"x1", xb}}, {loss.name()}, {}, &out));
  EXPECT_LT(*out[0].data<float>(), initial_loss * 0.2f);
}

TEST(ModelZooTest, FlopCountsMatchPublishedMagnitudes) {
  // Forward FLOPs per example (multiply+add counted separately):
  // AlexNet ~1.4e9, OxfordNet(VGG-A) ~15e9, GoogleNet ~3e9,
  // Inception-v3 ~1e10 ("5 billion multiply-adds", §2.1).
  double alex = nn::AlexNet(1).ForwardFlopsPerExample();
  EXPECT_GT(alex, 0.8e9);
  EXPECT_LT(alex, 3e9);
  double vgg = nn::OxfordNet(1).ForwardFlopsPerExample();
  EXPECT_GT(vgg, 10e9);
  EXPECT_LT(vgg, 25e9);
  double inception = nn::GoogleNet(1).ForwardFlopsPerExample();
  EXPECT_GT(inception, 2e9);
  EXPECT_LT(inception, 5e9);
  double v3 = nn::InceptionV3(1).ForwardFlopsPerExample();
  EXPECT_GT(v3, 6e9);
  EXPECT_LT(v3, 16e9);
  double overfeat = nn::Overfeat(1).ForwardFlopsPerExample();
  EXPECT_GT(overfeat, 3e9);
  EXPECT_LT(overfeat, 12e9);
}

TEST(ModelZooTest, ParamSizesMatchPublishedMagnitudes) {
  // AlexNet ~60M params (~240 MB), VGG-A ~130M, GoogleNet ~7M,
  // Inception-v3 ~24M.
  EXPECT_NEAR(nn::AlexNet(1).TotalParamBytes() / 4e6, 60, 25);
  EXPECT_NEAR(nn::OxfordNet(1).TotalParamBytes() / 4e6, 130, 40);
  EXPECT_NEAR(nn::GoogleNet(1).TotalParamBytes() / 4e6, 7, 4);
  EXPECT_NEAR(nn::InceptionV3(1).TotalParamBytes() / 4e6, 24, 12);
}

TEST(ModelZooTest, LayerExtentsFollowTheKernelsWindowRule) {
  // The cost model sizes a layer as the Conv2D and pool kernels do: SAME
  // rounds up, VALID counts only windows that fit, and a VALID window
  // larger than its input has no output and so no work.
  nn::LayerSpec conv;
  conv.kind = nn::LayerSpec::Kind::kConv;
  conv.in_h = conv.in_w = 6;
  conv.in_c = 3;
  conv.k = 7;
  conv.stride = 2;
  conv.out_c = 4;
  EXPECT_EQ(conv.OutH(), 3);
  EXPECT_EQ(conv.OutW(), 3);
  conv.same_padding = false;
  EXPECT_EQ(conv.OutH(), 0);
  EXPECT_EQ(conv.OutW(), 0);
  EXPECT_EQ(conv.ForwardFlops(), 0);
  EXPECT_EQ(conv.ActivationBytes(), 0);
}

TEST(ModelZooTest, LstmLmScalesWithSoftmaxWidth) {
  // Full softmax (40000 classes) vs sampled (513): compute ratio should be
  // roughly the 78x data/compute reduction quoted in §6.4 for the softmax
  // portion.
  auto full = nn::LstmLanguageModel(1, 40000, 512, 512, 1, 40000);
  auto sampled = nn::LstmLanguageModel(1, 40000, 512, 512, 1, 513);
  double full_softmax = 2.0 * 512 * 40000;
  double sampled_softmax = 2.0 * 512 * 513;
  EXPECT_NEAR(full_softmax / sampled_softmax, 78.0, 1.0);
  EXPECT_GT(full.ForwardFlopsPerExample(),
            sampled.ForwardFlopsPerExample() * 5);
}

TEST(DataTest, ClusteredDatasetIsLearnableShape) {
  data::ClusteredDataset ds(3, 4, 11);
  Tensor f, l;
  ds.Batch(32, &f, &l);
  EXPECT_EQ(f.shape().DebugString(), "[32,4]");
  EXPECT_EQ(l.shape().DebugString(), "[32]");
  for (int i = 0; i < 32; ++i) {
    EXPECT_GE(l.flat<int64_t>(i), 0);
    EXPECT_LT(l.flat<int64_t>(i), 3);
  }
}

TEST(DataTest, ZipfStreamIsSkewed) {
  data::ZipfTokenStream stream(1000, 1.0, 13);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[stream.Next()];
  }
  // Rank-0 token should be far more common than rank-100.
  EXPECT_GT(counts[0], counts[100] * 5);
}

TEST(DataTest, ZipfBatchPairsTokensWithNextTokens) {
  data::ZipfTokenStream stream(50, 1.0, 17);
  Tensor tokens, labels;
  stream.Batch(2, 8, &tokens, &labels);
  EXPECT_EQ(tokens.shape().DebugString(), "[2,8]");
  // labels[t] == tokens[t+1] within a row.
  for (int b = 0; b < 2; ++b) {
    for (int t = 0; t + 1 < 8; ++t) {
      EXPECT_EQ(labels.matrix<int64_t>(b, t), tokens.matrix<int64_t>(b, t + 1));
    }
  }
}


TEST(BuildModelTest, TinyConvNetFromSpecRunsAndHasRightShape) {
  // A miniature linear spec through the same BuildConvNet path the zoo
  // models use.
  nn::ModelSpec spec;
  spec.name = "tiny";
  spec.batch = 2;
  {
    nn::LayerSpec conv;
    conv.kind = nn::LayerSpec::Kind::kConv;
    conv.in_h = conv.in_w = 8;
    conv.in_c = 3;
    conv.k = 3;
    conv.stride = 1;
    conv.out_c = 4;
    spec.layers.push_back(conv);
    nn::LayerSpec pool;
    pool.kind = nn::LayerSpec::Kind::kPool;
    pool.in_h = pool.in_w = 8;
    pool.in_c = pool.out_c = 4;
    pool.k = 2;
    pool.stride = 2;
    spec.layers.push_back(pool);
    nn::LayerSpec fc;
    fc.kind = nn::LayerSpec::Kind::kFullyConnected;
    fc.in_dim = 4 * 4 * 4;
    fc.out_dim = 10;
    spec.layers.push_back(fc);
  }

  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b);
  Output images =
      ops::Placeholder(&b, DataType::kFloat, TensorShape({2, 8, 8, 3}), "x");
  Result<Output> logits = nn::BuildConvNet(&store, images, spec);
  ASSERT_TRUE(logits.ok()) << logits.status();
  Node* init = store.BuildInitOp();
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name()}, nullptr));
  PhiloxRandom rng(3);
  Tensor batch = data::SyntheticImageBatch(2, 8, 8, 3, &rng);
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({{"x", batch}}, {logits.value().name()},
                                   {}, &out));
  EXPECT_EQ(out[0].shape().DebugString(), "[2,10]");
}

TEST(BuildModelTest, TinyConvNetTrains) {
  nn::ModelSpec spec;
  spec.name = "trainable";
  spec.batch = 4;
  {
    nn::LayerSpec conv;
    conv.kind = nn::LayerSpec::Kind::kConv;
    conv.in_h = conv.in_w = 4;
    conv.in_c = 1;
    conv.k = 3;
    conv.stride = 1;
    conv.out_c = 2;
    spec.layers.push_back(conv);
    nn::LayerSpec fc;
    fc.kind = nn::LayerSpec::Kind::kFullyConnected;
    fc.in_dim = 4 * 4 * 2;
    fc.out_dim = 2;
    spec.layers.push_back(fc);
  }
  Graph g;
  GraphBuilder b(&g);
  nn::VariableStore store(&b);
  Output images =
      ops::Placeholder(&b, DataType::kFloat, TensorShape({4, 4, 4, 1}), "x");
  Output labels = ops::Placeholder(&b, DataType::kInt64, TensorShape({4}), "y");
  Result<Output> logits = nn::BuildConvNet(&store, images, spec);
  ASSERT_TRUE(logits.ok());
  Node* xent =
      ops::SparseSoftmaxCrossEntropyWithLogits(&b, logits.value(), labels);
  Output loss = ops::MeanAll(&b, Output(xent, 0));
  train::AdamOptimizer opt(0.05f);
  Result<Node*> train_op = opt.Minimize(&b, loss, store.variables(), "train");
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  Node* init = store.BuildInitOp();
  Node* opt_init = train::BuildInitOp(&b, {}, {&opt}, "opt_init");
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init->name(), opt_init->name()},
                                   nullptr));
  // Simple learnable rule: class = whether the mean pixel is positive.
  PhiloxRandom rng(5);
  auto make_batch = [&](Tensor* x, Tensor* y) {
    *x = Tensor(DataType::kFloat, TensorShape({4, 4, 4, 1}));
    *y = Tensor(DataType::kInt64, TensorShape({4}));
    for (int i = 0; i < 4; ++i) {
      int64_t cls = rng.UniformInt(2);
      y->flat<int64_t>(i) = cls;
      for (int j = 0; j < 16; ++j) {
        x->flat<float>(i * 16 + j) =
            (cls ? 0.5f : -0.5f) + 0.1f * rng.Normal();
      }
    }
  };
  float last = 0;
  for (int step = 0; step < 120; ++step) {
    Tensor x, y;
    make_batch(&x, &y);
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({{"x", x}, {"y", y}}, {loss.name()},
                                     {train_op.value()->name()}, &out));
    last = *out[0].data<float>();
  }
  EXPECT_LT(last, 0.3f);  // well below log(2) ~ 0.69
}


TEST(RecordFileTest, RoundTripPreservesRecords) {
  std::string path = ::testing::TempDir() + "/records_roundtrip";
  {
    data::RecordWriter writer(path);
    TF_CHECK_OK(writer.Append("hello"));
    TF_CHECK_OK(writer.Append(std::string("\x00\x01binary", 8)));
    TF_CHECK_OK(writer.Append(""));  // empty records are legal
    TF_CHECK_OK(writer.Close());
    EXPECT_EQ(writer.records_written(), 3);
  }
  data::RecordReader reader(path);
  std::string record;
  TF_CHECK_OK(reader.ReadNext(&record));
  EXPECT_EQ(record, "hello");
  TF_CHECK_OK(reader.ReadNext(&record));
  EXPECT_EQ(record.size(), 8u);
  TF_CHECK_OK(reader.ReadNext(&record));
  EXPECT_EQ(record, "");
  Status end = reader.ReadNext(&record);
  EXPECT_EQ(end.code(), Code::kOutOfRange);
}

TEST(RecordFileTest, DetectsTruncation) {
  std::string path = ::testing::TempDir() + "/records_truncated";
  {
    data::RecordWriter writer(path);
    TF_CHECK_OK(writer.Append("a full record"));
    TF_CHECK_OK(writer.Close());
  }
  // Chop the tail off.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 4);
  data::RecordReader reader(path);
  std::string record;
  Status s = reader.ReadNext(&record);
  EXPECT_EQ(s.code(), Code::kDataLoss);
}

TEST(RecordFileTest, DetectsCorruption) {
  std::string path = ::testing::TempDir() + "/records_corrupt";
  {
    data::RecordWriter writer(path);
    TF_CHECK_OK(writer.Append("sensitive payload"));
    TF_CHECK_OK(writer.Close());
  }
  // Flip a payload byte (header is 12 bytes).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(14);
    f.put('X');
  }
  data::RecordReader reader(path);
  std::string record;
  Status s = reader.ReadNext(&record);
  EXPECT_EQ(s.code(), Code::kDataLoss);
  EXPECT_NE(s.message().find("checksum"), std::string::npos);
}

TEST(RecordFileTest, MissingFileReportsNotFound) {
  data::RecordReader reader("/nonexistent/records");
  std::string record;
  EXPECT_EQ(reader.ReadNext(&record).code(), Code::kNotFound);
}

}  // namespace
}  // namespace tfrepro
