// Value-level tests for the kernel library: each exercises one operation's
// semantics through a real session (construction, placement, execution),
// including error paths and dtype dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/random.h"
#include "graph/ops.h"
#include "kernels/elementwise_functors.h"
#include "kernels/gemm.h"
#include "kernels/lanes.h"
#include "runtime/session.h"

namespace tfrepro {
namespace {

using ops::Const;

// Evaluates a single fetched output built by `fn`.
Tensor Eval(const std::function<Output(GraphBuilder*)>& fn) {
  Graph g;
  GraphBuilder b(&g);
  Output out = fn(&b);
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;  // exercise the kernels
  auto session = DirectSession::Create(g, options);
  TF_CHECK_OK(session.status());
  std::vector<Tensor> results;
  TF_CHECK_OK(session.value()->Run({out.name()}, &results));
  return results[0];
}

Status EvalStatus(const std::function<Output(GraphBuilder*)>& fn) {
  Graph g;
  GraphBuilder b(&g);
  Output out = fn(&b);
  TF_RETURN_IF_ERROR(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> results;
  return session.value()->Run({out.name()}, &results);
}

std::vector<float> Vec(const Tensor& t) {
  std::vector<float> v(t.num_elements());
  for (int64_t i = 0; i < t.num_elements(); ++i) v[i] = t.flat<float>(i);
  return v;
}

TEST(KernelsTest, ElementwiseBinaryFloat) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Sub(b, Const(b, Tensor::Vec<float>({5, 7})),
                    Const(b, Tensor::Vec<float>({2, 10})));
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{3, -3}));
}

TEST(KernelsTest, ElementwiseBinaryInt64) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Mul(b, Const(b, Tensor::Vec<int64_t>({1LL << 33, 3})),
                    Const(b, Tensor::Vec<int64_t>({2, 3})));
  });
  EXPECT_EQ(r.flat<int64_t>(0), 1LL << 34);
  EXPECT_EQ(r.flat<int64_t>(1), 9);
}

TEST(KernelsTest, FloorDivAndModMatchPythonSemantics) {
  Tensor q = Eval([](GraphBuilder* b) {
    return b->Op("FloorDiv")
        .Input(Const(b, Tensor::Vec<int32_t>({7, -7, 7, -7})))
        .Input(Const(b, Tensor::Vec<int32_t>({2, 2, -2, -2})))
        .Attr("T", DataType::kInt32)
        .Finalize();
  });
  EXPECT_EQ(q.flat<int32_t>(0), 3);
  EXPECT_EQ(q.flat<int32_t>(1), -4);
  EXPECT_EQ(q.flat<int32_t>(2), -4);
  EXPECT_EQ(q.flat<int32_t>(3), 3);
  Tensor m = Eval([](GraphBuilder* b) {
    return b->Op("Mod")
        .Input(Const(b, Tensor::Vec<int32_t>({7, -7})))
        .Input(Const(b, Tensor::Vec<int32_t>({3, 3})))
        .Attr("T", DataType::kInt32)
        .Finalize();
  });
  EXPECT_EQ(m.flat<int32_t>(0), 1);
  EXPECT_EQ(m.flat<int32_t>(1), 2);  // Python-style: -7 mod 3 == 2
}

TEST(KernelsTest, UnaryMathValues) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Exp(b, Const(b, Tensor::Vec<float>({0, 1})));
  });
  EXPECT_FLOAT_EQ(r.flat<float>(0), 1.0f);
  EXPECT_NEAR(r.flat<float>(1), std::exp(1.0f), 1e-5);
  Tensor s = Eval([](GraphBuilder* b) {
    return ops::Sign(b, Const(b, Tensor::Vec<float>({-3, 0, 9})));
  });
  EXPECT_EQ(Vec(s), (std::vector<float>{-1, 0, 1}));
}

TEST(KernelsTest, ComparisonsAndLogic) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output lt = ops::Less(b, Const(b, Tensor::Vec<float>({1, 5})),
                          Const(b, Tensor::Vec<float>({3, 3})));
    Output gt = ops::Greater(b, Const(b, Tensor::Vec<float>({1, 5})),
                             Const(b, Tensor::Vec<float>({3, 3})));
    return ops::LogicalAnd(b, ops::LogicalNot(b, lt), gt);
  });
  EXPECT_FALSE(r.flat<bool>(0));
  EXPECT_TRUE(r.flat<bool>(1));
}

TEST(KernelsTest, SelectElementwiseAndVectorCond) {
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor cond(DataType::kBool, TensorShape({2}));
    cond.flat<bool>(0) = true;
    cond.flat<bool>(1) = false;
    return ops::Select(b, Const(b, Tensor(cond)),
                       Const(b, Tensor::FromVector<float>({1, 2, 3, 4},
                                                          TensorShape({2, 2}))),
                       Const(b, Tensor::FromVector<float>({9, 9, 9, 9},
                                                          TensorShape({2, 2}))));
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{1, 2, 9, 9}));
}

TEST(KernelsTest, CastFloatIntBool) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Cast(b, Const(b, Tensor::Vec<float>({1.9f, -2.7f})),
                     DataType::kInt32);
  });
  EXPECT_EQ(r.flat<int32_t>(0), 1);
  EXPECT_EQ(r.flat<int32_t>(1), -2);
  Tensor fb = Eval([](GraphBuilder* b) {
    Tensor bools(DataType::kBool, TensorShape({2}));
    bools.flat<bool>(1) = true;
    return ops::Cast(b, Const(b, Tensor(bools)), DataType::kFloat);
  });
  EXPECT_EQ(Vec(fb), (std::vector<float>{0, 1}));
}

TEST(KernelsTest, ReductionsWithKeepDims) {
  Tensor input = Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                           TensorShape({2, 3}));
  Tensor kept = Eval([&](GraphBuilder* b) {
    return ops::Sum(b, Const(b, Tensor(input)), ops::ConstVecI32(b, {1}),
                    /*keep_dims=*/true);
  });
  EXPECT_EQ(kept.shape().DebugString(), "[2,1]");
  EXPECT_EQ(Vec(kept), (std::vector<float>{6, 15}));
  Tensor dropped = Eval([&](GraphBuilder* b) {
    return ops::Sum(b, Const(b, Tensor(input)), ops::ConstVecI32(b, {1}));
  });
  EXPECT_EQ(dropped.shape().DebugString(), "[2]");
}

TEST(KernelsTest, ReductionNegativeAxisAndProd) {
  Tensor r = Eval([](GraphBuilder* b) {
    return b->Op("Prod")
        .Input(Const(b, Tensor::FromVector<float>({1, 2, 3, 4},
                                                  TensorShape({2, 2}))))
        .Input(ops::ConstVecI32(b, {-1}))
        .Attr("T", DataType::kFloat)
        .Attr("keep_dims", false)
        .Finalize();
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{2, 12}));
}

TEST(KernelsTest, ArgMaxOverAxes) {
  Tensor input = Tensor::FromVector<float>({1, 9, 3, 8, 5, 6},
                                           TensorShape({2, 3}));
  Tensor by_row = Eval([&](GraphBuilder* b) {
    return ops::ArgMax(b, Const(b, Tensor(input)), 1);
  });
  EXPECT_EQ(by_row.flat<int64_t>(0), 1);
  EXPECT_EQ(by_row.flat<int64_t>(1), 0);
  Tensor by_col = Eval([&](GraphBuilder* b) {
    return ops::ArgMax(b, Const(b, Tensor(input)), 0);
  });
  EXPECT_EQ(by_col.flat<int64_t>(0), 1);
  EXPECT_EQ(by_col.flat<int64_t>(1), 0);
  EXPECT_EQ(by_col.flat<int64_t>(2), 1);
}

TEST(KernelsTest, ConcatAndSplitRoundTrip) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output m = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                                  TensorShape({2, 3})));
    std::vector<Output> parts = ops::Split(b, 1, m, 3);
    return ops::Concat(b, 1, {parts[2], parts[1], parts[0]});
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{3, 2, 1, 6, 5, 4}));
}

TEST(KernelsTest, SliceAndPadInverse) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output m = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6, 7, 8, 9},
                                                  TensorShape({3, 3})));
    Output middle = ops::Slice(b, m, {1, 1}, {1, 2});  // [[5, 6]]
    Output paddings = Const(b, Tensor::FromVector<int32_t>(
                                   {1, 1, 1, 0}, TensorShape({2, 2})));
    return b->Op("Pad")
        .Input(middle)
        .Input(paddings)
        .Attr("T", DataType::kFloat)
        .Finalize();
  });
  EXPECT_EQ(r.shape().DebugString(), "[3,3]");
  EXPECT_EQ(r.matrix<float>(1, 1), 5.0f);
  EXPECT_EQ(r.matrix<float>(1, 2), 6.0f);
  EXPECT_EQ(r.matrix<float>(0, 0), 0.0f);
}

TEST(KernelsTest, SliceNegativeSizeMeansToEnd) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output v = Const(b, Tensor::Vec<float>({1, 2, 3, 4, 5}));
    return ops::Slice(b, v, {2}, {-1});
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{3, 4, 5}));
}

TEST(KernelsTest, TransposeTileExpandSqueeze) {
  Tensor t = Eval([](GraphBuilder* b) {
    Output m = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                                  TensorShape({2, 3})));
    return ops::Transpose(b, m, {1, 0});
  });
  EXPECT_EQ(t.shape().DebugString(), "[3,2]");
  EXPECT_EQ(t.matrix<float>(0, 1), 4.0f);

  Tensor tiled = Eval([](GraphBuilder* b) {
    return ops::Tile(b, Const(b, Tensor::Vec<float>({1, 2})), {3});
  });
  EXPECT_EQ(Vec(tiled), (std::vector<float>{1, 2, 1, 2, 1, 2}));

  Tensor expanded = Eval([](GraphBuilder* b) {
    Output e = ops::ExpandDims(b, Const(b, Tensor::Vec<float>({1, 2})), 0);
    return b->Op("Squeeze")
        .Input(e)
        .Attr("T", DataType::kFloat)
        .Finalize();
  });
  EXPECT_EQ(expanded.shape().DebugString(), "[2]");
}

TEST(KernelsTest, PackUnpackAxis1) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output a = Const(b, Tensor::Vec<float>({1, 2}));
    Output c = Const(b, Tensor::Vec<float>({3, 4}));
    return ops::Pack(b, {a, c}, /*axis=*/1);
  });
  EXPECT_EQ(r.shape().DebugString(), "[2,2]");
  EXPECT_EQ(r.matrix<float>(0, 1), 3.0f);
  EXPECT_EQ(r.matrix<float>(1, 0), 2.0f);
}

TEST(KernelsTest, OneHot) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::OneHot(b, Const(b, Tensor::Vec<int64_t>({1, 0, 3})), 4);
  });
  EXPECT_EQ(r.shape().DebugString(), "[3,4]");
  EXPECT_EQ(r.matrix<float>(0, 1), 1.0f);
  EXPECT_EQ(r.matrix<float>(0, 0), 0.0f);
  EXPECT_EQ(r.matrix<float>(2, 3), 1.0f);
}

TEST(KernelsTest, GatherOutOfRangeFails) {
  Status s = EvalStatus([](GraphBuilder* b) {
    Output params = Const(b, Tensor::FromVector<float>({1, 2, 3, 4},
                                                       TensorShape({2, 2})));
    return ops::Gather(b, params, Const(b, Tensor::Vec<int32_t>({5})));
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kOutOfRange);
}

TEST(KernelsTest, UnsortedSegmentSum) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output data = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                                     TensorShape({3, 2})));
    Output ids = Const(b, Tensor::Vec<int32_t>({1, 0, 1}));
    return ops::UnsortedSegmentSum(b, data, ids, Const(b, int32_t{2}));
  });
  EXPECT_EQ(r.shape().DebugString(), "[2,2]");
  EXPECT_EQ(r.matrix<float>(0, 0), 3.0f);   // row 1
  EXPECT_EQ(r.matrix<float>(1, 0), 6.0f);   // rows 0 + 2
  EXPECT_EQ(r.matrix<float>(1, 1), 8.0f);
}

TEST(KernelsTest, MatMulTransposeCombos) {
  Tensor a = Tensor::FromVector<float>({1, 2, 3, 4, 5, 6}, TensorShape({2, 3}));
  // (A^T)^T x A^T with explicit flags == A x A^T.
  Tensor r = Eval([&](GraphBuilder* b) {
    Output at = Const(b, Tensor::FromVector<float>({1, 4, 2, 5, 3, 6},
                                                   TensorShape({3, 2})));
    return ops::MatMul(b, at, at, /*ta=*/true, /*tb=*/false);
  });
  // A x A^T = [[14, 32], [32, 77]].
  EXPECT_EQ(Vec(r), (std::vector<float>{14, 32, 32, 77}));
}

TEST(KernelsTest, MatMulZeroTimesInfIsNaNInEveryForm) {
  // [[0, 1]] x [[inf], [2]]: IEEE gives 0 * inf + 1 * 2 = NaN. A kernel that
  // skips zero entries of `a` answers 2, and only for some transpose forms.
  const float inf = std::numeric_limits<float>::infinity();
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      Tensor r = Eval([&](GraphBuilder* b) {
        // Stored shapes [1,2] / [2,1] read the same values either way.
        Output a = Const(b, Tensor::FromVector<float>(
                                {0, 1}, ta ? TensorShape({2, 1})
                                           : TensorShape({1, 2})));
        Output c = Const(b, Tensor::FromVector<float>(
                                {inf, 2}, tb ? TensorShape({1, 2})
                                             : TensorShape({2, 1})));
        return ops::MatMul(b, a, c, ta, tb);
      });
      ASSERT_EQ(r.shape().DebugString(), "[1,1]");
      EXPECT_TRUE(std::isnan(r.flat<float>(0)))
          << "ta=" << ta << " tb=" << tb << " got " << r.flat<float>(0);
    }
  }
}

// The GEMM behind MatMul (kernels/gemm.h), checked bit for bit against the
// plain loop it must match: one accumulator per output element, starting
// at zero, adding op(a)[i,p] * op(b)[p,j] for ascending p. Every case runs
// at each vector width (16, 32 and 64 bytes); a width this CPU cannot run
// is reported as skipped.

template <typename T>
std::vector<T> RandomMatrix(int64_t elements, uint64_t seed) {
  PhiloxRandom rng(seed);
  std::vector<T> v(elements);
  for (T& x : v) {
    if constexpr (std::is_floating_point_v<T>) {
      x = static_cast<T>(rng.UniformDouble() * 2 - 1);  // order-sensitive sums
    } else if constexpr (std::is_signed_v<T>) {
      x = static_cast<T>(rng.UniformInt(7)) - 3;  // no overflow at k <= 300
    } else {
      x = static_cast<T>(rng.UniformInt(256));  // wraps, as uint8 does
    }
  }
  return v;
}

template <typename T>
std::vector<T> AscendingKLoop(const std::vector<T>& a, const std::vector<T>& b,
                              int64_t m, int64_t k, int64_t n, bool ta,
                              bool tb) {
  std::vector<T> c(m * n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      T acc{0};
      for (int64_t p = 0; p < k; ++p) {
        acc += (ta ? a[p * m + i] : a[i * k + p]) *
               (tb ? b[j * k + p] : b[p * n + j]);
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

// The product at `bytes`-wide vectors.
template <typename T>
std::vector<T> RunGemm(const std::vector<T>& a, const std::vector<T>& b,
                       int64_t m, int64_t k, int64_t n, bool ta, bool tb,
                       ThreadPool* pool, int bytes) {
  // Pre-filled with garbage: the GEMM must write every element.
  std::vector<T> c(m * n, static_cast<T>(77));
  gemm_internal::GemmAtVectorBytes<T>(bytes, a.data(), b.data(), c.data(), m,
                                      k, n, ta, tb, pool);
  return c;
}

template <typename T>
bool SameBits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

struct GemmShape {
  int64_t m, k, n;
};

// Edges of every blocking level: empty and unit dimensions; the 4- and
// 8-row register tiles +-1; the column tiles +-1 of each type at each
// width (16 bytes: 4 double or int64, 8 float or int32, 32 uint8; 32 and
// 64 bytes: 8, 16 and 64); k past one and two 256-deep k-blocks; n past one
// 256-wide block; serving's 1x16x16 and 32x16x16; and the training-sized
// product. The last two split on a 4-thread pool into shards that straddle
// 64-column blocks, with ragged m and n and k past one k-block.
const std::vector<GemmShape>& EdgeShapes() {
  static const std::vector<GemmShape> shapes = {
      {0, 3, 4},    {3, 0, 4},    {3, 4, 0},    {0, 0, 0},     {1, 1, 1},
      {3, 5, 3},    {5, 3, 5},    {4, 8, 8},    {3, 7, 7},     {5, 9, 9},
      {7, 6, 15},   {8, 5, 16},   {9, 4, 17},   {8, 3, 7},     {7, 11, 9},
      {9, 2, 63},   {8, 7, 64},   {7, 5, 65},   {1, 16, 31},   {4, 17, 33},
      {5, 33, 32},  {7, 2, 17},   {9, 257, 9},  {1, 16, 16},   {32, 16, 16},
      {5, 300, 33}, {3, 513, 5},  {6, 20, 260}, {64, 256, 256}, {37, 300, 150},
      {130, 513, 70}};
  return shapes;
}

class GemmTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!gemm_internal::HostRunsGemmVectorBytes(bytes())) {
      GTEST_SKIP() << "this CPU cannot run the " << bytes()
                   << "-byte GEMM";
    }
  }

  int bytes() const { return GetParam(); }

  // Each product inline and on `pool`, against one reference loop and
  // against the 16-byte width, which every CPU runs.
  template <typename T>
  void ExpectMatchesAscendingKLoop(ThreadPool* pool) {
    uint64_t seed = 1;
    for (const GemmShape& s : EdgeShapes()) {
      for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
          const std::vector<T> a = RandomMatrix<T>(s.m * s.k, seed++);
          const std::vector<T> b = RandomMatrix<T>(s.k * s.n, seed++);
          const std::vector<T> want =
              AscendingKLoop(a, b, s.m, s.k, s.n, ta, tb);
          const std::vector<T> narrow =
              RunGemm(a, b, s.m, s.k, s.n, ta, tb, nullptr, 16);
          for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), pool}) {
            const std::vector<T> got =
                RunGemm(a, b, s.m, s.k, s.n, ta, tb, p, bytes());
            EXPECT_TRUE(SameBits(got, want) && SameBits(got, narrow))
                << DataTypeName(DataTypeToEnum<T>::value) << " m=" << s.m
                << " k=" << s.k << " n=" << s.n << " ta=" << ta
                << " tb=" << tb << (p == nullptr ? " inline" : " on the pool")
                << (SameBits(got, want) ? ": differs from the 16-byte width"
                                        : ": differs from the loop");
          }
        }
      }
    }
  }
};

INSTANTIATE_TEST_SUITE_P(
    VectorBytes, GemmTest,
    ::testing::ValuesIn(gemm_internal::kGemmVectorBytes),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::to_string(info.param);
    });

TEST_P(GemmTest, MatchesAscendingKLoopForEveryFormAndType) {
  ThreadPool pool("gemm_test", 4);
  ExpectMatchesAscendingKLoop<float>(&pool);
  ExpectMatchesAscendingKLoop<double>(&pool);
  ExpectMatchesAscendingKLoop<int32_t>(&pool);
  ExpectMatchesAscendingKLoop<int64_t>(&pool);
  ExpectMatchesAscendingKLoop<uint8_t>(&pool);
}

TEST_P(GemmTest, OneForkJoinPerProduct) {
  // A split product is one ParallelFor, which hands a 4-thread pool at most
  // 3 helper tasks; a product below the split threshold schedules none.
  const std::string name = "gemm_fork_join_" + std::to_string(bytes());
  ThreadPool pool(name, 4);
  metrics::Counter* tasks = metrics::Registry::Global()->GetCounter(
      "threadpool.tasks", {{"pool", name}});
  auto tasks_for = [&](int64_t m, int64_t k, int64_t n) {
    const std::vector<float> a = RandomMatrix<float>(m * k, 31);
    const std::vector<float> b = RandomMatrix<float>(k * n, 32);
    pool.WaitIdle();  // also flushes the pool's batched task count
    const int64_t before = tasks->value();
    RunGemm(a, b, m, k, n, false, false, &pool, bytes());
    pool.WaitIdle();
    return tasks->value() - before;
  };
  const int64_t split = tasks_for(64, 256, 256);
  EXPECT_GE(split, 1) << "the training-sized product no longer splits";
  EXPECT_LE(split, 3);
  EXPECT_EQ(tasks_for(32, 128, 128), 0);
}

TEST_P(GemmTest, SameBitsOnPoolsOfOneTwoAndFourThreads) {
  // Large enough to be split into row shards on the 2- and 4-thread pools.
  const int64_t m = 64, k = 256, n = 256;
  ThreadPool one("gemm_1", 1), two("gemm_2", 2), four("gemm_4", 4);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const std::vector<float> a = RandomMatrix<float>(m * k, 11);
      const std::vector<float> b = RandomMatrix<float>(k * n, 12);
      const std::vector<float> inline_c =
          RunGemm(a, b, m, k, n, ta, tb, nullptr, bytes());
      for (ThreadPool* pool : {&one, &two, &four}) {
        for (int rep = 0; rep < 3; ++rep) {
          EXPECT_TRUE(SameBits(RunGemm(a, b, m, k, n, ta, tb, pool, bytes()),
                               inline_c))
              << pool->num_threads() << " threads, ta=" << ta
              << " tb=" << tb;
        }
      }
    }
  }
}

TEST_P(GemmTest, RowOfBatchEqualsSingleRowProduct) {
  // A serving batch must answer each request exactly as a batch of one.
  const int64_t m = 32, k = 256, n = 256;
  ThreadPool pool("gemm_rows", 4);
  for (bool tb : {false, true}) {
    const std::vector<float> a = RandomMatrix<float>(m * k, 21);
    const std::vector<float> b = RandomMatrix<float>(k * n, 22);
    const std::vector<float> batch =
        RunGemm(a, b, m, k, n, false, tb, &pool, bytes());
    for (int64_t i = 0; i < m; ++i) {
      const std::vector<float> row(a.begin() + i * k, a.begin() + (i + 1) * k);
      const std::vector<float> single =
          RunGemm(row, b, 1, k, n, false, tb, &pool, bytes());
      EXPECT_EQ(std::memcmp(single.data(), batch.data() + i * n,
                            n * sizeof(float)),
                0)
          << "row " << i << " tb=" << tb;
    }
  }
}

TEST(KernelsTest, Conv2DHandComputed) {
  // 1x2x2x1 input, 2x2 filter of ones, VALID -> single sum.
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor input(DataType::kFloat, TensorShape({1, 2, 2, 1}));
    for (int i = 0; i < 4; ++i) input.flat<float>(i) = i + 1;
    Tensor filter(DataType::kFloat, TensorShape({2, 2, 1, 1}));
    for (int i = 0; i < 4; ++i) filter.flat<float>(i) = 1;
    return ops::Conv2D(b, Const(b, Tensor(input)), Const(b, Tensor(filter)),
                       {1, 1, 1, 1}, "VALID");
  });
  EXPECT_EQ(r.shape().DebugString(), "[1,1,1,1]");
  EXPECT_FLOAT_EQ(*r.data<float>(), 10.0f);
}

TEST(KernelsTest, Conv2DSamePaddingShape) {
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor input(DataType::kFloat, TensorShape({2, 5, 5, 3}));
    Tensor filter(DataType::kFloat, TensorShape({3, 3, 3, 8}));
    return ops::Conv2D(b, Const(b, Tensor(input)), Const(b, Tensor(filter)),
                       {1, 2, 2, 1}, "SAME");
  });
  EXPECT_EQ(r.shape().DebugString(), "[2,3,3,8]");
}

TEST(KernelsTest, MaxPoolValues) {
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor input(DataType::kFloat, TensorShape({1, 2, 2, 1}));
    input.flat<float>(0) = 1;
    input.flat<float>(1) = 7;
    input.flat<float>(2) = 3;
    input.flat<float>(3) = 2;
    return ops::MaxPool(b, Const(b, Tensor(input)), {1, 2, 2, 1}, {1, 2, 2, 1},
                        "VALID");
  });
  EXPECT_FLOAT_EQ(*r.data<float>(), 7.0f);
}

TEST(KernelsTest, AvgPoolValues) {
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor input(DataType::kFloat, TensorShape({1, 2, 2, 1}));
    for (int i = 0; i < 4; ++i) input.flat<float>(i) = i + 1;
    return ops::AvgPool(b, Const(b, Tensor(input)), {1, 2, 2, 1}, {1, 2, 2, 1},
                        "VALID");
  });
  EXPECT_FLOAT_EQ(*r.data<float>(), 2.5f);
}

TEST(KernelsTest, Conv2DZeroTimesInfIsNaN) {
  // IEEE gives 0 * inf = NaN. The loops that once ran Conv2D and
  // Conv2DBackpropFilter skipped zero inputs and answered 1 here.
  const float inf = std::numeric_limits<float>::infinity();
  Tensor input = Tensor::FromVector<float>({0, 1}, TensorShape({1, 1, 2, 1}));
  Tensor r = Eval([&](GraphBuilder* b) {
    return ops::Conv2D(b, Const(b, Tensor(input)),
                       Const(b, Tensor::FromVector<float>(
                                    {inf, 1}, TensorShape({1, 2, 1, 1}))),
                       {1, 1, 1, 1}, "VALID");
  });
  EXPECT_TRUE(std::isnan(r.flat<float>(0))) << r.flat<float>(0);
  Tensor dw = Eval([&](GraphBuilder* b) {
    return b->Op("Conv2DBackpropFilter")
        .Input(Const(b, Tensor(input)))
        .Input(ops::ConstVecI32(b, {1, 1, 1, 1}))
        .Input(Const(b, Tensor::FromVector<float>({inf, 1},
                                                  TensorShape({1, 1, 2, 1}))))
        .Attr("T", DataType::kFloat)
        .Attr("strides", std::vector<int64_t>{1, 1, 1, 1})
        .Attr("padding", std::string("VALID"))
        .Finalize();
  });
  EXPECT_TRUE(std::isnan(dw.flat<float>(0))) << dw.flat<float>(0);
}

// The window kernels (DESIGN.md §15) against the loops they replaced, kept
// here as references: seven-deep loops over (b, oh, ow), the in-bounds
// window taps and the channels, adding into zeroed outputs, and skipping
// zero inputs where the old kernels did. Geometry is the old rule too.

struct WindowCase {
  int64_t batch, in_h, in_w, in_c;
  int64_t k_h, k_w, out_c;  // window; out_c is the filter's
  int64_t stride_h, stride_w;
  bool same;
  int64_t out_h, out_w, pad_top, pad_left;
};

WindowCase MakeWindowCase(int64_t batch, int64_t in_h, int64_t in_w,
                          int64_t in_c, int64_t k_h, int64_t k_w,
                          int64_t out_c, int64_t stride_h, int64_t stride_w,
                          bool same) {
  WindowCase p{batch,    in_h,     in_w, in_c, k_h, k_w, out_c,
               stride_h, stride_w, same, 0,    0,   0,   0};
  if (same) {
    p.out_h = (in_h + stride_h - 1) / stride_h;
    p.out_w = (in_w + stride_w - 1) / stride_w;
    p.pad_top =
        std::max<int64_t>(0, (p.out_h - 1) * stride_h + k_h - in_h) / 2;
    p.pad_left =
        std::max<int64_t>(0, (p.out_w - 1) * stride_w + k_w - in_w) / 2;
  } else {
    p.out_h = (in_h - k_h) / stride_h + 1;
    p.out_w = (in_w - k_w) / stride_w + 1;
  }
  return p;
}

template <typename T>
std::vector<T> RefConv2D(const WindowCase& p, const std::vector<T>& in,
                         const std::vector<T>& f) {
  std::vector<T> o(p.batch * p.out_h * p.out_w * p.out_c);
  for (int64_t b = 0; b < p.batch; ++b) {
    for (int64_t oh = 0; oh < p.out_h; ++oh) {
      for (int64_t ow = 0; ow < p.out_w; ++ow) {
        T* opix = &o[((b * p.out_h + oh) * p.out_w + ow) * p.out_c];
        for (int64_t kh = 0; kh < p.k_h; ++kh) {
          int64_t ih = oh * p.stride_h + kh - p.pad_top;
          if (ih < 0 || ih >= p.in_h) continue;
          for (int64_t kw = 0; kw < p.k_w; ++kw) {
            int64_t iw = ow * p.stride_w + kw - p.pad_left;
            if (iw < 0 || iw >= p.in_w) continue;
            const T* ipix = &in[((b * p.in_h + ih) * p.in_w + iw) * p.in_c];
            const T* fpix = &f[(kh * p.k_w + kw) * p.in_c * p.out_c];
            for (int64_t ic = 0; ic < p.in_c; ++ic) {
              T iv = ipix[ic];
              if (iv == T{0}) continue;
              const T* frow = fpix + ic * p.out_c;
              for (int64_t oc = 0; oc < p.out_c; ++oc) {
                opix[oc] += iv * frow[oc];
              }
            }
          }
        }
      }
    }
  }
  return o;
}

template <typename T>
std::vector<T> RefConv2DBackpropInput(const WindowCase& p,
                                      const std::vector<T>& f,
                                      const std::vector<T>& g) {
  std::vector<T> o(p.batch * p.in_h * p.in_w * p.in_c);
  for (int64_t b = 0; b < p.batch; ++b) {
    for (int64_t oh = 0; oh < p.out_h; ++oh) {
      for (int64_t ow = 0; ow < p.out_w; ++ow) {
        const T* gpix = &g[((b * p.out_h + oh) * p.out_w + ow) * p.out_c];
        for (int64_t kh = 0; kh < p.k_h; ++kh) {
          int64_t ih = oh * p.stride_h + kh - p.pad_top;
          if (ih < 0 || ih >= p.in_h) continue;
          for (int64_t kw = 0; kw < p.k_w; ++kw) {
            int64_t iw = ow * p.stride_w + kw - p.pad_left;
            if (iw < 0 || iw >= p.in_w) continue;
            T* opix = &o[((b * p.in_h + ih) * p.in_w + iw) * p.in_c];
            const T* fpix = &f[(kh * p.k_w + kw) * p.in_c * p.out_c];
            for (int64_t ic = 0; ic < p.in_c; ++ic) {
              const T* frow = fpix + ic * p.out_c;
              T acc{0};
              for (int64_t oc = 0; oc < p.out_c; ++oc) {
                acc += gpix[oc] * frow[oc];
              }
              opix[ic] += acc;
            }
          }
        }
      }
    }
  }
  return o;
}

template <typename T>
std::vector<T> RefConv2DBackpropFilter(const WindowCase& p,
                                       const std::vector<T>& in,
                                       const std::vector<T>& g) {
  std::vector<T> o(p.k_h * p.k_w * p.in_c * p.out_c);
  for (int64_t b = 0; b < p.batch; ++b) {
    for (int64_t oh = 0; oh < p.out_h; ++oh) {
      for (int64_t ow = 0; ow < p.out_w; ++ow) {
        const T* gpix = &g[((b * p.out_h + oh) * p.out_w + ow) * p.out_c];
        for (int64_t kh = 0; kh < p.k_h; ++kh) {
          int64_t ih = oh * p.stride_h + kh - p.pad_top;
          if (ih < 0 || ih >= p.in_h) continue;
          for (int64_t kw = 0; kw < p.k_w; ++kw) {
            int64_t iw = ow * p.stride_w + kw - p.pad_left;
            if (iw < 0 || iw >= p.in_w) continue;
            const T* ipix = &in[((b * p.in_h + ih) * p.in_w + iw) * p.in_c];
            T* fpix = &o[(kh * p.k_w + kw) * p.in_c * p.out_c];
            for (int64_t ic = 0; ic < p.in_c; ++ic) {
              T iv = ipix[ic];
              if (iv == T{0}) continue;
              T* frow = fpix + ic * p.out_c;
              for (int64_t oc = 0; oc < p.out_c; ++oc) {
                frow[oc] += iv * gpix[oc];
              }
            }
          }
        }
      }
    }
  }
  return o;
}

// The pools' window is k_h x k_w over in_c channels.
template <typename T>
std::vector<T> RefMaxPool(const WindowCase& p, const std::vector<T>& in) {
  std::vector<T> o(p.batch * p.out_h * p.out_w * p.in_c);
  for (int64_t b = 0; b < p.batch; ++b) {
    for (int64_t oh = 0; oh < p.out_h; ++oh) {
      for (int64_t ow = 0; ow < p.out_w; ++ow) {
        for (int64_t c = 0; c < p.in_c; ++c) {
          T best = std::numeric_limits<T>::lowest();
          for (int64_t kh = 0; kh < p.k_h; ++kh) {
            int64_t ih = oh * p.stride_h + kh - p.pad_top;
            if (ih < 0 || ih >= p.in_h) continue;
            for (int64_t kw = 0; kw < p.k_w; ++kw) {
              int64_t iw = ow * p.stride_w + kw - p.pad_left;
              if (iw < 0 || iw >= p.in_w) continue;
              T v = in[((b * p.in_h + ih) * p.in_w + iw) * p.in_c + c];
              if (v > best) best = v;
            }
          }
          o[((b * p.out_h + oh) * p.out_w + ow) * p.in_c + c] = best;
        }
      }
    }
  }
  return o;
}

template <typename T>
std::vector<T> RefMaxPoolGrad(const WindowCase& p, const std::vector<T>& in,
                              const std::vector<T>& out,
                              const std::vector<T>& g) {
  std::vector<T> o(in.size());
  for (int64_t b = 0; b < p.batch; ++b) {
    for (int64_t oh = 0; oh < p.out_h; ++oh) {
      for (int64_t ow = 0; ow < p.out_w; ++ow) {
        for (int64_t c = 0; c < p.in_c; ++c) {
          int64_t oidx = ((b * p.out_h + oh) * p.out_w + ow) * p.in_c + c;
          T best = out[oidx];
          bool routed = false;
          for (int64_t kh = 0; kh < p.k_h && !routed; ++kh) {
            int64_t ih = oh * p.stride_h + kh - p.pad_top;
            if (ih < 0 || ih >= p.in_h) continue;
            for (int64_t kw = 0; kw < p.k_w && !routed; ++kw) {
              int64_t iw = ow * p.stride_w + kw - p.pad_left;
              if (iw < 0 || iw >= p.in_w) continue;
              int64_t iidx = ((b * p.in_h + ih) * p.in_w + iw) * p.in_c + c;
              if (in[iidx] == best) {
                o[iidx] += g[oidx];
                routed = true;
              }
            }
          }
        }
      }
    }
  }
  return o;
}

template <typename T>
std::vector<T> RefAvgPool(const WindowCase& p, const std::vector<T>& in) {
  std::vector<T> o(p.batch * p.out_h * p.out_w * p.in_c);
  for (int64_t b = 0; b < p.batch; ++b) {
    for (int64_t oh = 0; oh < p.out_h; ++oh) {
      for (int64_t ow = 0; ow < p.out_w; ++ow) {
        for (int64_t c = 0; c < p.in_c; ++c) {
          double acc = 0;
          int64_t count = 0;
          for (int64_t kh = 0; kh < p.k_h; ++kh) {
            int64_t ih = oh * p.stride_h + kh - p.pad_top;
            if (ih < 0 || ih >= p.in_h) continue;
            for (int64_t kw = 0; kw < p.k_w; ++kw) {
              int64_t iw = ow * p.stride_w + kw - p.pad_left;
              if (iw < 0 || iw >= p.in_w) continue;
              acc += in[((b * p.in_h + ih) * p.in_w + iw) * p.in_c + c];
              ++count;
            }
          }
          o[((b * p.out_h + oh) * p.out_w + ow) * p.in_c + c] =
              static_cast<T>(count > 0 ? acc / count : 0);
        }
      }
    }
  }
  return o;
}

template <typename T>
std::vector<T> RefAvgPoolGrad(const WindowCase& p, const std::vector<T>& g) {
  std::vector<T> o(p.batch * p.in_h * p.in_w * p.in_c);
  for (int64_t b = 0; b < p.batch; ++b) {
    for (int64_t oh = 0; oh < p.out_h; ++oh) {
      for (int64_t ow = 0; ow < p.out_w; ++ow) {
        int64_t count = 0;
        for (int64_t kh = 0; kh < p.k_h; ++kh) {
          int64_t ih = oh * p.stride_h + kh - p.pad_top;
          if (ih < 0 || ih >= p.in_h) continue;
          for (int64_t kw = 0; kw < p.k_w; ++kw) {
            int64_t iw = ow * p.stride_w + kw - p.pad_left;
            if (iw >= 0 && iw < p.in_w) ++count;
          }
        }
        if (count == 0) continue;
        for (int64_t c = 0; c < p.in_c; ++c) {
          T share = g[((b * p.out_h + oh) * p.out_w + ow) * p.in_c + c] /
                    static_cast<T>(count);
          for (int64_t kh = 0; kh < p.k_h; ++kh) {
            int64_t ih = oh * p.stride_h + kh - p.pad_top;
            if (ih < 0 || ih >= p.in_h) continue;
            for (int64_t kw = 0; kw < p.k_w; ++kw) {
              int64_t iw = ow * p.stride_w + kw - p.pad_left;
              if (iw < 0 || iw >= p.in_w) continue;
              o[((b * p.in_h + ih) * p.in_w + iw) * p.in_c + c] += share;
            }
          }
        }
      }
    }
  }
  return o;
}

// A seeded sweep: batch 1-3, spatial 1-14 with independent height and
// width, channels 1-9, windows 1x1 to 5x3, 1-10 filters, strides 1-3, SAME
// and VALID (a VALID window no larger than the input). Three fixed cases
// come first: their forward, input-gradient and filter-gradient products
// are big enough for Gemm to split them on the session's 4-thread pool
// (DESIGN.md §15).
std::vector<WindowCase> WindowSweep(int count) {
  std::vector<WindowCase> cases = {
      MakeWindowCase(3, 14, 14, 9, 5, 3, 10, 1, 1, true),
      MakeWindowCase(3, 14, 13, 9, 5, 3, 10, 1, 1, false),
      MakeWindowCase(2, 14, 14, 8, 3, 3, 9, 1, 1, true)};
  PhiloxRandom rng(2516);
  auto in = [&](int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(rng.UniformInt(hi - lo + 1));
  };
  while (static_cast<int>(cases.size()) < count) {
    const int64_t batch = in(1, 3), in_h = in(1, 14), in_w = in(1, 14),
                  in_c = in(1, 9), k_h = in(1, 5), k_w = in(1, 3),
                  out_c = in(1, 10), stride_h = in(1, 3), stride_w = in(1, 3);
    const bool same = rng.UniformInt(2) == 0;
    if (!same && (in_h < k_h || in_w < k_w)) continue;
    cases.push_back(MakeWindowCase(batch, in_h, in_w, in_c, k_h, k_w, out_c,
                                   stride_h, stride_w, same));
  }
  return cases;
}

// Uniform in [-1, 1), 30% of entries zero.
template <typename T>
std::vector<T> WindowValues(int64_t n, PhiloxRandom* rng) {
  std::vector<T> v(n);
  for (T& x : v) {
    const bool zero = rng->UniformDouble() < 0.3;
    x = zero ? T{0} : static_cast<T>(rng->UniformDouble() * 2 - 1);
  }
  return v;
}

std::string Describe(const WindowCase& p) {
  auto x = [](int64_t a, int64_t b) {
    return std::to_string(a) + "x" + std::to_string(b);
  };
  return "batch " + std::to_string(p.batch) + ", input " + x(p.in_h, p.in_w) +
         "x" + std::to_string(p.in_c) + ", window " + x(p.k_h, p.k_w) + ", " +
         std::to_string(p.out_c) + " filters, strides " +
         x(p.stride_h, p.stride_w) + (p.same ? ", SAME" : ", VALID");
}

template <typename T>
Tensor WindowTensor(const std::vector<T>& v, std::vector<int64_t> dims) {
  return Tensor::FromVector<T>(v, TensorShape(dims));
}

// Runs the seven kernels on each case, many cases to a session, and
// compares every output with its reference by memcmp.
template <typename T>
void ExpectWindowKernelsMatchOldLoops(const std::vector<WindowCase>& cases) {
  constexpr size_t kCasesPerSession = 64;
  PhiloxRandom rng(DataTypeToEnum<T>::value == DataType::kFloat ? 1 : 2);
  for (size_t first = 0; first < cases.size(); first += kCasesPerSession) {
    Graph graph;
    GraphBuilder b(&graph);
    std::vector<std::string> fetches;
    std::vector<std::vector<T>> want;
    std::vector<std::string> labels;
    for (size_t i = first; i < std::min(cases.size(), first + kCasesPerSession);
         ++i) {
      const WindowCase& p = cases[i];
      const std::vector<int64_t> in_dims = {p.batch, p.in_h, p.in_w, p.in_c};
      const std::vector<int64_t> f_dims = {p.k_h, p.k_w, p.in_c, p.out_c};
      const std::vector<int64_t> conv_dims = {p.batch, p.out_h, p.out_w,
                                              p.out_c};
      const std::vector<int64_t> pool_dims = {p.batch, p.out_h, p.out_w,
                                              p.in_c};
      const std::vector<T> in = WindowValues<T>(
          p.batch * p.in_h * p.in_w * p.in_c, &rng);
      const std::vector<T> f =
          WindowValues<T>(p.k_h * p.k_w * p.in_c * p.out_c, &rng);
      const std::vector<T> conv_grad = WindowValues<T>(
          p.batch * p.out_h * p.out_w * p.out_c, &rng);
      const std::vector<T> pool_grad = WindowValues<T>(
          p.batch * p.out_h * p.out_w * p.in_c, &rng);
      const std::vector<T> max_out = RefMaxPool(p, in);
      const std::vector<int64_t> strides = {1, p.stride_h, p.stride_w, 1};
      const std::vector<int64_t> ksize = {1, p.k_h, p.k_w, 1};
      const std::string padding = p.same ? "SAME" : "VALID";
      auto sizes = [&](const std::vector<int64_t>& dims) {
        return ops::ConstVecI32(
            &b, {static_cast<int32_t>(dims[0]), static_cast<int32_t>(dims[1]),
                 static_cast<int32_t>(dims[2]), static_cast<int32_t>(dims[3])});
      };
      auto window_op = [&](const char* op, std::vector<Output> inputs,
                           bool pool) {
        NodeBuilder nb = b.Op(op);
        for (const Output& x : inputs) nb.Input(x);
        nb.Attr("T", DataTypeToEnum<T>::value)
            .Attr("strides", strides)
            .Attr("padding", padding);
        if (pool) nb.Attr("ksize", ksize);
        return nb.Finalize();
      };
      Output input = Const(&b, WindowTensor(in, in_dims));
      Output filter = Const(&b, WindowTensor(f, f_dims));
      Output dconv = Const(&b, WindowTensor(conv_grad, conv_dims));
      Output dpool = Const(&b, WindowTensor(pool_grad, pool_dims));
      const std::vector<std::pair<Output, std::vector<T>>> runs = {
          {window_op("Conv2D", {input, filter}, false), RefConv2D(p, in, f)},
          {window_op("Conv2DBackpropInput", {sizes(in_dims), filter, dconv},
                     false),
           RefConv2DBackpropInput(p, f, conv_grad)},
          {window_op("Conv2DBackpropFilter", {input, sizes(f_dims), dconv},
                     false),
           RefConv2DBackpropFilter(p, in, conv_grad)},
          {window_op("MaxPool", {input}, true), max_out},
          {window_op("MaxPoolGrad",
                     {input, Const(&b, WindowTensor(max_out, pool_dims)),
                      dpool},
                     true),
           RefMaxPoolGrad(p, in, max_out, pool_grad)},
          {window_op("AvgPool", {input}, true), RefAvgPool(p, in)},
          {window_op("AvgPoolGrad", {sizes(in_dims), dpool}, true),
           RefAvgPoolGrad(p, pool_grad)}};
      for (const auto& [out, ref] : runs) {
        fetches.push_back(out.name());
        want.push_back(ref);
        labels.push_back(out.node->op() + " " + Describe(p));
      }
    }
    TF_CHECK_OK(b.status());
    SessionOptions options;
    options.optimizer.do_constant_folding = false;  // exercise the kernels
    auto session = DirectSession::Create(graph, options);
    TF_CHECK_OK(session.status());
    std::vector<Tensor> got;
    TF_CHECK_OK(session.value()->Run(fetches, &got));
    for (size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j].num_elements(), static_cast<int64_t>(want[j].size()))
          << labels[j];
      EXPECT_EQ(std::memcmp(got[j].template data<T>(), want[j].data(),
                            want[j].size() * sizeof(T)),
                0)
          << DataTypeName(DataTypeToEnum<T>::value) << " " << labels[j];
    }
  }
}

TEST(WindowTest, KernelsMatchTheOldLoopsBitForBit) {
  const std::vector<WindowCase> cases = WindowSweep(1500);
  ExpectWindowKernelsMatchOldLoops<float>(cases);
  ExpectWindowKernelsMatchOldLoops<double>(cases);
}

Tensor Floats(std::vector<int64_t> dims) {
  return Tensor(DataType::kFloat, TensorShape(dims));
}

Tensor Sizes(std::vector<int32_t> sizes) { return Tensor::Vec<int32_t>(sizes); }

// Attrs the shape functions reject while the session compiles, before any
// kernel runs: before, a short list was read past its end, a zero stride
// divided by zero, and the rest failed only in the kernel or not at all.
TEST(KernelsTest, WindowAttrsRejectedAtCompile) {
  struct Attrs {
    std::vector<int64_t> ksize, strides;
    std::string padding;
  };
  // A convolution's window is its filter, [ksize[1], ksize[2], 1, 1].
  const std::vector<Attrs> bad = {
      {{1, 2, 2, 1}, {1, 1}, "SAME"},          // short strides
      {{1, 2, 2, 1}, {1, 0, 1, 1}, "SAME"},    // zero stride
      {{1, 2, 2, 1}, {2, 1, 1, 1}, "SAME"},    // batch stride
      {{1, 2, 2, 1}, {1, 1, 1, 1}, "FULL"},    // unknown padding
      {{1, 0, 2, 1}, {1, 1, 1, 1}, "SAME"},    // zero window
      {{1, 5, 2, 1}, {1, 1, 1, 1}, "VALID"},   // window taller than input
      {{1, 2, 2}, {1, 1, 1, 1}, "SAME"}};      // short ksize (pools only)
  for (const Attrs& a : bad) {
    for (const std::string op : {"Conv2D", "MaxPool", "AvgPool"}) {
      if (op == "Conv2D" && a.ksize.size() != 4) continue;
      Status s = EvalStatus([&](GraphBuilder* b) {
        NodeBuilder nb = b->Op(op);
        nb.Input(Const(b, Floats({1, 4, 4, 1})));
        if (op == "Conv2D") {
          nb.Input(Const(b, Floats({a.ksize[1], a.ksize[2], 1, 1})));
        } else {
          nb.Attr("ksize", a.ksize);
        }
        return nb.Attr("T", DataType::kFloat)
            .Attr("strides", a.strides)
            .Attr("padding", a.padding)
            .Finalize();
      });
      EXPECT_EQ(s.code(), Code::kInvalidArgument) << op << ": " << s.ToString();
      EXPECT_NE(s.ToString().find("shape inference"), std::string::npos)
          << op << ": " << s.ToString();
    }
  }
}

// Runs one window gradient op on constant inputs.
Status RunWindowOp(const std::string& op, const std::vector<Tensor>& inputs,
                   std::vector<int64_t> ksize,
                   std::vector<int64_t> strides = {1, 1, 1, 1},
                   const std::string& padding = "VALID") {
  return EvalStatus([&](GraphBuilder* b) {
    NodeBuilder nb = b->Op(op);
    for (const Tensor& t : inputs) nb.Input(Const(b, Tensor(t)));
    if (!ksize.empty()) nb.Attr("ksize", ksize);
    return nb.Attr("T", DataType::kFloat)
        .Attr("strides", strides)
        .Attr("padding", padding)
        .Finalize();
  });
}

// Before, each of these read past a buffer and returned OK.
TEST(KernelsTest, ConvGradientsRejectMisshapedOutBackprop) {
  // A 2x2 VALID window over 4x4 gives a 3x3 output; out_backprop is 2x2.
  Status s = RunWindowOp("Conv2DBackpropInput",
                         {Sizes({1, 4, 4, 1}), Floats({2, 2, 1, 1}),
                          Floats({1, 2, 2, 1})},
                         {});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  s = RunWindowOp("Conv2DBackpropFilter",
                  {Floats({1, 4, 4, 1}), Sizes({2, 2, 1, 1}),
                   Floats({1, 2, 2, 1})},
                  {});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

TEST(KernelsTest, MaxPoolGradRejectsMisshapedOutputAndGrad) {
  // A 2x2 window at stride 2 over 4x4 gives 2x2.
  const std::vector<int64_t> window = {1, 2, 2, 1};
  const std::vector<int64_t> strides = {1, 2, 2, 1};
  Status s = RunWindowOp(
      "MaxPoolGrad", {Floats({1, 4, 4, 1}), Floats({1, 1, 1, 1}),
                      Floats({1, 2, 2, 1})},
      window, strides);
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  s = RunWindowOp("MaxPoolGrad", {Floats({1, 4, 4, 1}), Floats({1, 2, 2, 1}),
                                  Floats({1, 1, 1, 1})},
                  window, strides);
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

TEST(KernelsTest, AvgPoolGradRejectsShortShapeAndMisshapedGrad) {
  const std::vector<int64_t> window = {1, 2, 2, 1};
  const std::vector<int64_t> strides = {1, 2, 2, 1};
  Status s = RunWindowOp("AvgPoolGrad",
                         {Sizes({1, 4, 4}), Floats({1, 2, 2, 1})}, window,
                         strides);
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  s = RunWindowOp("AvgPoolGrad", {Sizes({1, 4, 4, 1}), Floats({1, 1, 1, 1})},
                  window, strides);
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

// Before, a negative entry sized a tensor with a negative element count
// and the allocation threw inside the kernel.
TEST(KernelsTest, WindowGradientsRejectNegativeSizes) {
  Status s = RunWindowOp("Conv2DBackpropInput",
                         {Sizes({-1, 4, 4, 1}), Floats({2, 2, 1, 1}),
                          Floats({1, 3, 3, 1})},
                         {});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  s = RunWindowOp("Conv2DBackpropFilter",
                  {Floats({1, 4, 4, 1}), Sizes({2, 2, 1, -1}),
                   Floats({1, 3, 3, 1})},
                  {});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  s = RunWindowOp("AvgPoolGrad", {Sizes({-1, 4, 4, 1}), Floats({1, 2, 2, 1})},
                  {1, 2, 2, 1}, {1, 2, 2, 1});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

// The gradient ops have no shape function, so their kernels check the
// attrs. Before, a zero stride divided by zero and a zero window returned
// OK.
TEST(KernelsTest, WindowGradientsRejectZeroStrideAndWindow) {
  Status s = RunWindowOp("Conv2DBackpropFilter",
                         {Floats({1, 4, 4, 1}), Sizes({2, 2, 1, 1}),
                          Floats({1, 3, 3, 1})},
                         {}, {1, 0, 1, 1});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  s = RunWindowOp("MaxPoolGrad",
                  {Floats({1, 4, 4, 1}), Floats({1, 4, 4, 1}),
                   Floats({1, 4, 4, 1})},
                  {1, 1, 1, 1}, {1, 1, 0, 1});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  s = RunWindowOp("MaxPoolGrad",
                  {Floats({1, 4, 4, 1}), Floats({1, 5, 4, 1}),
                   Floats({1, 5, 4, 1})},
                  {1, 0, 1, 1});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

TEST(KernelsTest, MaxPoolRejectsZeroWindow) {
  // Before: lowest() in every output entry, status OK.
  Status s = RunWindowOp("MaxPool", {Floats({1, 4, 4, 1})}, {1, 0, 2, 1});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

// VALID never pads, so a window larger than the input has no output.
// Before, (in - k) / stride + 1 rounded toward zero to 1 here and the
// kernel summed the part of the window that fell inside the input.
TEST(KernelsTest, ValidWindowLargerThanInputRejected) {
  Status s = RunWindowOp("Conv2DBackpropFilter",
                         {Floats({1, 2, 2, 1}), Sizes({3, 3, 1, 1}),
                          Floats({1, 1, 1, 1})},
                         {}, {1, 2, 2, 1});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  s = RunWindowOp("AvgPool", {Floats({1, 2, 2, 1})}, {1, 3, 3, 1},
                  {1, 2, 2, 1});
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

TEST(KernelsTest, SoftmaxRowsSumToOne) {
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Softmax(b, Const(b, Tensor::FromVector<float>(
                                        {1, 2, 3, 1000, 1001, 1002},
                                        TensorShape({2, 3}))));
  });
  for (int row = 0; row < 2; ++row) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += r.matrix<float>(row, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  // Numerical stability: large logits must not produce NaN.
  EXPECT_FALSE(std::isnan(r.matrix<float>(1, 0)));
  // Softmax is shift-invariant, so the two rows are identical.
  EXPECT_NEAR(r.matrix<float>(0, 0), r.matrix<float>(1, 0), 1e-5);
}

TEST(KernelsTest, SparseXentLossMatchesManual) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output logits = Const(b, Tensor::FromVector<float>({0, 0, 0},
                                                       TensorShape({1, 3})));
    Node* xent = ops::SparseSoftmaxCrossEntropyWithLogits(
        b, logits, Const(b, Tensor::Vec<int64_t>({1})));
    return Output(xent, 0);
  });
  EXPECT_NEAR(r.flat<float>(0), std::log(3.0f), 1e-5);
}

TEST(KernelsTest, RandomSeedDeterminism) {
  auto draw = [](int64_t seed) {
    return Eval([seed](GraphBuilder* b) {
      return ops::RandomUniform(b, {8}, DataType::kFloat, seed);
    });
  };
  Tensor a = draw(5);
  Tensor b2 = draw(5);
  Tensor c = draw(6);
  EXPECT_EQ(Vec(a), Vec(b2));   // same seed, fresh kernels -> same stream
  EXPECT_NE(Vec(a), Vec(c));    // different seed -> different stream
}

TEST(KernelsTest, FillAndRange) {
  Tensor f = Eval([](GraphBuilder* b) {
    return ops::Fill(b, ops::ConstVecI32(b, {2, 2}), Const(b, 3.5f));
  });
  EXPECT_EQ(Vec(f), (std::vector<float>{3.5f, 3.5f, 3.5f, 3.5f}));
  Tensor r = Eval([](GraphBuilder* b) {
    return ops::Range(b, Const(b, int32_t{2}), Const(b, int32_t{9}),
                      Const(b, int32_t{3}));
  });
  EXPECT_EQ(r.num_elements(), 3);
  EXPECT_EQ(r.flat<int32_t>(2), 8);
}

TEST(KernelsTest, ShapeRankSize) {
  Graph g;
  GraphBuilder b(&g);
  Output m = Const(&b, Tensor(DataType::kFloat, TensorShape({2, 3, 4})));
  Output shape = ops::Shape(&b, m);
  Output rank = ops::Rank(&b, m);
  Output size = ops::Size(&b, m);
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  TF_CHECK_OK(
      session.value()->Run({shape.name(), rank.name(), size.name()}, &out));
  EXPECT_EQ(out[0].flat<int32_t>(1), 3);
  EXPECT_EQ(*out[1].data<int32_t>(), 3);
  EXPECT_EQ(*out[2].data<int32_t>(), 24);
}

TEST(KernelsTest, ReshapeWithInferredDim) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output v = Const(b, Tensor::Vec<float>({1, 2, 3, 4, 5, 6}));
    return ops::Reshape(b, v, {2, -1});
  });
  EXPECT_EQ(r.shape().DebugString(), "[2,3]");
}

TEST(KernelsTest, ScatterUpdateReplacesRows) {
  Graph g;
  GraphBuilder b(&g);
  Output v = ops::Variable(&b, DataType::kFloat, TensorShape({3, 2}), "v");
  Output init = ops::Assign(
      &b, v, Const(&b, Tensor::FromVector<float>({0, 0, 0, 0, 0, 0},
                                                 TensorShape({3, 2}))));
  Output upd = b.Op("ScatterUpdate")
                   .Input(v)
                   .Input(Const(&b, Tensor::Vec<int32_t>({2})))
                   .Input(Const(&b, Tensor::FromVector<float>(
                                        {7, 8}, TensorShape({1, 2}))))
                   .Attr("T", DataType::kFloat)
                   .Attr("Tindices", DataType::kInt32)
                   .Finalize();
  Output read = ops::Identity(&b, v);
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  TF_CHECK_OK(session.value()->Run({}, {}, {upd.node->name()}, nullptr));
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({read.name()}, &out));
  EXPECT_EQ(out[0].matrix<float>(2, 0), 7.0f);
  EXPECT_EQ(out[0].matrix<float>(2, 1), 8.0f);
  EXPECT_EQ(out[0].matrix<float>(0, 0), 0.0f);
}

TEST(KernelsTest, CountUpToLimit) {
  Graph g;
  GraphBuilder b(&g);
  Output v = ops::Variable(&b, DataType::kInt64, TensorShape(), "counter");
  Output init = ops::Assign(&b, v, Const(&b, Tensor::Scalar(int64_t{0})));
  Output next = b.Op("CountUpTo")
                    .Input(v)
                    .Attr("T", DataType::kInt64)
                    .Attr("limit", int64_t{3})
                    .Finalize();
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  for (int i = 0; i < 3; ++i) {
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({next.name()}, &out));
    EXPECT_EQ(*out[0].data<int64_t>(), i);
  }
  std::vector<Tensor> out;
  Status s = session.value()->Run({next.name()}, &out);
  EXPECT_EQ(s.code(), Code::kOutOfRange);
}

TEST(KernelsTest, SumToShapeOfInverseBroadcast) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output grad = Const(b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                                     TensorShape({2, 3})));
    Output target = Const(b, Tensor::Vec<float>({0, 0, 0}));
    return ops::SumToShapeOf(b, grad, target);
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{5, 7, 9}));
  Tensor scalar = Eval([](GraphBuilder* b) {
    Output grad = Const(b, Tensor::Vec<float>({1, 2, 3}));
    return ops::SumToShapeOf(b, grad, Const(b, 0.0f));
  });
  EXPECT_FLOAT_EQ(*scalar.data<float>(), 6.0f);
}

TEST(KernelsTest, AddNAccumulates) {
  Tensor r = Eval([](GraphBuilder* b) {
    Output x = Const(b, Tensor::Vec<float>({1, 1}));
    return ops::AddN(b, {x, x, x, x});
  });
  EXPECT_EQ(Vec(r), (std::vector<float>{4, 4}));
}

TEST(KernelsTest, BiasAddRankThree) {
  Tensor r = Eval([](GraphBuilder* b) {
    Tensor value(DataType::kFloat, TensorShape({2, 2, 2}));
    return ops::BiasAdd(b, Const(b, Tensor(value)),
                        Const(b, Tensor::Vec<float>({10, 20})));
  });
  EXPECT_EQ(r.flat<float>(0), 10.0f);
  EXPECT_EQ(r.flat<float>(1), 20.0f);
  EXPECT_EQ(r.flat<float>(7), 20.0f);
}

TEST(KernelsTest, DynamicPartitionEmptyPartitions) {
  Graph g;
  GraphBuilder b(&g);
  Output data = Const(&b, Tensor::Vec<float>({1, 2, 3}));
  Output partitions = Const(&b, Tensor::Vec<int32_t>({2, 2, 2}));
  std::vector<Output> parts = ops::DynamicPartition(&b, data, partitions, 3);
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run(
      {parts[0].name(), parts[1].name(), parts[2].name()}, &out));
  EXPECT_EQ(out[0].num_elements(), 0);
  EXPECT_EQ(out[1].num_elements(), 0);
  EXPECT_EQ(out[2].num_elements(), 3);
}

// A dense update that reads an input of the wrong shape must fail before it
// writes: before these checks a smaller gradient or accumulator was read or
// written past its buffer. Each case feeds a 2-element operand to an update
// of a 4-element var and checks that var still holds its initial value.

TEST(KernelsTest, SigmoidGradRejectsMismatchedDy) {
  Status s = EvalStatus([](GraphBuilder* b) {
    return b->Op("SigmoidGrad")
        .Input(Const(b, Tensor::Vec<float>({0.5f, 0.5f, 0.5f, 0.5f})))
        .Input(Const(b, Tensor::Vec<float>({1, 1})))
        .Attr("T", DataType::kFloat)
        .Finalize();
  });
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

TEST(KernelsTest, TanhGradRejectsMismatchedDy) {
  Status s = EvalStatus([](GraphBuilder* b) {
    return b->Op("TanhGrad")
        .Input(Const(b, Tensor::Vec<float>({0.5f, 0.5f, 0.5f, 0.5f})))
        .Input(Const(b, Tensor::Vec<float>({1, 1})))
        .Attr("T", DataType::kFloat)
        .Finalize();
  });
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
}

// A variable of the given name and size, initialised to ones.
using Slot = std::function<Output(const std::string&, int64_t)>;

// Runs an update op on a fresh 4-element var of ones and returns the
// update's status. `inputs(b, slot)` returns the op's inputs after var; its
// other ref inputs come from slot. *var_after is var after the update.
Status RunMismatchedApply(
    const std::string& op,
    const std::function<std::vector<Output>(GraphBuilder*, const Slot&)>&
        inputs,
    Tensor* var_after) {
  Graph g;
  GraphBuilder b(&g);
  std::vector<std::string> inits;
  auto slot = [&](const std::string& name, int64_t size) {
    Output v = ops::Variable(&b, DataType::kFloat, TensorShape({size}), name);
    Tensor ones(DataType::kFloat, TensorShape({size}));
    for (int64_t i = 0; i < size; ++i) ones.flat<float>(i) = 1;
    inits.push_back(ops::Assign(&b, v, Const(&b, ones)).node->name());
    return v;
  };
  Output var = slot("var", 4);
  NodeBuilder nb = b.Op(op);
  nb.Input(var);
  for (const Output& in : inputs(&b, slot)) nb.Input(in);
  Output update = nb.Attr("T", DataType::kFloat).Finalize();
  Output read = ops::Identity(&b, var);
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, inits, nullptr));
  Status s = session.value()->Run({}, {}, {update.node->name()}, nullptr);
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({read.name()}, &out));
  *var_after = out[0];
  return s;
}

void ExpectRejectedAndVarUnchanged(const Status& s, const Tensor& var) {
  EXPECT_EQ(s.code(), Code::kInvalidArgument) << s.ToString();
  EXPECT_EQ(Vec(var), (std::vector<float>{1, 1, 1, 1}));
}

TEST(KernelsTest, ApplyMomentumRejectsMismatchedShapes) {
  for (int64_t accum_size : {4, 2}) {
    const int64_t grad_size = accum_size == 4 ? 2 : 4;
    Tensor var;
    Status s = RunMismatchedApply(
        "ApplyMomentum",
        [&](GraphBuilder* b, const Slot& slot) {
          return std::vector<Output>{
              slot("accum", accum_size), Const(b, 0.1f),
              Const(b, Tensor(DataType::kFloat, TensorShape({grad_size}))),
              Const(b, 0.9f)};
        },
        &var);
    ExpectRejectedAndVarUnchanged(s, var);
  }
}

TEST(KernelsTest, ApplyAdagradRejectsMismatchedShapes) {
  for (int64_t accum_size : {4, 2}) {
    const int64_t grad_size = accum_size == 4 ? 2 : 4;
    Tensor var;
    Status s = RunMismatchedApply(
        "ApplyAdagrad",
        [&](GraphBuilder* b, const Slot& slot) {
          return std::vector<Output>{
              slot("accum", accum_size), Const(b, 0.1f),
              Const(b, Tensor(DataType::kFloat, TensorShape({grad_size})))};
        },
        &var);
    ExpectRejectedAndVarUnchanged(s, var);
  }
}

TEST(KernelsTest, ApplyAdadeltaRejectsMismatchedShapes) {
  for (int wrong = 0; wrong < 3; ++wrong) {
    Tensor var;
    Status s = RunMismatchedApply(
        "ApplyAdadelta",
        [&](GraphBuilder* b, const Slot& slot) {
          return std::vector<Output>{
              slot("accum", wrong == 0 ? 2 : 4),
              slot("accum_update", wrong == 1 ? 2 : 4), Const(b, 0.1f),
              Const(b, 0.95f), Const(b, 1e-6f),
              Const(b, Tensor(DataType::kFloat,
                              TensorShape({wrong == 2 ? 2 : 4})))};
        },
        &var);
    ExpectRejectedAndVarUnchanged(s, var);
  }
}

TEST(KernelsTest, ApplyRMSPropRejectsMismatchedShapes) {
  for (int wrong = 0; wrong < 3; ++wrong) {
    Tensor var;
    Status s = RunMismatchedApply(
        "ApplyRMSProp",
        [&](GraphBuilder* b, const Slot& slot) {
          return std::vector<Output>{
              slot("ms", wrong == 0 ? 2 : 4), slot("mom", wrong == 1 ? 2 : 4),
              Const(b, 0.1f), Const(b, 0.9f), Const(b, 0.5f),
              Const(b, 1e-6f),
              Const(b, Tensor(DataType::kFloat,
                              TensorShape({wrong == 2 ? 2 : 4})))};
        },
        &var);
    ExpectRejectedAndVarUnchanged(s, var);
  }
}

TEST(KernelsTest, ApplyAdamRejectsMismatchedShapes) {
  for (int wrong = 0; wrong < 3; ++wrong) {
    Tensor var;
    Status s = RunMismatchedApply(
        "ApplyAdam",
        [&](GraphBuilder* b, const Slot& slot) {
          return std::vector<Output>{
              slot("m", wrong == 0 ? 2 : 4), slot("v", wrong == 1 ? 2 : 4),
              Const(b, 0.9f), Const(b, 0.999f), Const(b, 0.1f),
              Const(b, 0.9f), Const(b, 0.999f), Const(b, 1e-8f),
              Const(b, Tensor(DataType::kFloat,
                              TensorShape({wrong == 2 ? 2 : 4})))};
        },
        &var);
    ExpectRejectedAndVarUnchanged(s, var);
  }
}

// The sparse updates read one row of grad per index and, for Adagrad,
// write accum's rows: a grad with too few rows or a smaller accum is
// rejected before var is written.
TEST(KernelsTest, SparseApplyRejectsMismatchedShapes) {
  const Tensor indices = Tensor::Vec<int32_t>({0, 2});
  Tensor var;
  Status s = RunMismatchedApply(
      "SparseApplyGradientDescent",
      [&](GraphBuilder* b, const Slot&) {
        return std::vector<Output>{Const(b, 0.1f),
                                   Const(b, Tensor::Vec<float>({1})),
                                   Const(b, indices)};
      },
      &var);
  ExpectRejectedAndVarUnchanged(s, var);
  for (int64_t accum_size : {4, 2}) {
    const int64_t grad_size = accum_size == 4 ? 1 : 2;
    s = RunMismatchedApply(
        "SparseApplyAdagrad",
        [&](GraphBuilder* b, const Slot& slot) {
          return std::vector<Output>{
              slot("accum", accum_size), Const(b, 0.1f),
              Const(b, Tensor(DataType::kFloat, TensorShape({grad_size}))),
              Const(b, indices)};
        },
        &var);
    ExpectRejectedAndVarUnchanged(s, var);
  }
}

// Lane differential: the plain element-wise kernels run whole 16-byte
// vectors and then a scalar tail (kernels/lanes.h). Each case compares a
// kernel's output bit for bit with the scalar functor, or the loop the
// kernel replaced, applied per element. Lengths run from 0 to
// 2 * lanes + 3, which hits every split between vectors and tail, plus one
// long length; values mix signs with NaN, +-0, +-inf and denormals.
//
// One thing is not compared bit for bit: when both operands of an add or a
// multiply are NaN, x86 returns the first source operand of the
// instruction, and which operand that is, is the compiler's register
// choice in scalar and vector code alike (DESIGN.md §15). There the output
// must only be a NaN.

template <typename T>
std::vector<int64_t> LaneLengths() {
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 2 * kLanes<T> + 3; ++n) lengths.push_back(n);
  lengths.push_back(16387);
  return lengths;
}

// Integers stay small enough that no reference operation overflows a
// signed type (which would be undefined behaviour); uint8 wraps, as
// defined.
template <typename T>
std::vector<T> LaneInputs(int64_t n, uint64_t seed) {
  PhiloxRandom rng(seed);
  std::vector<T> v(n);
  for (T& x : v) {
    if constexpr (std::is_floating_point_v<T>) {
      using L = std::numeric_limits<T>;
      const T special[] = {L::quiet_NaN(),   -L::quiet_NaN(), T{0},
                           -T{0},            L::infinity(),   -L::infinity(),
                           L::denorm_min(),  -L::denorm_min(), L::min(),
                           -L::min(),        T{1},            T{-1}};
      x = rng.UniformInt(4) == 0
              ? special[rng.UniformInt(std::size(special))]
              : static_cast<T>(rng.UniformDouble() * 4 - 2);
    } else if constexpr (std::is_signed_v<T>) {
      x = static_cast<T>(static_cast<int64_t>(rng.UniformInt(2001)) - 1000);
    } else {
      x = static_cast<T>(rng.UniformInt(256));
    }
  }
  return v;
}

// Bit-equal, or both NaN.
template <typename T>
bool SameLaneBits(const T* got, const std::vector<T>& want) {
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) == 0) continue;
    if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    }
    return false;
  }
  return true;
}

template <typename T>
Output LaneConst(GraphBuilder* b, const std::vector<T>& values) {
  return Const(b, Tensor::Vec<T>(values));
}

template <typename T>
std::vector<T> Map(int64_t n, const std::function<T(int64_t)>& f) {
  std::vector<T> v(n);
  for (int64_t i = 0; i < n; ++i) v[i] = f(i);
  return v;
}

// One graph of kernels and the bits each must produce. Run() runs the
// initialising assigns, then the updates, then fetches every output.
template <typename T>
class LaneCheck {
 public:
  LaneCheck() : b_(&g_) {}
  GraphBuilder* b() { return &b_; }
  DataType dtype() const { return DataTypeToEnum<T>::value; }

  Output Unary(const std::string& op, Output x) {
    return b_.Op(op).Input(x).Attr("T", dtype()).Finalize();
  }
  Output Binary(const std::string& op, Output x, Output y) {
    return b_.Op(op).Input(x).Input(y).Attr("T", dtype()).Finalize();
  }
  // A variable of `values.size()` elements, initialised to `values`.
  Output Var(const std::vector<T>& values) {
    Output v = ops::Variable(&b_, dtype(),
                             TensorShape({static_cast<int64_t>(values.size())}),
                             "v" + std::to_string(vars_++));
    inits_.push_back(ops::Assign(&b_, v, LaneConst(&b_, values)).node->name());
    return v;
  }
  void Update(Output op) { updates_.push_back(op.node->name()); }
  void Expect(const std::string& label, Output out, std::vector<T> bits) {
    labels_.push_back(label);
    fetches_.push_back(out.name());
    want_.push_back(std::move(bits));
  }

  void Run() {
    TF_CHECK_OK(b_.status());
    SessionOptions options;
    options.optimizer.do_constant_folding = false;  // exercise the kernels
    auto session = DirectSession::Create(g_, options);
    TF_CHECK_OK(session.status());
    if (!inits_.empty()) {
      TF_CHECK_OK(session.value()->Run({}, {}, inits_, nullptr));
      TF_CHECK_OK(session.value()->Run({}, {}, updates_, nullptr));
    }
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run(fetches_, &out));
    for (size_t i = 0; i < out.size(); ++i) {
      const std::string what = labels_[i] + " " +
                               DataTypeName(dtype()) + " n=" +
                               std::to_string(want_[i].size());
      ASSERT_EQ(out[i].num_elements(),
                static_cast<int64_t>(want_[i].size()))
          << what;
      EXPECT_TRUE(SameLaneBits(out[i].data<T>(), want_[i])) << what;
    }
  }

 private:
  Graph g_;
  GraphBuilder b_;
  int vars_ = 0;
  std::vector<std::string> inits_;
  std::vector<std::string> updates_;
  std::vector<std::string> labels_;
  std::vector<std::string> fetches_;
  std::vector<std::vector<T>> want_;
};

template <typename T>
using UnaryRef = T (*)(T);
template <typename T>
using BinaryRef = T (*)(T, T);

// The libm functors run only on floating types here: on integers they
// convert out-of-range doubles back (undefined behaviour), and they take
// the same scalar path for every type.
template <typename T>
std::vector<std::pair<std::string, UnaryRef<T>>> UnaryFunctors() {
  std::vector<std::pair<std::string, UnaryRef<T>>> fs = {
      {"Neg", &NegFunc::Run<T>},   {"Square", &SquareFunc::Run<T>},
      {"Abs", &AbsFunc::Run<T>},   {"Sign", &SignFunc::Run<T>},
      {"Relu", &ReluFunc::Run<T>}};
  if constexpr (std::is_floating_point_v<T>) {
    fs.insert(fs.end(), {{"Exp", &ExpFunc::Run<T>},
                         {"Log", &LogFunc::Run<T>},
                         {"Sqrt", &SqrtFunc::Run<T>},
                         {"Rsqrt", &RsqrtFunc::Run<T>},
                         {"Tanh", &TanhFunc::Run<T>},
                         {"Sigmoid", &SigmoidFunc::Run<T>},
                         {"Floor", &FloorFunc::Run<T>},
                         {"Ceil", &CeilFunc::Run<T>},
                         {"Reciprocal", &ReciprocalFunc::Run<T>}});
  }
  return fs;
}

template <typename T>
std::vector<std::pair<std::string, BinaryRef<T>>> BinaryFunctors() {
  std::vector<std::pair<std::string, BinaryRef<T>>> fs = {
      {"Add", &AddFunc::Run<T>},
      {"Sub", &SubFunc::Run<T>},
      {"Mul", &MulFunc::Run<T>},
      {"Div", &DivFunc::Run<T>},
      {"FloorDiv", &FloorDivFunc::Run<T>},
      {"Mod", &ModFunc::Run<T>},
      {"Maximum", &MaximumFunc::Run<T>},
      {"Minimum", &MinimumFunc::Run<T>},
      {"SquaredDifference", &SquaredDifferenceFunc::Run<T>}};
  if constexpr (std::is_floating_point_v<T>) {
    fs.push_back({"Pow", &PowFunc::Run<T>});
  }
  return fs;
}

// Unary and binary kernels (same shapes and each operand as a scalar),
// AddN, and for floating types the activation gradients, the SGD and
// momentum updates; AssignAdd and AssignSub for every type.
template <typename T>
void ExpectLanesMatchScalarLoops() {
  for (int64_t n : LaneLengths<T>()) {
    LaneCheck<T> check;
    GraphBuilder* b = check.b();
    const std::vector<T> x = LaneInputs<T>(n, 3 * n + 1);
    std::vector<T> y = LaneInputs<T>(n, 3 * n + 2);
    T s = LaneInputs<T>(1, 3 * n + 3)[0];
    if constexpr (std::is_integral_v<T>) {  // divisors
      for (T& v : y) v = v == 0 ? T{1} : v;
      s = s == 0 ? T{1} : s;
    }
    const Output cx = LaneConst(b, x);
    const Output cy = LaneConst(b, y);
    const Output cs = Const(b, Tensor::FromVector<T>({s}, TensorShape()));

    for (const auto& [op, f] : UnaryFunctors<T>()) {
      check.Expect(op, check.Unary(op, cx),
                   Map<T>(n, [&](int64_t i) { return f(x[i]); }));
    }
    for (const auto& [op, f] : BinaryFunctors<T>()) {
      check.Expect(op, check.Binary(op, cx, cy),
                   Map<T>(n, [&](int64_t i) { return f(x[i], y[i]); }));
      check.Expect(op + "(scalar, y)", check.Binary(op, cs, cy),
                   Map<T>(n, [&](int64_t i) { return f(s, y[i]); }));
      check.Expect(op + "(x, scalar)", check.Binary(op, cx, cs),
                   Map<T>(n, [&](int64_t i) { return f(x[i], s); }));
    }
    check.Expect("AddN", ops::AddN(b, {cx, cy, cx}),
                 Map<T>(n, [&](int64_t i) {
                   T acc{0};
                   for (T v : {x[i], y[i], x[i]}) acc += v;
                   return acc;
                 }));

    Output add_to = check.Var(y);
    check.Update(ops::AssignAdd(b, add_to, cx));
    check.Expect("AssignAdd", ops::Identity(b, add_to),
                 Map<T>(n, [&](int64_t i) { return T(y[i] + x[i]); }));
    Output sub_from = check.Var(y);
    check.Update(ops::AssignSub(b, sub_from, cx));
    check.Expect("AssignSub", ops::Identity(b, sub_from),
                 Map<T>(n, [&](int64_t i) { return T(y[i] - x[i]); }));

    if constexpr (std::is_floating_point_v<T>) {
      check.Expect("ReluGrad", check.Binary("ReluGrad", cx, cy),
                   Map<T>(n, [&](int64_t i) {
                     return y[i] > T{0} ? x[i] : T{0};
                   }));
      check.Expect("SigmoidGrad", check.Binary("SigmoidGrad", cx, cy),
                   Map<T>(n, [&](int64_t i) {
                     return y[i] * x[i] * (T{1} - x[i]);
                   }));
      check.Expect("TanhGrad", check.Binary("TanhGrad", cx, cy),
                   Map<T>(n, [&](int64_t i) {
                     return y[i] * (T{1} - x[i] * x[i]);
                   }));

      const T alpha = static_cast<T>(0.37);
      const T momentum = static_cast<T>(0.9);
      Output sgd_var = check.Var(x);
      check.Update(b->Op("ApplyGradientDescent")
                       .Input(sgd_var)
                       .Input(Const(b, Tensor::FromVector<T>({alpha}, {})))
                       .Input(cy)
                       .Attr("T", check.dtype())
                       .Finalize());
      check.Expect("ApplyGradientDescent", ops::Identity(b, sgd_var),
                   Map<T>(n, [&](int64_t i) { return x[i] - alpha * y[i]; }));

      Output mom_var = check.Var(x);
      Output accum = check.Var(y);
      check.Update(b->Op("ApplyMomentum")
                       .Input(mom_var)
                       .Input(accum)
                       .Input(Const(b, Tensor::FromVector<T>({alpha}, {})))
                       .Input(cx)
                       .Input(Const(b, Tensor::FromVector<T>({momentum}, {})))
                       .Attr("T", check.dtype())
                       .Finalize());
      const std::vector<T> accum_after =
          Map<T>(n, [&](int64_t i) { return momentum * y[i] + x[i]; });
      check.Expect("ApplyMomentum accum", ops::Identity(b, accum),
                   accum_after);
      check.Expect("ApplyMomentum var", ops::Identity(b, mom_var),
                   Map<T>(n, [&](int64_t i) {
                     return x[i] - alpha * accum_after[i];
                   }));
    }
    check.Run();
  }
}

TEST(LaneTest, ElementwiseKernelsMatchScalarLoops) {
  ExpectLanesMatchScalarLoops<float>();
  ExpectLanesMatchScalarLoops<double>();
  ExpectLanesMatchScalarLoops<int32_t>();
  ExpectLanesMatchScalarLoops<int64_t>();
  ExpectLanesMatchScalarLoops<uint8_t>();
}

// BiasAdd and BiasAddGrad run Elementwise once per row: every column count
// from 1 to 2 * lanes + 3 (most not a multiple of the lane count), zero and
// several rows, and the [64, 256] layer of perfbench's train_mlp_local.
// BiasAddGrad sums each column in ascending row order from zero.
template <typename T>
void ExpectBiasKernelsMatchScalarLoops() {
  std::vector<std::pair<int64_t, int64_t>> shapes = {{0, 3}, {64, 256}};
  for (int64_t c = 1; c <= 2 * kLanes<T> + 3; ++c) shapes.push_back({5, c});
  LaneCheck<T> check;
  GraphBuilder* b = check.b();
  uint64_t seed = 100;
  for (const auto& [rows, c] : shapes) {
    const std::vector<T> value = LaneInputs<T>(rows * c, seed++);
    const std::vector<T> bias = LaneInputs<T>(c, seed++);
    const Output cvalue =
        Const(b, Tensor::FromVector<T>(value, TensorShape({rows, c})));
    const std::string shape =
        "[" + std::to_string(rows) + "," + std::to_string(c) + "]";
    check.Expect("BiasAdd " + shape,
                 ops::BiasAdd(b, cvalue, LaneConst(b, bias)),
                 Map<T>(rows * c, [&](int64_t i) {
                   return T(value[i] + bias[i % c]);
                 }));
    check.Expect("BiasAddGrad " + shape,
                 b->Op("BiasAddGrad")
                     .Input(cvalue)
                     .Attr("T", check.dtype())
                     .Finalize(),
                 Map<T>(c, [&](int64_t j) {
                   T acc{0};
                   for (int64_t r = 0; r < rows; ++r) acc += value[r * c + j];
                   return acc;
                 }));
  }
  check.Run();
}

TEST(LaneTest, BiasAddAndBiasAddGradMatchScalarLoops) {
  ExpectBiasKernelsMatchScalarLoops<float>();
  ExpectBiasKernelsMatchScalarLoops<double>();
  ExpectBiasKernelsMatchScalarLoops<int32_t>();
  ExpectBiasKernelsMatchScalarLoops<int64_t>();
  ExpectBiasKernelsMatchScalarLoops<uint8_t>();
}

// The functors above are also the references, so Relu's own meaning is
// pinned here: NaN and -0 give +0, on the lanes and in the tail.
template <typename T>
void ExpectReluOfNaNAndMinusZeroIsPlusZero() {
  using L = std::numeric_limits<T>;
  std::vector<T> x;
  for (int i = 0; i < 2 * kLanes<T> + 1; ++i) {
    x.push_back(i % 3 == 0 ? L::quiet_NaN() : i % 3 == 1 ? -T{0}
                                                          : -L::quiet_NaN());
  }
  LaneCheck<T> check;
  check.Expect("Relu", check.Unary("Relu", LaneConst(check.b(), x)),
               std::vector<T>(x.size(), T{0}));
  check.Run();
}

TEST(LaneTest, ReluOfNaNAndMinusZeroIsPlusZero) {
  ExpectReluOfNaNAndMinusZeroIsPlusZero<float>();
  ExpectReluOfNaNAndMinusZeroIsPlusZero<double>();
}

}  // namespace
}  // namespace tfrepro
