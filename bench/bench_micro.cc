// Micro benchmarks of the real runtime: kernels, rendezvous, queues,
// variable updates, and the DESIGN.md ablations (sparse gather vs full
// fetch; fused vs composed optimizer update).

#include <benchmark/benchmark.h>

#include "bench_json_gbench.h"
#include "core/random.h"
#include "graph/ops.h"
#include "kernels/gemm.h"
#include "kernels/queue.h"
#include "runtime/rendezvous.h"
#include "runtime/session.h"
#include "train/optimizer.h"

namespace tfrepro {
namespace {

// GFLOP/s of one MatMul op, op(a)[m,k] x op(b)[k,n], in its own session.
// Rows register UseRealTime(): the kernel may run on the device's pool
// threads, whose work the benchmark thread's CPU time does not include.
void MatMulBench(benchmark::State& state, int64_t m, int64_t k, int64_t n,
                 bool ta, bool tb) {
  Graph g;
  GraphBuilder b(&g);
  Tensor a(DataType::kFloat, ta ? TensorShape({k, m}) : TensorShape({m, k}));
  Tensor c(DataType::kFloat, tb ? TensorShape({n, k}) : TensorShape({k, n}));
  PhiloxRandom rng(1);
  for (Tensor* t : {&a, &c}) {
    for (int64_t i = 0; i < t->num_elements(); ++i) {
      t->flat<float>(i) = rng.Uniform();
    }
  }
  Output p = ops::MatMul(&b, ops::Const(&b, a), ops::Const(&b, c), ta, tb);
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;  // keep the matmul live
  auto session = DirectSession::Create(g, options);
  std::vector<Tensor> out;
  for (auto _ : state) {
    TF_CHECK_OK(session.value()->Run({p.name()}, &out));
    benchmark::DoNotOptimize(out);
  }
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2 * m * k * n * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  MatMulBench(state, n, n, n, false, false);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(256)->UseRealTime();

// The three forms of the 256-wide layer of perfbench's train_mlp_local:
// forward [64,256] x [256,256] (nn), dW = [256,64]^T-form x [64,256] (tn)
// and dX = [64,256] x [256,256]^T (nt).
void BM_MatMulForm(benchmark::State& state) {
  const bool ta = state.range(3) != 0;
  const bool tb = state.range(4) != 0;
  MatMulBench(state, state.range(0), state.range(1), state.range(2), ta, tb);
  state.SetLabel(ta ? "tn" : tb ? "nt" : "nn");
}
BENCHMARK(BM_MatMulForm)
    ->Args({64, 256, 256, 0, 0})
    ->Args({256, 64, 256, 1, 0})
    ->Args({64, 256, 256, 0, 1})
    ->UseRealTime();

// One float Gemm at each vector width this CPU runs (16, 32 or 64 bytes,
// the first argument), on one thread and outside any session: the three
// forms of the 256-wide layer above, then serving's 32x16x16 batch and
// 1x16x16 request (DESIGN.md §15).
void BM_GemmWidth(benchmark::State& state) {
  const int bytes = static_cast<int>(state.range(0));
  const int64_t m = state.range(1), k = state.range(2), n = state.range(3);
  const bool ta = state.range(4) != 0;
  const bool tb = state.range(5) != 0;
  PhiloxRandom rng(1);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (float& x : a) x = rng.Uniform();
  for (float& x : b) x = rng.Uniform();
  for (auto _ : state) {
    gemm_internal::GemmAtVectorBytes(bytes, a.data(), b.data(), c.data(), m,
                                     k, n, ta, tb, nullptr);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2 * m * k * n * 1e-9,
      benchmark::Counter::kIsRate);
  state.SetLabel(std::to_string(bytes) + "B " + (ta ? "tn" : tb ? "nt" : "nn"));
}
BENCHMARK(BM_GemmWidth)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int bytes : gemm_internal::kGemmVectorBytes) {
        if (!gemm_internal::HostRunsGemmVectorBytes(bytes)) continue;
        b->Args({bytes, 64, 256, 256, 0, 0});
        b->Args({bytes, 256, 64, 256, 1, 0});
        b->Args({bytes, 64, 256, 256, 0, 1});
        b->Args({bytes, 32, 16, 16, 0, 0});
        b->Args({bytes, 1, 16, 16, 0, 0});
      }
    })
    ->UseRealTime();

// A float tensor of uniform values in [-1, 1).
Tensor RandomSign(const TensorShape& shape, uint64_t seed) {
  Tensor t(DataType::kFloat, shape);
  PhiloxRandom rng(seed);
  const int64_t n = t.num_elements();
  for (int64_t i = 0; i < n; ++i) t.flat<float>(i) = rng.Uniform() * 2 - 1;
  return t;
}

// One element-wise kernel at the [64,256] layer shape of perfbench's
// train_mlp_local, on seeded random-sign inputs, in its own session: each
// row is the kernel plus one step's dispatch (DESIGN.md §15).
void BM_Elementwise(benchmark::State& state) {
  static const char* const kOps[] = {"Relu", "ReluGrad",
                                     "ApplyGradientDescent", "BiasAddGrad"};
  const std::string op = kOps[state.range(0)];
  const TensorShape shape({64, 256});
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Const(&b, RandomSign(shape, 1));
  Output y = ops::Const(&b, RandomSign(shape, 2));
  std::vector<std::string> inits, fetches, targets;
  if (op == "ApplyGradientDescent") {
    Output w = ops::Variable(&b, DataType::kFloat, shape, "w");
    inits.push_back(ops::Assign(&b, w, x).node->name());
    targets.push_back(b.Op(op)
                          .Input(w)
                          .Input(ops::Const(&b, 1e-6f))
                          .Input(y)
                          .Attr("T", DataType::kFloat)
                          .Finalize()
                          .node->name());
  } else {
    NodeBuilder nb = b.Op(op);
    nb.Input(x);
    if (op == "ReluGrad") nb.Input(y);
    fetches.push_back(nb.Attr("T", DataType::kFloat).Finalize().name());
  }
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;  // keep the kernel live
  auto session = DirectSession::Create(g, options);
  TF_CHECK_OK(session.status());
  if (!inits.empty()) {
    TF_CHECK_OK(session.value()->Run({}, {}, inits, nullptr));
  }
  std::vector<Tensor> out;
  for (auto _ : state) {
    TF_CHECK_OK(session.value()->Run({}, fetches, targets, &out));
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(op);
}
BENCHMARK(BM_Elementwise)->DenseRange(0, 3)->UseRealTime();

// Conv2D and its two gradients at batch 8, a 32x32x16 input and a
// 3x3x16 -> 32 filter, stride 1, SAME, each op in its own session. Each is
// one product of 8192 x 144 x 32 multiply-adds on the device's pool plus
// moving windows to or from a patch matrix (DESIGN.md §15).
void BM_Conv2D(benchmark::State& state) {
  static const char* const kOps[] = {"Conv2D", "Conv2DBackpropInput",
                                     "Conv2DBackpropFilter"};
  const std::string op = kOps[state.range(0)];
  const TensorShape in_shape({8, 32, 32, 16});
  const TensorShape f_shape({3, 3, 16, 32});
  Graph g;
  GraphBuilder b(&g);
  auto sizes = [&](const TensorShape& s) {
    std::vector<int32_t> dims(s.dims().begin(), s.dims().end());
    return ops::ConstVecI32(&b, dims);
  };
  Output input = ops::Const(&b, RandomSign(in_shape, 1));
  Output filter = ops::Const(&b, RandomSign(f_shape, 2));
  Output grad = ops::Const(&b, RandomSign(TensorShape({8, 32, 32, 32}), 3));
  NodeBuilder nb = b.Op(op);
  if (op == "Conv2D") {
    nb.Input(input).Input(filter);
  } else if (op == "Conv2DBackpropInput") {
    nb.Input(sizes(in_shape)).Input(filter).Input(grad);
  } else {
    nb.Input(input).Input(sizes(f_shape)).Input(grad);
  }
  Output out = nb.Attr("T", DataType::kFloat)
                   .Attr("strides", std::vector<int64_t>{1, 1, 1, 1})
                   .Attr("padding", std::string("SAME"))
                   .Finalize();
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_constant_folding = false;  // keep the kernel live
  auto session = DirectSession::Create(g, options);
  TF_CHECK_OK(session.status());
  std::vector<Tensor> fetched;
  for (auto _ : state) {
    TF_CHECK_OK(session.value()->Run({out.name()}, &fetched));
    benchmark::DoNotOptimize(fetched);
  }
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2 * 8192 * 144 * 32 * 1e-9,
      benchmark::Counter::kIsRate);
  state.SetLabel(op);
}
BENCHMARK(BM_Conv2D)->DenseRange(0, 2)->UseRealTime();

void BM_RendezvousSendRecv(benchmark::State& state) {
  LocalRendezvous rendezvous;
  Tensor value = Tensor::Scalar(1.0f);
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = "k" + std::to_string(i++);
    TF_CHECK_OK(rendezvous.Send(key, value, false));
    Tensor received;
    bool is_dead;
    TF_CHECK_OK(rendezvous.Recv(key, &received, &is_dead));
  }
}
BENCHMARK(BM_RendezvousSendRecv);

// Contended variant: N threads share one rendezvous, each ping-ponging on
// its own key stream. Keys hash across the 16 shard buckets (DESIGN.md §9),
// so threads rarely collide on a shard mutex; before sharding every
// operation serialized on a single table lock.
void BM_RendezvousSendRecvContended(benchmark::State& state) {
  static LocalRendezvous* rendezvous = nullptr;
  if (state.thread_index() == 0) {
    rendezvous = new LocalRendezvous();
  }
  Tensor value = Tensor::Scalar(1.0f);
  const std::string prefix = "t" + std::to_string(state.thread_index()) + ";k";
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = prefix + std::to_string(i++);
    const uint64_t hash = Rendezvous::KeyHash(key);
    TF_CHECK_OK(rendezvous->Send(key, hash, value, false));
    rendezvous->RecvAsync(key, hash,
                          [](const Status& s, const Tensor&, bool) {
                            TF_CHECK_OK(s);
                          });
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete rendezvous;
    rendezvous = nullptr;
  }
}
BENCHMARK(BM_RendezvousSendRecvContended)->Threads(2)->Threads(4);

void BM_QueueEnqueueDequeue(benchmark::State& state) {
  QueueResource queue({DataType::kFloat}, /*capacity=*/-1,
                      /*min_after_dequeue=*/0, /*seed=*/1, /*shuffle=*/false);
  QueueResource::Tuple tuple = {Tensor::Scalar(1.0f)};
  for (auto _ : state) {
    queue.TryEnqueue(tuple, nullptr, [](const Status&) {});
    queue.TryDequeue(1, false, nullptr,
                     [](const Status&, const QueueResource::Tuple&) {});
  }
}
BENCHMARK(BM_QueueEnqueueDequeue);

void BM_VariableAssignAdd(benchmark::State& state) {
  const int64_t n = state.range(0);
  Graph g;
  GraphBuilder b(&g);
  Output v = ops::Variable(&b, DataType::kFloat, TensorShape({n}), "v");
  Output init = ops::Assign(&b, v, ops::Fill(&b, ops::ConstVecI32(&b, {(int32_t)n}),
                                             ops::Const(&b, 0.0f)));
  Output bump = ops::AssignAdd(
      &b, v,
      ops::Fill(&b, ops::ConstVecI32(&b, {(int32_t)n}), ops::Const(&b, 1.0f)));
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  for (auto _ : state) {
    TF_CHECK_OK(session.value()->Run({}, {}, {bump.node->name()}, nullptr));
  }
  state.SetBytesProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_VariableAssignAdd)->Arg(1024)->Arg(262144);

// Ablation (DESIGN.md §5.2 / Figure 6's dense-vs-sparse distinction):
// reading 32 rows via Gather vs fetching the whole table.
void BM_SparseGatherVsDenseFetch(benchmark::State& state) {
  const bool sparse = state.range(0) != 0;
  const int64_t rows = 16384;
  const int64_t dim = 256;
  Graph g;
  GraphBuilder b(&g);
  Output table = ops::Variable(&b, DataType::kFloat, TensorShape({rows, dim}),
                               "table");
  Output init = ops::Assign(
      &b, table,
      ops::Fill(&b,
                ops::ConstVecI32(&b, {(int32_t)rows, (int32_t)dim}),
                ops::Const(&b, 0.5f)));
  std::vector<int32_t> idx;
  for (int i = 0; i < 32; ++i) idx.push_back((i * 509) % rows);
  Output fetched =
      sparse ? ops::Gather(&b, table, ops::ConstVecI32(&b, idx))
             : ops::Identity(&b, table);
  Output sum = ops::SumAll(&b, fetched);
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  std::vector<Tensor> out;
  for (auto _ : state) {
    TF_CHECK_OK(session.value()->Run({sum.name()}, &out));
  }
  state.SetLabel(sparse ? "sparse_32_rows" : "dense_full_table");
}
BENCHMARK(BM_SparseGatherVsDenseFetch)->Arg(1)->Arg(0);

// Ablation (DESIGN.md / paper §4.1): fused ApplyGradientDescent kernel vs
// the same update composed from primitive operations.
void BM_OptimizerFusedVsComposed(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  const int64_t n = 65536;
  Graph g;
  GraphBuilder b(&g);
  Output w = ops::Variable(&b, DataType::kFloat, TensorShape({n}), "w");
  Output init = ops::Assign(
      &b, w,
      ops::Fill(&b, ops::ConstVecI32(&b, {(int32_t)n}), ops::Const(&b, 1.0f)));
  Output target =
      ops::Fill(&b, ops::ConstVecI32(&b, {(int32_t)n}), ops::Const(&b, 0.0f));
  Output loss = ops::SumAll(&b, ops::Square(&b, ops::Sub(&b, w, target)));
  std::unique_ptr<train::Optimizer> opt;
  if (fused) {
    opt = std::make_unique<train::GradientDescentOptimizer>(1e-6f);
  } else {
    opt = std::make_unique<train::ComposedGradientDescentOptimizer>(1e-6f);
  }
  Result<Node*> train_op = opt->Minimize(&b, loss, {w}, "train");
  TF_CHECK_OK(train_op.status());
  TF_CHECK_OK(b.status());
  auto session = DirectSession::Create(g);
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  for (auto _ : state) {
    TF_CHECK_OK(
        session.value()->Run({}, {}, {train_op.value()->name()}, nullptr));
  }
  state.SetLabel(fused ? "fused_kernel" : "composed_primitives");
}
BENCHMARK(BM_OptimizerFusedVsComposed)->Arg(1)->Arg(0);


// Ablation (paper §5: the master applies CSE and constant folding): step
// time on a redundancy-heavy graph with the optimizer passes on vs off.
void BM_GraphOptimizationAblation(benchmark::State& state) {
  const bool optimize = state.range(0) != 0;
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({256}), "x");
  // 32 identical branches plus a constant subexpression per branch.
  std::vector<Output> branches;
  for (int i = 0; i < 32; ++i) {
    Output scale = ops::Mul(&b, ops::Const(&b, 2.0f), ops::Const(&b, 3.0f));
    branches.push_back(ops::Mul(&b, ops::Square(&b, x), scale));
  }
  Output sum = ops::AddN(&b, branches);
  TF_CHECK_OK(b.status());
  SessionOptions options;
  options.optimizer.do_cse = optimize;
  options.optimizer.do_constant_folding = optimize;
  auto session = DirectSession::Create(g, options);
  Tensor input(DataType::kFloat, TensorShape({256}));
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({{"x", input}}, {sum.name()}, {}, &out));
  for (auto _ : state) {
    TF_CHECK_OK(session.value()->Run({{"x", input}}, {sum.name()}, {}, &out));
  }
  state.SetLabel(optimize ? "cse_and_folding_on" : "optimizations_off");
}
BENCHMARK(BM_GraphOptimizationAblation)->Arg(1)->Arg(0);

void BM_TensorClone(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor t(DataType::kFloat, TensorShape({n}));
  for (auto _ : state) {
    Tensor copy = t.Clone();
    benchmark::DoNotOptimize(copy);
  }
  state.SetBytesProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_TensorClone)->Arg(1024)->Arg(1048576);

void BM_PhiloxGeneration(benchmark::State& state) {
  PhiloxRandom rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Uniform());
  }
}
BENCHMARK(BM_PhiloxGeneration);

}  // namespace
}  // namespace tfrepro

int main(int argc, char** argv) {
  return tfrepro::bench::RunGBenchWithJson("bench_micro", argc, argv);
}
