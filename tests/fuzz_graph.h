// Random-DAG generator shared by the differential harnesses (DESIGN.md
// §13): each seed builds a random DAG of element-wise / matmul / const /
// variable ops — with diamonds, shared subexpressions, control edges, ref
// reads, feeds and fetches, plus a real gradient-descent training step.
// optimizer_fuzz_test runs it optimized vs unoptimized; distributed_test
// runs it through a one-task session vs a multi-task cluster.

#ifndef TFREPRO_TESTS_FUZZ_GRAPH_H_
#define TFREPRO_TESTS_FUZZ_GRAPH_H_

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/gradients.h"
#include "graph/graph.h"
#include "graph/ops.h"
#include "runtime/tracing.h"
#include "train/optimizer.h"

namespace tfrepro {
namespace fuzz {

using ops::Const;

constexpr int kSteps = 3;
constexpr int64_t kRows = 2;
constexpr int64_t kCols = 3;

inline std::string TensorBytes(const Tensor& t) {
  std::string s;
  t.AppendToBytes(&s);
  return s;
}

// Value kinds tracked by the generator so random operand picks stay
// shape-compatible (binary ops may mix a kind with a scalar).
enum Kind { kScalar = 0, kMat = 1, kMat33 = 2 };

struct Val {
  Output out;
  Kind kind;
};

struct FuzzGraph {
  Graph graph;
  std::vector<std::string> fetches;  // post-step eval fetches (incl. vars)
  std::string loss_name;
  std::string train_target;
  std::string init_target;
};

inline Tensor RandMat(std::mt19937* rng, int64_t rows, int64_t cols) {
  std::uniform_real_distribution<float> dist(-1.5f, 1.5f);
  std::vector<float> v(rows * cols);
  for (float& x : v) x = dist(*rng);
  return Tensor::FromVector<float>(v, TensorShape({rows, cols}));
}

inline Tensor RandScalar(std::mt19937* rng) {
  std::uniform_real_distribution<float> dist(-1.5f, 1.5f);
  return Tensor::Scalar(dist(*rng));
}

// Every op used on a gradient path must have a registered gradient; keep
// the pool tame (no Exp/Log/Div) so three SGD steps stay finite.
inline const char* const kUnaryOps[] = {"Neg", "Tanh", "Sigmoid",
                                        "Square", "Abs", "Relu"};
inline const char* const kBinaryOps[] = {
    "Add", "Sub", "Mul", "Maximum", "Minimum", "SquaredDifference"};

inline void BuildFuzzGraph(uint32_t seed, const std::string& var_device,
                    FuzzGraph* fg) {
  std::mt19937 rng(seed * 2654435761u + 17);
  GraphBuilder b(&fg->graph);
  auto flip = [&](double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < p;
  };
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };

  std::vector<Val> pool;

  // Feeds.
  pool.push_back(
      {ops::Placeholder(&b, DataType::kFloat, TensorShape({kRows, kCols}),
                        "px"),
       kMat});
  pool.push_back(
      {ops::Placeholder(&b, DataType::kFloat, TensorShape(), "ps"), kScalar});

  // Consts — including a pair agreeing on their first four elements but
  // not the rest (the CSE signature-truncation regression surface).
  pool.push_back({Const(&b, RandMat(&rng, kRows, kCols)), kMat});
  pool.push_back(
      {Const(&b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6},
                                           TensorShape({kRows, kCols}))),
       kMat});
  pool.push_back(
      {Const(&b, Tensor::FromVector<float>({1, 2, 3, 4, 5, 6.5f},
                                           TensorShape({kRows, kCols}))),
       kMat});
  pool.push_back({Const(&b, RandScalar(&rng)), kScalar});
  pool.push_back({Const(&b, 0.5f), kScalar});

  // Variables (trained below). This runtime has relaxed read consistency
  // (state_ops.cc): Identity FORWARDS the variable's buffer, and applies
  // mutate it in place. The pool may read variables freely because pool
  // nodes are only fetched in a quiescent (no-target) Run; the loss is
  // built separately below so the training step stays race-free.
  // Variables are pinned to `var_device`, the way real clients pin
  // parameters to a PS task (§4.1): balanced placement re-balances each
  // pruned Run signature independently, and a stateful kernel that hops
  // devices between Runs would leave its state behind.
  Output w, u, init_w, init_u;
  {
    GraphBuilder::DeviceScope dev(&b, var_device);
    w = ops::Variable(&b, DataType::kFloat, TensorShape({kRows, kCols}), "w");
    u = ops::Variable(&b, DataType::kFloat, TensorShape({kRows, kCols}), "u");
    init_w = ops::Assign(&b, w, Const(&b, RandMat(&rng, kRows, kCols)));
    init_u = ops::Assign(&b, u, Const(&b, RandMat(&rng, kRows, kCols)));
  }
  Node* init = ops::Group(&b, {init_w, init_u}, "init");
  fg->init_target = init->name();
  Output wr = ops::Identity(&b, w);
  Output ur = ops::Identity(&b, u);
  pool.push_back({wr, kMat});
  pool.push_back({ur, kMat});
  pool.push_back({w, kMat});  // raw ref: fusion must refuse its readers

  // Random op soup. Recipes are remembered so a later draw can duplicate
  // one exactly (shared subexpressions for CSE to find).
  struct Recipe {
    int arity;
    std::string op;
    Output a, c;
    Kind kind;
  };
  std::vector<Recipe> recipes;
  const int num_ops = 12 + pick(14);
  for (int i = 0; i < num_ops; ++i) {
    const int roll = pick(100);
    Output made;
    Kind kind = kMat;
    if (roll < 55 || recipes.empty()) {
      // Binary element-wise: operands share a kind unless one is scalar.
      const Val& a = pool[pick(static_cast<int>(pool.size()))];
      std::vector<int> compatible;
      for (size_t j = 0; j < pool.size(); ++j) {
        if (pool[j].kind == a.kind || pool[j].kind == kScalar ||
            a.kind == kScalar) {
          compatible.push_back(static_cast<int>(j));
        }
      }
      const Val& c = pool[compatible[pick(static_cast<int>(
          compatible.size()))]];
      const char* op = kBinaryOps[pick(6)];
      made = b.Op(op)
                 .Input(a.out)
                 .Input(c.out)
                 .Attr("T", DataType::kFloat)
                 .Finalize();
      kind = a.kind == kScalar ? c.kind : a.kind;
      recipes.push_back({2, op, a.out, c.out, kind});
    } else if (roll < 75) {
      const Val& a = pool[pick(static_cast<int>(pool.size()))];
      const char* op = kUnaryOps[pick(6)];
      made = b.Op(op).Input(a.out).Attr("T", DataType::kFloat).Finalize();
      kind = a.kind;
      recipes.push_back({1, op, a.out, Output(), kind});
    } else if (roll < 83) {
      // MatMul: [2,3]^T x [2,3] -> [3,3], or [2,3] x [3,3] -> [2,3].
      std::vector<int> mats, mat33s;
      for (size_t j = 0; j < pool.size(); ++j) {
        if (pool[j].kind == kMat) mats.push_back(static_cast<int>(j));
        if (pool[j].kind == kMat33) mat33s.push_back(static_cast<int>(j));
      }
      if (!mat33s.empty() && flip(0.5)) {
        made = ops::MatMul(&b, pool[mats[pick((int)mats.size())]].out,
                           pool[mat33s[pick((int)mat33s.size())]].out);
        kind = kMat;
      } else {
        made = ops::MatMul(&b, pool[mats[pick((int)mats.size())]].out,
                           pool[mats[pick((int)mats.size())]].out,
                           /*transpose_a=*/true);
        kind = kMat33;
      }
    } else {
      // Duplicate an earlier recipe verbatim: a shared subexpression.
      const Recipe& r = recipes[pick(static_cast<int>(recipes.size()))];
      NodeBuilder nb = b.Op(r.op);
      nb.Input(r.a);
      if (r.arity == 2) nb.Input(r.c);
      made = nb.Attr("T", DataType::kFloat).Finalize();
      kind = r.kind;
    }
    ASSERT_TRUE(b.ok()) << "seed " << seed << ": " << b.status();
    // Sprinkle control edges (always earlier -> later, so acyclic). Never
    // hang one off a Placeholder: a control edge keeps the node alive even
    // when its value is fed, and executing an unfed Placeholder is an
    // error by design.
    if (flip(0.15)) {
      const Val& dep = pool[pick(static_cast<int>(pool.size()))];
      if (dep.out.node != made.node &&
          dep.out.node->op() != "Placeholder") {
        fg->graph.AddControlEdge(dep.out.node, made.node);
      }
    }
    pool.push_back({made, kind});
  }

  // Training subgraph, built separately from the pool. Because applies
  // mutate variable buffers in place and Identity merely aliases them, a
  // gradient that re-reads a variable-aliased operand (MulGrad reads both
  // inputs, say) would race the other variable's apply — nondeterminism in
  // BOTH sessions, nothing to do with the optimizer. So variables enter
  // the loss only through Add/Sub, whose gradients never read their
  // operands; every downstream op (and its gradient) sees freshly
  // allocated intermediates or immutable consts/feeds, which makes the
  // whole train step totally ordered and the loss trajectory exact.
  std::vector<Output> safe;
  safe.push_back(ops::Add(&b, wr, ur));
  safe.push_back(ops::Sub(&b, wr, Const(&b, RandMat(&rng, kRows, kCols))));
  safe.push_back(ops::Add(&b, ur, Const(&b, 0.25f)));
  const int num_loss_ops = 3 + pick(6);
  for (int i = 0; i < num_loss_ops; ++i) {
    Output made;
    if (flip(0.4)) {
      made = b.Op(kUnaryOps[pick(6)])
                 .Input(safe[pick(static_cast<int>(safe.size()))])
                 .Attr("T", DataType::kFloat)
                 .Finalize();
    } else {
      Output rhs = flip(0.3) ? pool[0].out  // the px feed (immutable)
                             : safe[pick(static_cast<int>(safe.size()))];
      made = b.Op(kBinaryOps[pick(6)])
                 .Input(safe[pick(static_cast<int>(safe.size()))])
                 .Input(rhs)
                 .Attr("T", DataType::kFloat)
                 .Finalize();
    }
    safe.push_back(made);
  }
  ASSERT_TRUE(b.ok()) << "seed " << seed << ": " << b.status();
  Output mix = ops::Add(&b, safe[0], safe.back());
  Output loss = ops::MeanAll(&b, ops::Square(&b, mix));
  fg->loss_name = loss.name();
  train::GradientDescentOptimizer sgd(0.05f);
  Result<Node*> train = sgd.Minimize(&b, loss, {w, u});
  ASSERT_TRUE(train.ok()) << "seed " << seed << ": " << train.status();
  fg->train_target = train.value()->name();
  ASSERT_TRUE(b.ok()) << "seed " << seed << ": " << b.status();

  // Post-step eval fetches: a few random intermediates plus both
  // variables' states.
  std::set<std::string> fetch_set;
  for (int i = 0; i < 3; ++i) {
    fetch_set.insert(pool[pick(static_cast<int>(pool.size()))].out.name());
  }
  fg->fetches.assign(fetch_set.begin(), fetch_set.end());
  // An int32 const side-expression: constant folding must agree with
  // real execution across dtypes, not just float.
  Output i32 = ops::Add(&b, Const(&b, static_cast<int32_t>(7)),
                        Const(&b, static_cast<int32_t>(pick(100))));
  fg->fetches.push_back(i32.name());
  // Raw ref reads, fetched only in the quiescent (no-target) Run: the
  // fusion pass must refuse to absorb them, and their execution must still
  // be bit-exact. Kept off the loss path (see the variable comment above).
  Output ref_chain =
      ops::Square(&b, ops::Mul(&b, w, Const(&b, 0.75f)));
  fg->fetches.push_back(ref_chain.name());
  fg->fetches.push_back(ops::Maximum(&b, u, ops::Neg(&b, ur)).name());
  fg->fetches.push_back("w");
  fg->fetches.push_back("u");
}

// The seed's feeds for each of the kSteps steps.
inline std::vector<std::vector<std::pair<std::string, Tensor>>> FuzzFeeds(
    uint32_t seed) {
  std::mt19937 feed_rng(seed * 40503u + 7);
  std::vector<std::vector<std::pair<std::string, Tensor>>> feeds(kSteps);
  for (int step = 0; step < kSteps; ++step) {
    feeds[step] = {{"px", RandMat(&feed_rng, kRows, kCols)},
                   {"ps", RandScalar(&feed_rng)}};
  }
  return feeds;
}

// Runs init + kSteps of (train step fetching loss, then a quiescent eval
// of all fetches) on `session` and returns every fetched tensor
// serialized. With `traced` set, the first train step is traced into it.
template <typename Session>
std::vector<std::string> RunFuzzTrajectory(
    Session* session, const FuzzGraph& fg,
    const std::vector<std::vector<std::pair<std::string, Tensor>>>& feeds,
    RunMetadata* traced = nullptr) {
  std::vector<std::string> trajectory;
  std::vector<Tensor> out;
  Status s = session->Run({}, {}, {fg.init_target}, &out);
  EXPECT_TRUE(s.ok()) << s;
  if (!s.ok()) return {};
  for (int step = 0; step < kSteps; ++step) {
    RunOptions run_options;
    run_options.trace = traced != nullptr && step == 0;
    s = session->Run(run_options, feeds[step], {fg.loss_name},
                     {fg.train_target}, &out,
                     run_options.trace ? traced : nullptr);
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok()) return {};
    trajectory.push_back(TensorBytes(out[0]));
    s = session->Run(feeds[step], fg.fetches, {}, &out);
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok()) return {};
    for (const Tensor& t : out) trajectory.push_back(TensorBytes(t));
  }
  return trajectory;
}

}  // namespace fuzz
}  // namespace tfrepro

#endif  // TFREPRO_TESTS_FUZZ_GRAPH_H_
