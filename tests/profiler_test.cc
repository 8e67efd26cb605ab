// Tests for the sampling profiler (DESIGN.md §12): exact sampling cadence
// under concurrency, deterministic ProfileStore aggregation/merge, zero
// profiling work when sampling is disabled, and the observe→place feedback
// loop (PlaceGraph's observed-cost mode producing a different placement
// than the static arity heuristic on a skewed-cost graph).

#include "runtime/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/coding.h"
#include "core/file.h"
#include "golden.h"
#include "graph/ops.h"
#include "runtime/placer.h"
#include "runtime/session.h"

namespace tfrepro {
namespace {

using ops::Const;

// A synthetic one-node step: `node` ran for `micros` on `device`.
StepStats MakeStep(const std::string& node, const std::string& op,
                   const std::string& device, int64_t micros,
                   int64_t start = 1000) {
  StepStats stats;
  NodeExecStats n;
  n.node_name = node;
  n.op = op;
  n.device = device;
  n.scheduled_micros = start;
  n.start_micros = start;
  n.end_micros = start + micros;
  stats.nodes.push_back(n);
  return stats;
}

TEST(ProfilerSessionTest, CadenceIsExactUnderConcurrency) {
  // 8 threads x 125 calls = 1000 sampling decisions at N=4: exactly 250
  // must sample, however the threads interleave.
  ProfilerSession prof(/*sample_every=*/4);
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 125;
  std::atomic<int64_t> sampled{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kCallsPerThread; ++i) {
        if (prof.ShouldSample()) sampled.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sampled.load(), kThreads * kCallsPerThread / 4);
}

TEST(ProfilerSessionTest, OverridesAndDisabled) {
  ProfilerSession off(/*sample_every=*/0);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(off.ShouldSample());
  // A positive per-Run override samples even on a disabled session.
  EXPECT_TRUE(off.ShouldSample(/*run_override=*/1));

  ProfilerSession every(/*sample_every=*/1);
  EXPECT_TRUE(every.ShouldSample());
  // A negative override disables this call without consuming a slot...
  EXPECT_FALSE(every.ShouldSample(/*run_override=*/-1));
  // ...so the cadence resumes exactly where it left off.
  EXPECT_TRUE(every.ShouldSample());
}

TEST(ProfilerSessionTest, ResolveSampleEvery) {
  // A non-zero option wins; negative means explicitly off.
  EXPECT_EQ(ProfilerSession::ResolveSampleEvery(7), 7);
  EXPECT_EQ(ProfilerSession::ResolveSampleEvery(-1), 0);
  // Option 0 defers to the environment.
  ::setenv("TFREPRO_PROFILE_EVERY", "13", 1);
  EXPECT_EQ(ProfilerSession::ResolveSampleEvery(0), 13);
  EXPECT_EQ(ProfilerSession::ResolveSampleEvery(3), 3);
  ::unsetenv("TFREPRO_PROFILE_EVERY");
  EXPECT_EQ(ProfilerSession::ResolveSampleEvery(0), 0);
}

TEST(ProfileStoreTest, AggregatesPerKey) {
  ProfileStore store;
  store.AddStepStats(MakeStep("matmul1", "MatMul", "/device:CPU:0", 100));
  store.AddStepStats(MakeStep("matmul1", "MatMul", "/device:CPU:0", 300));
  store.AddStepStats(MakeStep("add1", "Add", "/device:CPU:0", 10));

  EXPECT_EQ(store.steps(), 3);
  std::vector<ProfileEntry> entries = store.Entries();
  ASSERT_EQ(entries.size(), 2u);  // sorted by (op, node, device): Add first
  EXPECT_EQ(entries[0].op, "Add");
  EXPECT_EQ(entries[0].count, 1);
  EXPECT_EQ(entries[1].op, "MatMul");
  EXPECT_EQ(entries[1].count, 2);
  EXPECT_DOUBLE_EQ(entries[1].mean_micros(), 200.0);
  EXPECT_DOUBLE_EQ(entries[1].min_micros, 100.0);
  EXPECT_DOUBLE_EQ(entries[1].max_micros, 300.0);

  EXPECT_DOUBLE_EQ(store.NodeMeanMicros("matmul1"), 200.0);
  EXPECT_DOUBLE_EQ(store.OpMeanMicros("Add"), 10.0);
  EXPECT_LT(store.NodeMeanMicros("never_ran"), 0.0);
  EXPECT_GT(store.MeanNodeSeconds(), 0.0);
}

TEST(ProfileStoreTest, MergeIsOrderIndependent) {
  ProfileStore a;
  a.AddStepStats(MakeStep("n1", "Op", "/device:CPU:0", 50));
  a.AddStepStats(MakeStep("n2", "Op", "/device:CPU:0", 80));
  ProfileStore b;
  b.AddStepStats(MakeStep("n1", "Op", "/device:CPU:0", 150));
  b.AddStepStats(MakeStep("n3", "Op2", "/device:CPU:1", 7));

  ProfileStore ab;
  ab.MergeFrom(a);
  ab.MergeFrom(b);
  ProfileStore ba;
  ba.MergeFrom(b);
  ba.MergeFrom(a);

  EXPECT_EQ(ab.steps(), 4);
  EXPECT_EQ(ab.ToJson(), ba.ToJson());  // byte-identical either way
  EXPECT_DOUBLE_EQ(ab.NodeMeanMicros("n1"), 100.0);
}

// The profile document byte for byte: entries sorted by (op, node,
// device), names escaped, trailing zero buckets elided.
TEST(ProfileStoreTest, JsonGolden) {
  ProfileStore store;
  store.AddStepStats(MakeStep("a", "Add", "/device:CPU:0", 3));
  store.AddStepStats(MakeStep("a", "Add", "/device:CPU:0", 6));
  store.AddStepStats(MakeStep("m\"1", "MatMul", "/device:CPU:1", 1));
  EXPECT_EQ(store.ToJson(),
            R"({"steps":3,"entries":[)"
            R"({"op":"Add","node":"a","device":"/device:CPU:0","count":2,)"
            R"("mean_us":4.5,"min_us":3,"max_us":6,)"
            R"("total_us":9,"buckets_pow2_us":[0,1,1]},)"
            R"({"op":"MatMul","node":"m\"1","device":"/device:CPU:1",)"
            R"("count":1,"mean_us":1,"min_us":1,"max_us":1,)"
            R"("total_us":1,"buckets_pow2_us":[1]}]})");
}

TEST(ProfileStoreTest, WriteJsonIsAtomicAndParseable) {
  ProfileStore store;
  store.AddStepStats(MakeStep("n\"quoted\"", "Op", "/device:CPU:0", 42));
  const std::string path = ::testing::TempDir() + "/profile_test.json";
  TF_CHECK_OK(store.WriteJson(path));
  // The temp file was renamed away; the final file holds the JSON.
  for (const auto& e :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    EXPECT_NE(e.path().filename().string().rfind("profile_test.json.tmp", 0),
              0u);
  }
  Result<std::string> content = ReadFile(path);
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_EQ(content.value(), store.ToJson());
  EXPECT_NE(content.value().find("\"steps\":1"), std::string::npos);
  EXPECT_NE(content.value().find("n\\\"quoted\\\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ProfileStoreTest, TabInOpNameIsWrittenAsBackslashT) {
  ProfileStore store;
  store.AddStepStats(MakeStep("n", "Op\tX", "/device:CPU:0", 1));
  EXPECT_NE(store.ToJson().find("\"Op\\tX\""), std::string::npos)
      << store.ToJson();
}

TEST(ProfilerSessionTest, SampledStepsFeedTheSessionStore) {
  Graph g;
  GraphBuilder b(&g);
  // A fed placeholder keeps the Mul from being constant-folded away, so a
  // real Mul kernel runs (and is profiled) every step.
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape(), "x");
  Output y = ops::Mul(&b, x, Const(&b, 4.0f));
  ASSERT_TRUE(b.ok()) << b.status();

  SessionOptions options;
  options.profile_sample_every = 2;  // every other step
  auto session = DirectSession::Create(g, options);
  ASSERT_TRUE(session.ok()) << session.status();

  constexpr int kRuns = 10;
  for (int i = 0; i < kRuns; ++i) {
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({{"x", Tensor::Scalar(3.0f)}},
                                     {y.name()}, {}, &out));
    EXPECT_FLOAT_EQ(*out[0].data<float>(), 12.0f);
  }
  const ProfileStore* store = session.value()->profile_store();
  EXPECT_EQ(store->steps(), kRuns / 2);
  EXPECT_FALSE(store->Entries().empty());
  EXPECT_GE(store->OpMeanMicros("Mul"), 0.0);
}

TEST(ProfilerSessionTest, DisabledSamplingHasNoProfilingSideEffects) {
  Graph g;
  GraphBuilder b(&g);
  Output y = ops::Add(&b, Const(&b, 1.0f), Const(&b, 2.0f));
  ASSERT_TRUE(b.ok());

  auto session = DirectSession::Create(g);  // profile_sample_every = 0
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 20; ++i) {
    std::vector<Tensor> out;
    TF_CHECK_OK(session.value()->Run({y.name()}, &out));
  }
  // No step was traced, so the store never saw anything: the hot path took
  // the no-collector branch (no clock reads, no per-node allocation).
  EXPECT_EQ(session.value()->profile_store()->steps(), 0);
  EXPECT_TRUE(session.value()->profile_store()->Entries().empty());
}

TEST(ProfilerSessionTest, TracedStepOverheadIsBounded) {
  // Tracing every step must stay within a generous constant factor of the
  // untraced path (min-of-N to shake scheduler noise). This is a smoke
  // bound against quadratic blowups, not a microbenchmark.
  Graph g;
  GraphBuilder b(&g);
  Output x = Const(&b, Tensor::FromVector<float>(
                            std::vector<float>(64 * 64, 1.0f),
                            TensorShape({64, 64})));
  Output y = ops::MatMul(&b, x, x);
  ASSERT_TRUE(b.ok());

  auto plain = DirectSession::Create(g);
  ASSERT_TRUE(plain.ok());
  SessionOptions traced_options;
  traced_options.profile_sample_every = 1;
  auto traced = DirectSession::Create(g, traced_options);
  ASSERT_TRUE(traced.ok());

  auto min_step_micros = [&](DirectSession* sess) {
    int64_t best = INT64_MAX;
    for (int i = 0; i < 30; ++i) {
      std::vector<Tensor> out;
      auto start = std::chrono::steady_clock::now();
      TF_CHECK_OK(sess->Run({y.name()}, &out));
      int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
      if (us < best) best = us;
    }
    return best;
  };
  const int64_t plain_us = min_step_micros(plain.value().get());
  const int64_t traced_us = min_step_micros(traced.value().get());
  EXPECT_EQ(traced.value()->profile_store()->steps(), 30);
  EXPECT_LE(traced_us, plain_us * 20 + 5000) << "plain=" << plain_us;
}

TEST(ObservedCostPlacementTest, SkewedCostsChangeThePlacement) {
  // Six unconstrained single-node groups, one of which is measured ~1000x
  // more expensive. The arity heuristic (all weights equal) round-robins
  // 3/3 across two devices; the observed-cost mode isolates the heavy node
  // and packs the five cheap ones onto the other device.
  auto build = [](Graph* g) {
    GraphBuilder b(g);
    for (int i = 0; i < 6; ++i) {
      Const(&b, Tensor::Scalar(float(i)), "n" + std::to_string(i));
    }
    ASSERT_TRUE(b.ok()) << b.status();
  };

  ThreadPool pool("placer_test", 1);
  auto d0 = NewCpuDevice("localhost", 0, 0, &pool);
  auto d1 = NewCpuDevice("localhost", 0, 1, &pool);
  std::vector<Device*> devices = {d0.get(), d1.get()};

  ProfileStore store;
  for (int i = 0; i < 6; ++i) {
    const int64_t micros = i == 0 ? 1000 : 1;
    store.AddStepStats(
        MakeStep("n" + std::to_string(i), "Const", d0->name(), micros));
  }

  Graph arity_graph;
  build(&arity_graph);
  PlacerOptions arity;
  arity.balance = PlacerOptions::Balance::kArity;
  TF_CHECK_OK(PlaceGraph(&arity_graph, devices, arity));

  Graph observed_graph;
  build(&observed_graph);
  PlacerOptions observed;
  observed.balance = PlacerOptions::Balance::kObservedCost;
  observed.node_cost = store.CostFunction();
  TF_CHECK_OK(PlaceGraph(&observed_graph, devices, observed));

  auto device_of = [](const Graph& g, const std::string& name) {
    const Node* n = g.FindNode(name);
    EXPECT_NE(n, nullptr) << name;
    return n != nullptr ? n->assigned_device() : std::string();
  };

  // Observed mode: the heavy node sits alone, everything else goes to the
  // other device.
  const std::string heavy_dev = device_of(observed_graph, "n0");
  int with_heavy = 0;
  for (int i = 1; i < 6; ++i) {
    if (device_of(observed_graph, "n" + std::to_string(i)) == heavy_dev) {
      ++with_heavy;
    }
  }
  EXPECT_EQ(with_heavy, 0);

  // Arity mode splits 3/3 — so the two placements measurably differ.
  int arity_on_heavy_dev = 0;
  bool differs = false;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "n" + std::to_string(i);
    if (device_of(arity_graph, name) == heavy_dev) ++arity_on_heavy_dev;
    if (device_of(arity_graph, name) != device_of(observed_graph, name)) {
      differs = true;
    }
  }
  EXPECT_EQ(arity_on_heavy_dev, 3);
  EXPECT_TRUE(differs);
}

TEST(ObservedCostPlacementTest, ConstraintsStillWin) {
  // A user device constraint beats any balancing mode; the observed-cost
  // balancer only spreads the unconstrained remainder.
  Graph g;
  GraphBuilder b(&g);
  Output pinned = Const(&b, 1.0f);
  pinned.node->set_requested_device("/device:CPU:1");
  Const(&b, Tensor::Scalar(2.0f), "free");
  ASSERT_TRUE(b.ok());

  ThreadPool pool("placer_test", 1);
  auto d0 = NewCpuDevice("localhost", 0, 0, &pool);
  auto d1 = NewCpuDevice("localhost", 0, 1, &pool);

  PlacerOptions options;
  options.balance = PlacerOptions::Balance::kObservedCost;
  options.node_cost = [](const Node&) { return 100.0; };
  TF_CHECK_OK(PlaceGraph(&g, {d0.get(), d1.get()}, options));
  EXPECT_EQ(pinned.node->assigned_device(), d1->name());
  // The pinned group pre-charged CPU:1, so the free node lands on CPU:0.
  EXPECT_EQ(g.FindNode("free")->assigned_device(), d0->name());
}

TEST(StepStatsTest, WireRoundTripPreservesEverything) {
  StepStats stats;
  stats.step_id = 42;
  NodeExecStats n;
  n.node_name = "mm";
  n.op = "MatMul";
  n.device = "/job:worker/task:1/device:CPU:0";
  n.scheduled_micros = 10;
  n.start_micros = 20;
  n.end_micros = 35;
  stats.nodes.push_back(n);
  TransferStats t;
  t.kind = TransferStats::Kind::kRecv;
  t.tensor_name = "mm:0";
  t.send_device = "/job:ps/task:0/device:CPU:0";
  t.recv_device = n.device;
  t.bytes = 128;
  t.recv_start_micros = 21;
  t.recv_end_micros = 30;
  stats.transfers.push_back(t);
  InstantEvent ev;
  ev.name = "fault";
  ev.scope = "/job:worker/task:1";
  ev.micros = 25;
  ev.args["kind"] = "injected";
  stats.instants.push_back(ev);
  SpanEvent span;
  span.name = "queue.wait";
  span.scope = "/job:worker/task:1";
  span.start_micros = 5;
  span.end_micros = 9;
  stats.spans.push_back(span);

  std::string bytes;
  stats.AppendToBytes(&bytes);
  // Pinned to the bytes of an earlier build (DESIGN.md §2.1).
  EXPECT_EQ(Hex(bytes),
            "2a00000000000000010000000000000002000000000000006d6d060000000000"
            "00004d61744d756c1f000000000000002f6a6f623a776f726b65722f7461736b"
            "3a312f6465766963653a4350553a300a00000000000000140000000000000023"
            "000000000000000100000000000000010000000000000004000000000000006d"
            "6d3a301b000000000000002f6a6f623a70732f7461736b3a302f646576696365"
            "3a4350553a301f000000000000002f6a6f623a776f726b65722f7461736b3a31"
            "2f6465766963653a4350553a3080000000000000000000000000000000150000"
            "00000000001e0000000000000001000000000000000500000000000000666175"
            "6c7412000000000000002f6a6f623a776f726b65722f7461736b3a3119000000"
            "00000000010000000000000004000000000000006b696e640800000000000000"
            "696e6a656374656401000000000000000a0000000000000071756575652e7761"
            "697412000000000000002f6a6f623a776f726b65722f7461736b3a3105000000"
            "0000000009000000000000000000000000000000");
  StepStats parsed;
  size_t pos = 0;
  ASSERT_TRUE(StepStats::ParseFromBytes(bytes, &pos, &parsed));
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(parsed.step_id, 42);
  ASSERT_EQ(parsed.nodes.size(), 1u);
  EXPECT_EQ(parsed.nodes[0].node_name, "mm");
  EXPECT_EQ(parsed.nodes[0].end_micros, 35);
  ASSERT_EQ(parsed.transfers.size(), 1u);
  EXPECT_EQ(parsed.transfers[0].kind, TransferStats::Kind::kRecv);
  EXPECT_EQ(parsed.transfers[0].bytes, 128);
  ASSERT_EQ(parsed.instants.size(), 1u);
  EXPECT_EQ(parsed.instants[0].args.at("kind"), "injected");
  ASSERT_EQ(parsed.spans.size(), 1u);
  EXPECT_EQ(parsed.spans[0].end_micros, 9);

  // Every strict prefix fails cleanly instead of reading out of bounds.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    StepStats junk;
    size_t p = 0;
    EXPECT_FALSE(StepStats::ParseFromBytes(bytes.substr(0, cut), &p, &junk))
        << "cut at " << cut;
  }

  // ShiftTimes moves recorded timestamps but leaves zeros ("unrecorded")
  // alone — e.g. the Recv transfer's send_micros.
  parsed.ShiftTimes(100);
  EXPECT_EQ(parsed.nodes[0].start_micros, 120);
  EXPECT_EQ(parsed.transfers[0].send_micros, 0);
  EXPECT_EQ(parsed.transfers[0].recv_start_micros, 121);
}

TEST(StepStatsTest, EventCountBeyondInputIsRejected) {
  // Each event vector in turn claims 2^24 events with 64 bytes behind
  // them: rejected before the count sizes a reserve (2^24 node records
  // would be about 2 GB).
  for (int vec = 0; vec < 4; ++vec) {
    std::string bytes;
    AppendInt64(&bytes, /*step_id=*/7);
    for (int i = 0; i < vec; ++i) AppendInt64(&bytes, 0);
    AppendInt64(&bytes, int64_t{1} << 24);
    bytes.append(64, '\0');
    StepStats parsed;
    size_t pos = 0;
    EXPECT_FALSE(StepStats::ParseFromBytes(bytes, &pos, &parsed))
        << "event vector " << vec;
  }
}

}  // namespace
}  // namespace tfrepro
