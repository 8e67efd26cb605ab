// Distributed data-parallel training (paper §3.3, §4.4) on the in-process
// cluster: parameters on /job:ps tasks, replicated compute on /job:worker
// tasks, first asynchronously (Figure 4a), then synchronously through the
// queue-based coordination of §4.4 (Figure 4b).
//
// Input arrives through the shared data service, not per-step feed dicts:
// one pipeline task in this process reads and preprocesses a record file
// exactly once, and each worker's graph pulls its round-robin share via
// DataServiceDataset -> Batch -> IteratorGetNext. Identity nodes keep the
// names x<wk>/y<wk> feedable, so evaluation and tracing can still
// substitute a fixed batch through the feed rewrite.
//
//   $ ./distributed_training
//   $ ./distributed_training --trace-out /tmp/step  # step profiling
//   $ ./distributed_training --profile-out /tmp/profile.json  # sampling
//
// With --trace-out, one traced asynchronous step and one traced
// synchronous round are re-run at the end; <prefix>_async.trace.json and
// <prefix>_sync.trace.json open in chrome://tracing (one row per task and
// device, with the cross-task Send/Recv transfers), and
// <prefix>.metrics.json holds the full metrics registry snapshot.
//
// With --profile-out, the sampling profiler traces every Nth training step
// (N = TFREPRO_PROFILE_EVERY when set, else 5) and the aggregated
// per-(op, node, device) latency profile is dumped as JSON (DESIGN.md §12).
//
// The transport follows TFREPRO_TRANSPORT ("inprocess" default; "socket"
// spawns one worker_main process per task, and traced steps stitch every
// process onto one timeline).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/file.h"
#include "core/metrics.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "distributed/data_service.h"
#include "distributed/master.h"
#include "graph/ops.h"
#include "nn/layers.h"
#include "train/optimizer.h"
#include "train/sync_replicas.h"

using namespace tfrepro;
using distributed::Cluster;
using distributed::ClusterSpec;
using distributed::MasterSession;

constexpr int kWorkers = 3;
constexpr int kFeatureDim = 8;
constexpr int kClasses = 3;
constexpr int kBatch = 16;

int main(int argc, char** argv) {
  std::string trace_prefix;
  std::string profile_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_prefix = argv[++i];
    } else if (std::strcmp(argv[i], "--profile-out") == 0 && i + 1 < argc) {
      profile_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace-out <path-prefix>] "
                   "[--profile-out <path>]\n",
                   argv[0]);
      return 1;
    }
  }

  ClusterSpec spec;
  spec.jobs["ps"] = 2;
  spec.jobs["worker"] = kWorkers;
  auto cluster = Cluster::Create(spec);
  TF_CHECK_OK(cluster.status());
  std::printf("cluster: 2 PS tasks, %d workers\n\n", kWorkers);

  // The shared input pipeline: write the training set once, then serve it
  // from a single data-service task. Every record is read and parsed
  // exactly once no matter how many workers pull.
  const std::string records_path =
      "/tmp/distributed_training_records_" + std::to_string(::getpid());
  TF_CHECK_OK(data::WriteClusteredRecordFile(
      records_path, /*count=*/8 * kWorkers * kBatch, kClasses, kFeatureDim,
      /*seed=*/31));
  auto pipeline = distributed::RecordPipelineFactory(
      {records_path}, "parse_example", /*parallelism=*/4,
      {DataType::kFloat, DataType::kInt64}, /*repeat=*/-1,
      /*shuffle_buffer=*/0, /*seed=*/0);
  TF_CHECK_OK(pipeline.status());
  distributed::DataServiceHandler::Options data_options;
  data_options.num_consumers = kWorkers;
  distributed::DataServiceServer data_service(pipeline.value(), data_options);
  TF_CHECK_OK(data_service.Start(0));
  std::printf("data service: port %d serving %s to %d consumers\n\n",
              data_service.port(), records_path.c_str(), kWorkers);

  // --profile-out turns the sampling profiler on: every Nth Run is traced
  // and folded into each session's ProfileStore. The env var still wins
  // when set, so the check.sh smoke can tighten the cadence.
  MasterSession::Options session_options;
  if (!profile_out.empty() && ProfilerSession::SampleEveryFromEnv() == 0) {
    session_options.profile_sample_every = 5;
  }

  // ------------------------------------------------------------------
  // Part 1: asynchronous replication (Figure 4a). Each worker computes
  // gradients on its own batch and applies them to the shared parameters
  // without coordination.
  // ------------------------------------------------------------------
  Graph graph;
  GraphBuilder b(&graph);
  nn::VariableStore store(&b);

  // Parameters live on the PS tasks (§3.3 placement constraints).
  Output w1;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    w1 = store.WeightVariable("w1", TensorShape({kFeatureDim, kClasses}),
                              0.3f);
  }
  Output bias;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:1");
    bias = store.ZeroVariable("bias", TensorShape({kClasses}));
  }

  // One replica of the model per worker, each pulling its own share of the
  // data service (consumer wk of kWorkers). The named Identity nodes keep
  // x<wk>/y<wk> feedable for evaluation and tracing.
  std::vector<Node*> async_steps;
  std::vector<Output> losses;
  train::GradientDescentOptimizer async_opt(0.1f);
  for (int wk = 0; wk < kWorkers; ++wk) {
    GraphBuilder::DeviceScope scope(&b,
                                    "/job:worker/task:" + std::to_string(wk));
    Output ds = ops::DataServiceDataset(&b, data_service.port(), wk, kWorkers,
                                        {DataType::kFloat, DataType::kInt64});
    ds = ops::BatchDataset(&b, ds, kBatch, /*drop_remainder=*/true);
    std::vector<Output> next = ops::IteratorGetNext(
        &b, ds, {DataType::kFloat, DataType::kInt64},
        "input" + std::to_string(wk));
    Output x = b.Op("Identity")
                   .Name("x" + std::to_string(wk))
                   .Input(next[0])
                   .Attr("T", BaseType(next[0].dtype()))
                   .Finalize();
    Output y = b.Op("Identity")
                   .Name("y" + std::to_string(wk))
                   .Input(next[1])
                   .Attr("T", BaseType(next[1].dtype()))
                   .Finalize();
    Output logits = ops::BiasAdd(&b, ops::MatMul(&b, x, w1), bias);
    Node* xent = ops::SparseSoftmaxCrossEntropyWithLogits(&b, logits, y);
    Output loss = ops::MeanAll(&b, Output(xent, 0));
    losses.push_back(loss);
    Result<Node*> step = async_opt.Minimize(&b, loss, {w1, bias},
                                            "train" + std::to_string(wk));
    TF_CHECK_OK(step.status());
    async_steps.push_back(step.value());
  }
  Node* init = store.BuildInitOp("init");
  TF_CHECK_OK(b.status());

  auto session =
      MasterSession::Create(graph, cluster.value().get(), session_options);
  TF_CHECK_OK(session.status());
  MasterSession* sess = session.value().get();
  TF_CHECK_OK(sess->Run({}, {}, {init->name()}, nullptr));

  data::ClusteredDataset dataset(kClasses, kFeatureDim, 31);
  std::printf("asynchronous training, %d workers (data-service input):\n",
              kWorkers);
  std::vector<std::thread> threads;
  for (int wk = 0; wk < kWorkers; ++wk) {
    threads.emplace_back([&, wk]() {
      for (int step = 0; step < 60; ++step) {
        TF_CHECK_OK(sess->Run({}, {}, {async_steps[wk]->name()}, nullptr));
      }
    });
  }
  for (auto& t : threads) t.join();
  {
    Tensor features, labels;
    dataset.Batch(kBatch, &features, &labels);
    std::vector<Tensor> out;
    TF_CHECK_OK(sess->Run({{"x0", features}, {"y0", labels}},
                          {losses[0].name()}, {}, &out));
    std::printf("  loss after async training: %.4f (chance = %.4f)\n\n",
                *out[0].data<float>(), std::log((float)kClasses));
  }

  // ------------------------------------------------------------------
  // Part 2: synchronous replication (Figure 4b) via the §4.4 queues:
  // gradient queues accumulate one contribution per worker; the chief
  // dequeues all of them, averages, applies, and releases tokens.
  // ------------------------------------------------------------------
  std::printf("synchronous training (queue-based coordination):\n");
  train::GradientDescentOptimizer sync_opt(0.1f);
  train::SyncReplicas sync(&b, &sync_opt, kWorkers, kWorkers);
  std::vector<Node*> sync_steps;
  for (int wk = 0; wk < kWorkers; ++wk) {
    GraphBuilder::DeviceScope scope(&b,
                                    "/job:worker/task:" + std::to_string(wk));
    Result<std::vector<train::GradAndVar>> grads = sync_opt.ComputeGradients(
        &b, losses[wk], {w1, bias});
    TF_CHECK_OK(grads.status());
    Result<Node*> step = sync.AddWorkerStep(grads.value());
    TF_CHECK_OK(step.status());
    sync_steps.push_back(step.value());
  }
  Result<Node*> chief = sync.BuildChiefUpdate();
  TF_CHECK_OK(chief.status());
  TF_CHECK_OK(b.status());

  auto session2 =
      MasterSession::Create(graph, cluster.value().get(), session_options);
  MasterSession* sess2 = session2.value().get();
  TF_CHECK_OK(sess2->Run({}, {}, {init->name()}, nullptr));
  TF_CHECK_OK(sess2->Run({}, {}, {sync.token_seed_op()->name()}, nullptr));

  constexpr int kSyncRounds = 30;
  std::vector<std::thread> sync_threads;
  for (int wk = 0; wk < kWorkers; ++wk) {
    sync_threads.emplace_back([&, wk]() {
      for (int step = 0; step < kSyncRounds; ++step) {
        TF_CHECK_OK(sess2->Run({}, {}, {sync_steps[wk]->name()}, nullptr));
      }
    });
  }
  sync_threads.emplace_back([&]() {
    for (int step = 0; step < kSyncRounds; ++step) {
      TF_CHECK_OK(sess2->Run({}, {}, {chief.value()->name()}, nullptr));
    }
  });
  for (auto& t : sync_threads) t.join();
  {
    Tensor features, labels;
    dataset.Batch(kBatch, &features, &labels);
    std::vector<Tensor> out;
    TF_CHECK_OK(sess2->Run({{"x0", features}, {"y0", labels}},
                           {losses[0].name()}, {}, &out));
    std::printf("  loss after %d synchronous rounds: %.4f\n", kSyncRounds,
                *out[0].data<float>());
  }

  if (!trace_prefix.empty()) {
    // One traced step of each flavour: worker 0's async training step, then
    // a synchronous round (worker steps + chief update driven together so
    // the queue coordination shows up on the timeline).
    RunOptions run_options;
    run_options.trace = true;

    RunMetadata async_meta;
    TF_CHECK_OK(sess->Run(run_options, {}, {}, {async_steps[0]->name()},
                          nullptr, &async_meta));
    std::string async_path = trace_prefix + "_async.trace.json";
    TF_CHECK_OK(async_meta.step_stats.WriteChromeTrace(async_path));
    std::printf("wrote %s (%zu node events, %zu transfers)\n",
                async_path.c_str(), async_meta.step_stats.nodes.size(),
                async_meta.step_stats.transfers.size());

    RunMetadata sync_meta;
    std::vector<std::thread> traced_workers;
    for (int wk = 0; wk < kWorkers; ++wk) {
      traced_workers.emplace_back([&, wk]() {
        TF_CHECK_OK(sess2->Run({}, {}, {sync_steps[wk]->name()}, nullptr));
      });
    }
    TF_CHECK_OK(sess2->Run(run_options, {}, {}, {chief.value()->name()},
                           nullptr, &sync_meta));
    for (auto& t : traced_workers) t.join();
    std::string sync_path = trace_prefix + "_sync.trace.json";
    TF_CHECK_OK(sync_meta.step_stats.WriteChromeTrace(sync_path));
    std::printf("wrote %s (%zu node events, %zu transfers)\n",
                sync_path.c_str(), sync_meta.step_stats.nodes.size(),
                sync_meta.step_stats.transfers.size());

    std::string metrics_path = trace_prefix + ".metrics.json";
    TF_CHECK_OK(WriteFileAtomically(
        metrics_path, metrics::Registry::Global()->Snapshot().ToJson() + "\n"));
    std::printf("wrote %s\n", metrics_path.c_str());
  }

  if (!profile_out.empty()) {
    // Both sessions sampled; merge their stores into one cluster profile.
    ProfileStore merged;
    merged.MergeFrom(*sess->profile_store());
    merged.MergeFrom(*sess2->profile_store());
    TF_CHECK_OK(merged.WriteJson(profile_out));
    std::printf("wrote %s (%lld sampled steps, %zu profiled (op,node,device) "
                "keys)\n",
                profile_out.c_str(),
                static_cast<long long>(merged.steps()),
                merged.Entries().size());
  }
  data_service.Shutdown();
  std::remove(records_path.c_str());
  std::printf("done.\n");
  return 0;
}
