// Fault-tolerance tests (paper §4.3–§4.4): injected task kills, hangs, and
// lost transfers against the distributed runtime's deadline / abort / retry
// / checkpoint-recovery machinery, the health prober's proactive detection,
// and durable master recovery.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"

#include "distributed/fault_injector.h"
#include "distributed/master.h"
#include "distributed/master_state.h"
#include "graph/ops.h"
#include "train/checkpoint_policy.h"
#include "train/optimizer.h"
#include "train/saver.h"
#include "train/sync_replicas.h"

namespace tfrepro {
namespace {

using distributed::ClusterSpec;
using distributed::FaultInjector;
using distributed::InProcessCluster;
using distributed::MasterSession;
using ops::Const;
using train::GradAndVar;

ClusterSpec PsWorkerSpec(int ps, int workers) {
  ClusterSpec spec;
  spec.jobs["ps"] = ps;
  spec.jobs["worker"] = workers;
  return spec;
}

Result<std::unique_ptr<InProcessCluster>> ClusterWithInjector(
    int ps, int workers, FaultInjector* injector) {
  InProcessCluster::Options options;
  options.fault_injector = injector;
  return InProcessCluster::Create(PsWorkerSpec(ps, workers), options);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Fresh (empty) checkpoint directory for one test.
std::string CheckpointPrefix(const std::string& test_name) {
  std::string dir = ::testing::TempDir() + "/" + test_name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir + "/model";
}

// Polls `cond` (with a final re-check) for up to `timeout_s` seconds.
bool WaitFor(const std::function<bool()>& cond, double timeout_s) {
  auto start = std::chrono::steady_clock::now();
  while (SecondsSince(start) < timeout_s) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

TEST(FaultInjectorTest, ScriptedKillHangDelayAndRestart) {
  FaultInjector injector;
  const std::string ps = "/job:ps/task:0";
  const std::string worker = "/job:worker/task:1";

  injector.KillTaskAtDispatch(ps, 2);
  EXPECT_EQ(injector.OnDispatch(ps).action, FaultInjector::Action::kProceed);
  EXPECT_EQ(injector.OnDispatch(ps).action, FaultInjector::Action::kKill);
  EXPECT_TRUE(injector.IsDown(ps));
  EXPECT_EQ(injector.kills(), 1);
  // A dead task refuses every dispatch, but that is not a new kill.
  EXPECT_EQ(injector.OnDispatch(ps).action, FaultInjector::Action::kKill);
  EXPECT_EQ(injector.kills(), 1);
  EXPECT_EQ(injector.DownTasks(), std::vector<std::string>({ps}));

  injector.MarkRestarted(ps);
  EXPECT_FALSE(injector.IsDown(ps));
  EXPECT_EQ(injector.OnDispatch(ps).action, FaultInjector::Action::kProceed);

  // Hangs are one-shot: only the scripted dispatch hangs.
  injector.HangTaskAtDispatch(worker, 1);
  EXPECT_EQ(injector.OnDispatch(worker).action,
            FaultInjector::Action::kHang);
  EXPECT_EQ(injector.OnDispatch(worker).action,
            FaultInjector::Action::kProceed);
  EXPECT_EQ(injector.hangs(), 1);

  injector.DelayTask(worker, 0.25);
  FaultInjector::Decision d = injector.OnDispatch(worker);
  EXPECT_EQ(d.action, FaultInjector::Action::kProceed);
  EXPECT_DOUBLE_EQ(d.delay_seconds, 0.25);
  injector.DelayTask(worker, 0.0);
  EXPECT_DOUBLE_EQ(injector.OnDispatch(worker).delay_seconds, 0.0);

  // Transfer drops are counted globally, 1-based.
  injector.DropNthTransfer(2);
  EXPECT_FALSE(injector.OnTransfer("a;b;t1;0"));
  EXPECT_TRUE(injector.OnTransfer("a;b;t2;0"));
  EXPECT_FALSE(injector.OnTransfer("a;b;t3;0"));
  EXPECT_EQ(injector.dropped_transfers(), 1);
}

TEST(FaultInjectorTest, SameSeedSameFailureSchedule) {
  // The acceptance bar for determinism: identical seed + identical event
  // sequence => identical decision log.
  auto replay = [](uint64_t seed) {
    FaultInjector injector(seed);
    injector.KillRandomly(0.3);
    injector.DropNthTransfer(3);
    for (int i = 0; i < 40; ++i) {
      injector.OnDispatch("/job:worker/task:" + std::to_string(i % 3));
      if (i % 4 == 0) {
        injector.OnTransfer("a;b;t" + std::to_string(i) + ";0");
      }
    }
    return injector.DecisionLog();
  };
  std::vector<std::string> log = replay(42);
  EXPECT_EQ(log, replay(42));
  // With p=0.3 over 40 dispatches the schedule is all but guaranteed to
  // contain at least one kill; an empty log would mean the seed is ignored.
  EXPECT_FALSE(log.empty());
}

TEST(FaultInjectorTest, CrossTaskKeyDetection) {
  EXPECT_TRUE(IsCrossTaskKey(
      "/job:ps/task:0/device:CPU:0;/job:worker/task:0/device:CPU:0;w:0;0"));
  EXPECT_TRUE(IsCrossTaskKey(
      "/job:worker/task:0/device:CPU:0;/job:worker/task:1/device:CPU:0;g;0"));
  EXPECT_FALSE(IsCrossTaskKey(
      "/job:ps/task:0/device:CPU:0;/job:ps/task:0/device:CPU:1;w:0;0"));
  EXPECT_FALSE(IsCrossTaskKey("not-a-key"));
}

// The headline scenario: a PS task is killed mid-training. The step aborts
// with a retryable error, the master restarts the task, re-registers its
// subgraphs, restores the last checkpoint, and retries — and because SGD
// here is deterministic, training lands on exactly the value an
// uninterrupted run produces.
TEST(FaultToleranceTest, KilledPsTaskRecoversFromCheckpointAndResumes) {
  FaultInjector injector;
  auto cluster = ClusterWithInjector(1, 1, &injector);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  Graph g;
  GraphBuilder b(&g);
  Output w;
  Output init;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    w = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "w");
    init = ops::Assign(&b, w, Const(&b, Tensor::Vec<float>({4, -4})));
  }
  Output loss;
  Result<Node*> train_op = Internal("unset");
  train::GradientDescentOptimizer opt(0.25f);
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    loss = ops::SumAll(&b, ops::Square(&b, w));
    train_op = opt.Minimize(&b, loss, {w}, "train");
  }
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  train::Saver saver(&b, {w});
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.max_step_retries = 3;
  options.restart_failed_tasks = true;
  options.retry_backoff_initial_seconds = 1e-4;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok()) << session.status();
  MasterSession* sess = session.value().get();

  train::CheckpointPolicy policy(&saver, CheckpointPrefix("ft_ps_kill"),
                                 /*save_every_n_steps=*/1);
  sess->set_recovery_handler([&] { return policy.Recover(sess); });

  TF_CHECK_OK(sess->Run({}, {}, {init.node->name()}, nullptr));
  constexpr int kSteps = 30;
  constexpr int kKillBeforeStep = 11;
  for (int step = 1; step <= kSteps; ++step) {
    if (step == kKillBeforeStep) {
      // Kill the PS on its next dispatch — i.e. during this train step.
      injector.KillTaskAtDispatch("/job:ps/task:0",
                                  injector.dispatches("/job:ps/task:0") + 1);
    }
    TF_CHECK_OK(sess->Run({}, {}, {train_op.value()->name()}, nullptr));
    TF_CHECK_OK(policy.AfterStep(sess, step));
  }

  EXPECT_EQ(injector.kills(), 1);
  MasterSession::RunStats stats = sess->stats();
  EXPECT_GE(stats.retries, 1);
  EXPECT_EQ(stats.restarts, 1);
  EXPECT_GE(stats.reregistrations, 1);
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_GE(stats.aborts_fanned_out, 1);
  EXPECT_EQ(policy.recoveries(), 1);
  // The failure hit after step 10's checkpoint; recovery restored it.
  EXPECT_EQ(policy.last_restored_step(), kKillBeforeStep - 1);

  // w halves each step (lr 0.25 on sum(w^2)), all in exact powers of two,
  // so the recovered trajectory must equal the uninterrupted one exactly.
  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({loss.name()}, &out));
  const float expected = 2.0f * std::ldexp(4.0f, -kSteps) *
                         std::ldexp(4.0f, -kSteps);
  EXPECT_EQ(*out[0].data<float>(), expected);
}

// Without restart_failed_tasks, a kill surfaces as Unavailable even when
// retries are allowed — the master refuses to retry into a dead task.
TEST(FaultToleranceTest, KillWithoutRestartSurfacesUnavailable) {
  FaultInjector injector;
  auto cluster = ClusterWithInjector(1, 1, &injector);
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output on_ps;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    on_ps = ops::Mul(&b, Const(&b, 6.0f), Const(&b, 7.0f));
  }
  Output on_worker;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    on_worker = ops::Add(&b, on_ps, Const(&b, 0.5f));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.max_step_retries = 2;
  options.retry_backoff_initial_seconds = 1e-4;
  // Constant folding would evaluate this all-const graph at compile time
  // and the ps task would never see the dispatch this test kills.
  options.optimizer.enable = false;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok());

  injector.KillTaskAtDispatch("/job:ps/task:0", 1);
  std::vector<Tensor> out;
  Status s = session.value()->Run({on_worker.name()}, &out);
  EXPECT_TRUE(s.IsUnavailable()) << s;

  // After an explicit restart the same session works again.
  TF_CHECK_OK(cluster.value()->RestartTask("ps", 0));
  TF_CHECK_OK(session.value()->Run({on_worker.name()}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 42.5f);
}

// A hung task never answers its dispatch: only the step deadline can
// unblock the master. The step must fail with DeadlineExceeded promptly
// instead of deadlocking, and the session must stay usable.
TEST(FaultToleranceTest, HungTaskTripsDeadlineInsteadOfDeadlocking) {
  FaultInjector injector;
  auto cluster = ClusterWithInjector(1, 1, &injector);
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output on_ps;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    on_ps = ops::Mul(&b, Const(&b, 6.0f), Const(&b, 7.0f));
  }
  Output on_worker;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    on_worker = ops::Add(&b, on_ps, Const(&b, 0.5f));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.step_deadline_seconds = 0.3;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok());

  injector.HangTaskAtDispatch("/job:worker/task:0", 1);
  auto start = std::chrono::steady_clock::now();
  std::vector<Tensor> out;
  Status s = session.value()->Run({on_worker.name()}, &out);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s;
  EXPECT_LT(SecondsSince(start), 10.0);
  EXPECT_EQ(injector.hangs(), 1);
  EXPECT_EQ(session.value()->stats().deadline_expirations, 1);

  // The hang was one-shot; a fresh step completes normally.
  TF_CHECK_OK(session.value()->Run({on_worker.name()}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 42.5f);
}

// DeadlineExceeded is retryable: with retries configured, a one-shot hang
// is absorbed and Run succeeds.
TEST(FaultToleranceTest, DeadlineRetryAbsorbsHungStep) {
  FaultInjector injector;
  auto cluster = ClusterWithInjector(1, 1, &injector);
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output on_ps;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    on_ps = ops::Mul(&b, Const(&b, 2.0f), Const(&b, 3.0f));
  }
  Output on_worker;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    on_worker = ops::Add(&b, on_ps, Const(&b, 1.0f));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.step_deadline_seconds = 0.2;
  options.max_step_retries = 2;
  options.retry_backoff_initial_seconds = 1e-4;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok());

  injector.HangTaskAtDispatch("/job:worker/task:0", 1);
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({on_worker.name()}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 7.0f);
  MasterSession::RunStats stats = session.value()->stats();
  EXPECT_EQ(stats.deadline_expirations, 1);
  EXPECT_EQ(stats.retries, 1);
}

// A lost cross-task transfer leaves the receiving Recv blocked forever;
// the deadline detects it and the retry re-sends.
TEST(FaultToleranceTest, DroppedTransferTripsDeadlineThenRetrySucceeds) {
  FaultInjector injector;
  auto cluster = ClusterWithInjector(1, 1, &injector);
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output v;
  Output init;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    v = ops::Variable(&b, DataType::kFloat, TensorShape(), "v");
    init = ops::Assign(&b, v, Const(&b, 42.0f));
  }
  Output y;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    y = ops::Add(&b, v, Const(&b, 0.5f));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.step_deadline_seconds = 0.2;
  options.max_step_retries = 2;
  options.retry_backoff_initial_seconds = 1e-4;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok());

  // Init runs entirely on the PS: no cross-task transfer. The first
  // transfer is v's trip to the worker in the fetch step — drop it.
  TF_CHECK_OK(session.value()->Run({}, {}, {init.node->name()}, nullptr));
  injector.DropNthTransfer(1);

  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({y.name()}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 42.5f);
  EXPECT_EQ(injector.dropped_transfers(), 1);
  MasterSession::RunStats stats = session.value()->stats();
  EXPECT_GE(stats.deadline_expirations, 1);
  EXPECT_GE(stats.retries, 1);
}

// §4.4 Figure 4c: n=4 workers, m=3 required. One worker is killed before
// its step; the other three contribute and the chief update completes —
// losing up to n-m workers cannot stall a synchronous step.
TEST(FaultToleranceTest, BackupWorkersAbsorbKilledWorker) {
  constexpr int kWorkers = 4;
  constexpr int kRequired = 3;
  FaultInjector injector;
  auto cluster = ClusterWithInjector(1, kWorkers, &injector);
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output w;
  Output init;
  train::GradientDescentOptimizer opt(1.0f);
  std::unique_ptr<train::SyncReplicas> sync;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    w = ops::Variable(&b, DataType::kFloat, TensorShape(), "w");
    init = ops::Assign(&b, w, Const(&b, 6.0f));
    // Queues (gradient + token) land on the PS: the coordination device.
    sync = std::make_unique<train::SyncReplicas>(&b, &opt, kWorkers,
                                                 kRequired);
  }
  EXPECT_EQ(sync->num_workers(), kWorkers);
  EXPECT_EQ(sync->num_required(), kRequired);

  std::vector<Node*> worker_steps;
  for (int i = 0; i < kWorkers; ++i) {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:" +
                                            std::to_string(i));
    std::vector<GradAndVar> gvs = {GradAndVar{Const(&b, 2.0f), w}};
    Result<Node*> step = sync->AddWorkerStep(gvs);
    ASSERT_TRUE(step.ok()) << step.status();
    worker_steps.push_back(step.value());
  }
  Result<Node*> chief = Internal("unset");
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    chief = sync->BuildChiefUpdate();
  }
  ASSERT_TRUE(chief.ok()) << chief.status();
  ASSERT_TRUE(b.ok()) << b.status();

  auto session = MasterSession::Create(g, cluster.value().get());
  ASSERT_TRUE(session.ok()) << session.status();
  MasterSession* sess = session.value().get();
  TF_CHECK_OK(sess->Run({}, {}, {init.node->name()}, nullptr));
  TF_CHECK_OK(sess->Run({}, {}, {sync->token_seed_op()->name()}, nullptr));

  // Worker 3 dies on its first (and only) step dispatch.
  injector.KillTaskAtDispatch("/job:worker/task:3", 1);

  std::vector<Status> statuses(kWorkers, Status::OK());
  std::vector<std::thread> threads;
  for (int i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&, i]() {
      statuses[i] = sess->Run({}, {}, {worker_steps[i]->name()}, nullptr);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kWorkers - 1; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << i << ": " << statuses[i];
  }
  EXPECT_FALSE(statuses[kWorkers - 1].ok());
  EXPECT_TRUE(statuses[kWorkers - 1].IsRetryable())
      << statuses[kWorkers - 1];

  // The chief needs only the first m=3 gradient sets, all present.
  TF_CHECK_OK(sess->Run({}, {}, {chief.value()->name()}, nullptr));
  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({w.name()}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 4.0f);  // 6 - mean(2,2,2) * 1.0
}

// A straggler delayed below the deadline slows the step but does not fail
// it (the §4.4 backup-worker motivation, at the dispatch level).
TEST(FaultToleranceTest, DelayedTaskSlowsButCompletesStep) {
  FaultInjector injector;
  auto cluster = ClusterWithInjector(1, 1, &injector);
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output on_ps;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    on_ps = ops::Mul(&b, Const(&b, 6.0f), Const(&b, 7.0f));
  }
  Output on_worker;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    on_worker = ops::Add(&b, on_ps, Const(&b, 0.5f));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.step_deadline_seconds = 5.0;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok());

  injector.DelayTask("/job:worker/task:0", 0.15);
  auto start = std::chrono::steady_clock::now();
  std::vector<Tensor> out;
  TF_CHECK_OK(session.value()->Run({on_worker.name()}, &out));
  EXPECT_GE(SecondsSince(start), 0.14);
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 42.5f);
  EXPECT_EQ(session.value()->stats().deadline_expirations, 0);
}

// Probe decisions use their own counters: scripted Nth-dispatch faults must
// not be perturbed by background probe traffic, and probe hangs are
// scripted against the probe sequence.
TEST(FaultInjectorTest, ProbeDecisionsSeparateFromDispatches) {
  FaultInjector injector;
  const std::string ps = "/job:ps/task:0";

  EXPECT_EQ(injector.OnProbe(ps).action, FaultInjector::Action::kProceed);
  EXPECT_EQ(injector.probes(ps), 1);
  EXPECT_EQ(injector.dispatches(ps), 0);

  injector.HangProbeAt(ps, injector.probes(ps) + 1);
  EXPECT_EQ(injector.OnProbe(ps).action, FaultInjector::Action::kHang);
  EXPECT_EQ(injector.OnProbe(ps).action, FaultInjector::Action::kProceed);

  // An idle kill (no dispatch involved) downs the task; probes then refuse.
  injector.KillTaskNow(ps);
  EXPECT_TRUE(injector.IsDown(ps));
  EXPECT_EQ(injector.kills(), 1);
  injector.KillTaskNow(ps);  // idempotent
  EXPECT_EQ(injector.kills(), 1);
  EXPECT_EQ(injector.OnProbe(ps).action, FaultInjector::Action::kKill);
  injector.MarkRestarted(ps);
  EXPECT_EQ(injector.OnProbe(ps).action, FaultInjector::Action::kProceed);
}

// The §4.3 acceptance scenario for proactive liveness monitoring: a worker
// is killed while the cluster is idle. The prober detects it within
// K * interval, restarts it, re-registers its subgraphs, and runs the
// recovery handler — all before the client's next Run, which therefore
// succeeds on its first attempt (no in-step retry).
TEST(HealthProberTest, IdleKilledWorkerRestartedBeforeNextRun) {
  FaultInjector injector;
  auto cluster = ClusterWithInjector(1, 1, &injector);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  Graph g;
  GraphBuilder b(&g);
  Output w;
  Output init;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    w = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "w");
    init = ops::Assign(&b, w, Const(&b, Tensor::Vec<float>({4, -4})));
  }
  Output loss;
  Result<Node*> train_op = Internal("unset");
  train::GradientDescentOptimizer opt(0.25f);
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    loss = ops::SumAll(&b, ops::Square(&b, w));
    train_op = opt.Minimize(&b, loss, {w}, "train");
  }
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  train::Saver saver(&b, {w});
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.max_step_retries = 3;
  options.restart_failed_tasks = true;
  options.retry_backoff_initial_seconds = 1e-4;
  options.health_probe_interval_seconds = 0.02;
  options.health_probe_miss_threshold = 3;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok()) << session.status();
  MasterSession* sess = session.value().get();

  train::CheckpointPolicy policy(&saver, CheckpointPrefix("ft_idle_kill"),
                                 /*save_every_n_steps=*/1);
  sess->set_recovery_handler([&] { return policy.Recover(sess); });

  TF_CHECK_OK(sess->Run({}, {}, {init.node->name()}, nullptr));
  constexpr int kSteps = 20;
  constexpr int kKillAfterStep = 10;
  for (int step = 1; step <= kKillAfterStep; ++step) {
    TF_CHECK_OK(sess->Run({}, {}, {train_op.value()->name()}, nullptr));
    TF_CHECK_OK(policy.AfterStep(sess, step));
  }

  // Kill the worker while no step is in flight. No Run happens until the
  // prober has noticed on its own.
  injector.KillTaskNow("/job:worker/task:0");
  ASSERT_TRUE(WaitFor([&] { return sess->stats().prober_restarts >= 1; },
                      /*timeout_s=*/10.0))
      << "prober never restarted the killed worker";

  for (int step = kKillAfterStep + 1; step <= kSteps; ++step) {
    TF_CHECK_OK(sess->Run({}, {}, {train_op.value()->name()}, nullptr));
    TF_CHECK_OK(policy.AfterStep(sess, step));
  }

  MasterSession::RunStats stats = sess->stats();
  // The failure was handled entirely between steps: every Run (including
  // the first one after the kill) succeeded on its first attempt.
  EXPECT_EQ(stats.retries, 0);
  EXPECT_GE(stats.prober_restarts, 1);
  EXPECT_GE(stats.restarts, 1);
  EXPECT_GE(stats.reregistrations, 1);
  EXPECT_GE(stats.recoveries, 1);
  EXPECT_GE(policy.recoveries(), 1);

  // The prober's view: at least K missed probes before the verdict, and a
  // dead-marking for the worker.
  metrics::Registry* reg = metrics::Registry::Global();
  const metrics::TagMap tags{{"session", sess->session_prefix()},
                             {"task", "/job:worker/task:0"}};
  EXPECT_GE(reg->GetCounter("health.probe_miss", tags)->value(), 3);
  EXPECT_GE(reg->GetCounter("health.probe_dead_marked", tags)->value(), 1);

  // Deterministic SGD: the recovered trajectory equals the uninterrupted
  // one exactly (w halves each step, all powers of two).
  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({loss.name()}, &out));
  const float expected = 2.0f * std::ldexp(4.0f, -kSteps) *
                         std::ldexp(4.0f, -kSteps);
  EXPECT_EQ(*out[0].data<float>(), expected);
}

// Regression: a hung probe parks its callback forever, so the prober's own
// per-probe timeout is the only exit. Two hung probes (below the K=3
// threshold, then a success) must neither pin the prober thread — probes
// to the other task keep landing throughout — nor falsely mark the hung
// task dead.
TEST(HealthProberTest, HungProbeTimesOutWithoutFalseDeadMark) {
  FaultInjector injector;
  auto cluster = ClusterWithInjector(1, 1, &injector);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  Graph g;
  GraphBuilder b(&g);
  Output on_ps;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    on_ps = ops::Mul(&b, Const(&b, 6.0f), Const(&b, 7.0f));
  }
  Output on_worker;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    on_worker = ops::Add(&b, on_ps, Const(&b, 0.5f));
  }
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.restart_failed_tasks = true;
  options.health_probe_interval_seconds = 0.02;
  options.health_probe_miss_threshold = 3;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok()) << session.status();
  MasterSession* sess = session.value().get();

  const std::string ps = "/job:ps/task:0";
  injector.HangProbeAt(ps, injector.probes(ps) + 1);
  injector.HangProbeAt(ps, injector.probes(ps) + 2);

  // While the PS probes are parked, worker probes must keep succeeding —
  // the prober thread is not pinned behind the hung callbacks.
  metrics::Registry* reg = metrics::Registry::Global();
  metrics::Counter* worker_ok = reg->GetCounter(
      "health.probe_ok",
      {{"session", sess->session_prefix()}, {"task", "/job:worker/task:0"}});
  const int64_t ok_before = worker_ok->value();
  ASSERT_TRUE(WaitFor([&] { return worker_ok->value() >= ok_before + 5; },
                      /*timeout_s=*/10.0))
      << "prober thread appears pinned by the hung probe";

  // Two misses stayed below the threshold and a later probe succeeded, so
  // the PS was never marked dead, let alone restarted.
  metrics::Counter* ps_dead = reg->GetCounter(
      "health.probe_dead_marked",
      {{"session", sess->session_prefix()}, {"task", ps}});
  EXPECT_EQ(ps_dead->value(), 0);
  EXPECT_EQ(sess->stats().prober_restarts, 0);
  EXPECT_EQ(sess->stats().restarts, 0);

  // The session is fully usable.
  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({on_worker.name()}, &out));
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 42.5f);
  EXPECT_EQ(sess->stats().retries, 0);
}

// §4.3 durable master recovery: the master process dies between steps; a
// new MasterSession created against the same cluster from the same state
// log adopts the previous incarnation's identity (prefix, handles, step
// watermark, last checkpoint), re-adopts the registrations still alive on
// the workers, auto-restores the checkpoint as soon as the recovery
// handler is installed, and resumes training with no client replay and no
// in-step retries.
TEST(FaultToleranceTest, RestartedMasterResumesFromDurableState) {
  FaultInjector injector;
  auto cluster = ClusterWithInjector(1, 1, &injector);
  ASSERT_TRUE(cluster.ok()) << cluster.status();

  Graph g;
  GraphBuilder b(&g);
  Output w;
  Output init;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    w = ops::Variable(&b, DataType::kFloat, TensorShape({2}), "w");
    init = ops::Assign(&b, w, Const(&b, Tensor::Vec<float>({4, -4})));
  }
  Output loss;
  Result<Node*> train_op = Internal("unset");
  train::GradientDescentOptimizer opt(0.25f);
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    loss = ops::SumAll(&b, ops::Square(&b, w));
    train_op = opt.Minimize(&b, loss, {w}, "train");
  }
  ASSERT_TRUE(train_op.ok()) << train_op.status();
  train::Saver saver(&b, {w});
  ASSERT_TRUE(b.ok()) << b.status();

  const std::string ckpt_prefix = CheckpointPrefix("ft_master_restart");
  const std::string state_path =
      std::filesystem::path(ckpt_prefix).parent_path() / "master.state";

  MasterSession::Options options;
  options.max_step_retries = 3;
  options.restart_failed_tasks = true;
  options.retry_backoff_initial_seconds = 1e-4;
  options.state_path = state_path;

  constexpr int kSteps = 24;
  constexpr int kDieAfterStep = 12;

  // --- First incarnation: train halfway, then "die" (destruction). ---
  {
    auto session = MasterSession::Create(g, cluster.value().get(), options);
    ASSERT_TRUE(session.ok()) << session.status();
    MasterSession* sess = session.value().get();
    train::CheckpointPolicy policy(&saver, ckpt_prefix,
                                   /*save_every_n_steps=*/1);
    sess->set_recovery_handler([&] { return policy.Recover(sess); });

    TF_CHECK_OK(sess->Run({}, {}, {init.node->name()}, nullptr));
    for (int step = 1; step <= kDieAfterStep; ++step) {
      TF_CHECK_OK(sess->Run({}, {}, {train_op.value()->name()}, nullptr));
      TF_CHECK_OK(policy.AfterStep(sess, step));
    }
    EXPECT_EQ(sess->last_checkpoint_step(), kDieAfterStep);
  }

  // --- Second incarnation: same state log, same (surviving) cluster. ---
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok()) << session.status();
  MasterSession* sess = session.value().get();

  // Durable state restored the checkpoint knowledge and the compiled-step
  // cache; the workers' live registrations were re-adopted, not rebuilt.
  EXPECT_EQ(sess->last_checkpoint_step(), kDieAfterStep);
  MasterSession::RunStats stats = sess->stats();
  EXPECT_GE(stats.state_recompiles, 2);  // at least init + train signatures
  EXPECT_GE(stats.partition_reuses, 1);

  // Installing the recovery handler triggers the auto-restore: no client
  // code asked for recovery explicitly.
  train::CheckpointPolicy policy(&saver, ckpt_prefix,
                                 /*save_every_n_steps=*/1);
  sess->set_recovery_handler([&] { return policy.Recover(sess); });
  EXPECT_EQ(policy.recoveries(), 1);
  EXPECT_EQ(policy.last_restored_step(), kDieAfterStep);

  for (int step = kDieAfterStep + 1; step <= kSteps; ++step) {
    TF_CHECK_OK(sess->Run({}, {}, {train_op.value()->name()}, nullptr));
    TF_CHECK_OK(policy.AfterStep(sess, step));
  }

  // The resumed trajectory is exactly the uninterrupted one.
  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({loss.name()}, &out));
  const float expected = 2.0f * std::ldexp(4.0f, -kSteps) *
                         std::ldexp(4.0f, -kSteps);
  EXPECT_EQ(*out[0].data<float>(), expected);
  EXPECT_EQ(sess->stats().retries, 0);
  EXPECT_EQ(sess->last_checkpoint_step(), kSteps);
}

TEST(MasterStateLogTest, RotationKeepsLogBoundedAndRecoverable) {
  const std::string path =
      CheckpointPrefix("statelog_rotation") + "/state.log";
  constexpr int64_t kRotateBytes = 512;

  auto log = distributed::MasterStateLog::Open(path, "sess-7", kRotateBytes);
  ASSERT_TRUE(log.ok()) << log.status();

  distributed::CompiledSignature sig;
  sig.handle = "sess-7/step/0";
  sig.feeds = {"x"};
  sig.fetches = {"loss:0"};
  sig.targets = {"train"};
  TF_CHECK_OK(log.value()->AppendCompiled(sig));
  TF_CHECK_OK(log.value()->AppendCheckpoint("/ckpt/model", 480));

  const int64_t rotations_before = metrics::Registry::Global()
                                       ->GetCounter("master.statelog_rotations")
                                       ->value();
  // ~900 step records at ~9 bytes each: several rotations' worth of
  // history through a 512-byte cap.
  for (int64_t step = 1; step <= 900; ++step) {
    TF_CHECK_OK(log.value()->AppendStep(step));
  }
  // The file stays bounded: at most the cap plus one compact rewrite.
  EXPECT_LT(log.value()->size_bytes(), 2 * kRotateBytes);
  EXPECT_GT(metrics::Registry::Global()
                ->GetCounter("master.statelog_rotations")
                ->value(),
            rotations_before);

  // Recovery over the rotated log sees the full logical history.
  Result<distributed::MasterState> state =
      distributed::LoadMasterState(path);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state.value().session_prefix, "sess-7");
  EXPECT_EQ(state.value().step_watermark, 900);
  ASSERT_EQ(state.value().compiled.size(), 1u);
  EXPECT_EQ(state.value().compiled[0].handle, "sess-7/step/0");
  EXPECT_EQ(state.value().compiled[0].feeds, std::vector<std::string>{"x"});
  EXPECT_EQ(state.value().compiled[0].fetches,
            std::vector<std::string>{"loss:0"});
  EXPECT_EQ(state.value().checkpoint_prefix, "/ckpt/model");
  EXPECT_EQ(state.value().checkpoint_step, 480);
}

TEST(MasterStateLogTest, ReopenedLogRotatesWithoutLosingOldRecords) {
  const std::string path = CheckpointPrefix("statelog_reopen") + "/state.log";
  constexpr int64_t kRotateBytes = 256;

  {
    auto log =
        distributed::MasterStateLog::Open(path, "sess-a", kRotateBytes);
    ASSERT_TRUE(log.ok()) << log.status();
    distributed::CompiledSignature sig;
    sig.handle = "sess-a/step/0";
    sig.fetches = {"y:0"};
    TF_CHECK_OK(log.value()->AppendCompiled(sig));
    TF_CHECK_OK(log.value()->AppendStep(10));
  }  // master dies; log closed mid-history

  // A new incarnation continues the log; its rotations must preserve the
  // records written before it was born (the seeded mirror).
  auto log = distributed::MasterStateLog::Open(path, "ignored", kRotateBytes);
  ASSERT_TRUE(log.ok()) << log.status();
  for (int64_t step = 11; step <= 200; ++step) {
    TF_CHECK_OK(log.value()->AppendStep(step));
  }
  EXPECT_LT(log.value()->size_bytes(), 2 * kRotateBytes);

  Result<distributed::MasterState> state =
      distributed::LoadMasterState(path);
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state.value().session_prefix, "sess-a");
  EXPECT_EQ(state.value().step_watermark, 200);
  ASSERT_EQ(state.value().compiled.size(), 1u);
  EXPECT_EQ(state.value().compiled[0].handle, "sess-a/step/0");
}

}  // namespace
}  // namespace tfrepro
