// Chaos over the socket transport (§4.3, DESIGN.md §11): every task is a
// real worker_main process, and the faults are real SIGKILLs delivered by
// ProcessCluster::KillTaskProcess — no injector scripting, no cooperation
// from the victim. The master must notice a genuinely dead peer (failed
// dispatch, reset connection, or missed probes), respawn the process,
// re-register its subgraphs, and restore from the last checkpoint.
//
// Invariants, mirroring chaos_test.cc:
//   * every training step eventually succeeds despite kills landing
//     before and during steps;
//   * exactly-once commit: the per-step counter equals N — a retried step
//     first restores the last checkpoint, so aborted attempts never
//     compound;
//   * the trajectory matches the fault-free reference bit-exactly
//     (power-of-two SGD);
//   * an idle-time kill is caught by the health prober, which restarts the
//     process proactively (master.prober_restarts advances);
//   * the master process leaks no rendezvous state once torn down;
//   * a worker binary that dies during startup fails the spawn at once;
//   * a worker whose master goes away exits on its own.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "distributed/master.h"
#include "distributed/rpc/process_cluster.h"
#include "graph/ops.h"
#include "train/checkpoint_policy.h"
#include "train/optimizer.h"
#include "train/saver.h"

namespace tfrepro {
namespace {

using distributed::ClusterSpec;
using distributed::MasterSession;
using distributed::rpc::ProcessCluster;
using ops::Const;

constexpr int kSteps = 12;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool WaitFor(const std::function<bool()>& cond, double timeout_s) {
  auto start = std::chrono::steady_clock::now();
  while (SecondsSince(start) < timeout_s) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

// The training fixture shared by both scenarios: w/c/r variables on the ps
// task, SGD on worker:0, read-only payload on worker:1 — the same graph as
// chaos_test.cc so the two transports are checked against one reference.
struct ChaosRig {
  Graph g;
  std::unique_ptr<GraphBuilder> b;
  Output w, c, r, loss;
  Node* init = nullptr;
  Node* bump = nullptr;
  Node* aux_target = nullptr;
  Result<Node*> train_op = Internal("unset");
  train::GradientDescentOptimizer opt{0.25f};
  std::unique_ptr<train::Saver> saver;

  void Build() {
    b = std::make_unique<GraphBuilder>(&g);
    {
      GraphBuilder::DeviceScope scope(b.get(), "/job:ps/task:0");
      w = ops::Variable(b.get(), DataType::kFloat, TensorShape({2}), "w");
      c = ops::Variable(b.get(), DataType::kFloat, TensorShape(), "c");
      r = ops::Variable(b.get(), DataType::kFloat, TensorShape({2}), "r");
      init = ops::Group(
          b.get(),
          {ops::Assign(b.get(), w, Const(b.get(), Tensor::Vec<float>({4, -4}))),
           ops::Assign(b.get(), c, Const(b.get(), 0.0f)),
           ops::Assign(b.get(), r,
                       Const(b.get(), Tensor::Vec<float>({1, 2})))},
          "init");
      bump = ops::Group(
          b.get(), {ops::AssignAdd(b.get(), c, Const(b.get(), 1.0f))}, "bump");
    }
    {
      GraphBuilder::DeviceScope scope(b.get(), "/job:worker/task:0");
      loss = ops::SumAll(b.get(), ops::Square(b.get(), w));
      train_op = opt.Minimize(b.get(), loss, {w}, "train");
    }
    ASSERT_TRUE(train_op.ok()) << train_op.status();
    Output aux;
    {
      GraphBuilder::DeviceScope scope(b.get(), "/job:worker/task:1");
      aux = ops::SumAll(b.get(), ops::Square(b.get(), r));
    }
    aux_target = ops::Group(b.get(), {aux}, "aux");
    saver = std::make_unique<train::Saver>(b.get(),
                                           std::vector<Output>{w, c, r});
    ASSERT_TRUE(b->ok()) << b->status();
  }
};

Result<std::unique_ptr<ProcessCluster>> MakeCluster() {
  ClusterSpec spec;
  spec.jobs["ps"] = 1;
  spec.jobs["worker"] = 2;
  spec.transport = "socket";
  ProcessCluster::Options copts;
  return ProcessCluster::Create(spec, copts);
}

MasterSession::Options ChaosOptions() {
  MasterSession::Options options;
  // Real processes are slower than function calls; the deadline still has
  // to fire well inside the test timeout when a dispatch target dies at
  // the worst moment.
  options.step_deadline_seconds = 2.0;
  options.max_step_retries = 8;
  options.restart_failed_tasks = true;
  options.retry_backoff_initial_seconds = 1e-3;
  options.health_probe_interval_seconds = 0.05;
  options.health_probe_miss_threshold = 3;
  return options;
}

// SIGKILLs land on live worker processes before step 3 and in the middle
// of step 7 (from a side thread, racing the in-flight dispatch). Either
// way the master must absorb it: failed dispatch or missed probe, respawn,
// re-register, restore checkpoint, retry — and the final counter and loss
// must be exactly what a fault-free run produces.
TEST(SocketChaosTest, SigkillMidTrainingRecoversExactlyOnce) {
  {
    auto cluster_or = MakeCluster();
    ASSERT_TRUE(cluster_or.ok()) << cluster_or.status();
    ProcessCluster* cluster = cluster_or.value().get();

    ChaosRig rig;
    rig.Build();
    if (::testing::Test::HasFatalFailure()) return;

    auto session =
        MasterSession::Create(rig.g, cluster, ChaosOptions());
    ASSERT_TRUE(session.ok()) << session.status();
    MasterSession* sess = session.value().get();

    const std::string dir = ::testing::TempDir() + "/socket_chaos_kill";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    train::CheckpointPolicy policy(rig.saver.get(), dir + "/model",
                                   /*save_every_n_steps=*/1);
    sess->set_recovery_handler([&] { return policy.Recover(sess); });

    TF_CHECK_OK(sess->Run({}, {}, {rig.init->name()}, nullptr));
    TF_CHECK_OK(policy.AfterStep(sess, 0));

    const std::vector<std::string> step_targets = {
        rig.train_op.value()->name(), rig.bump->name(),
        rig.aux_target->name()};
    int kills_delivered = 0;
    for (int step = 1; step <= kSteps; ++step) {
      std::thread killer;
      if (step == 3) {
        // Dead before the step starts: the first dispatch hits a reset
        // connection (or the prober gets there first).
        Status k = cluster->KillTaskProcess("worker", 1);
        if (k.ok()) ++kills_delivered;
      } else if (step == 7) {
        // Dead mid-step: the kill races the in-flight RunGraph.
        killer = std::thread([&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          Status k = cluster->KillTaskProcess("worker", 0);
          if (k.ok()) ++kills_delivered;
        });
      }
      Status s = sess->Run({}, {}, step_targets, nullptr);
      if (killer.joinable()) killer.join();
      ASSERT_TRUE(s.ok()) << "step " << step << ": " << s;
      Status saved = policy.AfterStep(sess, step);
      ASSERT_TRUE(saved.ok()) << "checkpoint after step " << step << ": "
                              << saved;
    }
    // Both kills must have found a live process — otherwise the test
    // exercised nothing.
    EXPECT_EQ(kills_delivered, 2);
    // Each killed process was respawned by the master (retry path or
    // prober, whichever noticed first).
    EXPECT_GE(sess->stats().restarts, 2);
    EXPECT_GE(sess->stats().recoveries, 2);

    // Exactly-once: the counter saw each step once despite the retries.
    std::vector<Tensor> out;
    TF_CHECK_OK(sess->Run({rig.c.name(), rig.loss.name()}, &out));
    EXPECT_EQ(*out[0].data<float>(), float(kSteps));
    const float expected =
        2.0f * std::ldexp(4.0f, -kSteps) * std::ldexp(4.0f, -kSteps);
    EXPECT_EQ(*out[1].data<float>(), expected);

    // Killing sockets mid-conversation must have forced redials.
    EXPECT_GT(
        metrics::Registry::Global()->GetCounter("rpc.reconnects")->value(),
        0);
  }
  // Session and cluster are gone; no rendezvous state may stay behind in
  // the master process.
  metrics::Registry* reg = metrics::Registry::Global();
  EXPECT_TRUE(WaitFor(
      [&] { return reg->GetGauge("rendezvous.live_items")->value() == 0; },
      5.0))
      << "leaked rendezvous items: "
      << reg->GetGauge("rendezvous.live_items")->value();
  EXPECT_TRUE(WaitFor(
      [&] { return reg->GetGauge("rendezvous.live_waiters")->value() == 0; },
      5.0))
      << "leaked rendezvous waiters: "
      << reg->GetGauge("rendezvous.live_waiters")->value();
}

// A kill while no step is in flight is invisible to dispatch — only the
// health prober can see it. It must miss K probes, restart the process,
// re-register, run recovery, and the next step must succeed first try.
TEST(SocketChaosTest, IdleKillCaughtByProber) {
  auto cluster_or = MakeCluster();
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status();
  ProcessCluster* cluster = cluster_or.value().get();

  ChaosRig rig;
  rig.Build();
  if (::testing::Test::HasFatalFailure()) return;

  auto session = MasterSession::Create(rig.g, cluster, ChaosOptions());
  ASSERT_TRUE(session.ok()) << session.status();
  MasterSession* sess = session.value().get();

  const std::string dir = ::testing::TempDir() + "/socket_chaos_idle";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  train::CheckpointPolicy policy(rig.saver.get(), dir + "/model",
                                 /*save_every_n_steps=*/1);
  sess->set_recovery_handler([&] { return policy.Recover(sess); });

  TF_CHECK_OK(sess->Run({}, {}, {rig.init->name()}, nullptr));
  TF_CHECK_OK(policy.AfterStep(sess, 0));

  const std::vector<std::string> step_targets = {
      rig.train_op.value()->name(), rig.bump->name(), rig.aux_target->name()};
  TF_CHECK_OK(sess->Run({}, {}, step_targets, nullptr));
  TF_CHECK_OK(policy.AfterStep(sess, 1));

  // Kill between steps. Nothing is dispatching, so only the prober (50ms
  // interval, 3 misses) can notice.
  TF_CHECK_OK(cluster->KillTaskProcess("worker", 1));
  EXPECT_TRUE(WaitFor([&] { return sess->stats().prober_restarts >= 1; },
                      10.0))
      << "prober never restarted the killed worker; stats.restarts="
      << sess->stats().restarts;

  // The proactive restart already re-registered and recovered, so this
  // step should not need the retry path at all — but all that matters
  // here is that it succeeds and commits exactly once.
  TF_CHECK_OK(sess->Run({}, {}, step_targets, nullptr));
  TF_CHECK_OK(policy.AfterStep(sess, 2));

  std::vector<Tensor> out;
  TF_CHECK_OK(sess->Run({rig.c.name()}, &out));
  EXPECT_EQ(*out[0].data<float>(), 2.0f);
}

// A kill that lands while a RunGraph is in flight: the dead connection's
// reader thread fails the call, and the step abort fanned out from that
// failure runs on the same thread. Fanning out must not reap (join) the
// reader it runs on; the master must survive, return a retryable error,
// and serve the next step once the task is restarted.
TEST(SocketChaosTest, KillDuringInFlightRunGraphIsRetryable) {
  ClusterSpec spec;
  spec.jobs["ps"] = 1;
  spec.jobs["worker"] = 1;
  spec.transport = "socket";
  auto cluster_or = ProcessCluster::Create(spec, ProcessCluster::Options());
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status();
  ProcessCluster* cluster = cluster_or.value().get();

  // Each task blocks in a dequeue from an empty queue, so the step is
  // still in flight on both when the kill lands.
  Graph g;
  GraphBuilder b(&g);
  std::vector<Node*> blocked;
  for (const char* task : {"/job:ps/task:0", "/job:worker/task:0"}) {
    GraphBuilder::DeviceScope scope(&b, task);
    Output q = ops::FIFOQueue(&b, {DataType::kFloat}, 4);
    blocked.push_back(
        ops::Group(&b, {ops::QueueDequeue(&b, q, {DataType::kFloat})[0]}));
  }
  Output c = Const(&b, 3.0f);
  ASSERT_TRUE(b.ok()) << b.status();

  MasterSession::Options options;
  options.step_deadline_seconds = 5.0;
  auto session = MasterSession::Create(g, cluster, options);
  ASSERT_TRUE(session.ok()) << session.status();

  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    TF_CHECK_OK(cluster->KillTaskProcess("worker", 0));
  });
  Status s = session.value()->Run(
      {}, {}, {blocked[0]->name(), blocked[1]->name()}, nullptr);
  killer.join();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsRetryable()) << s;

  TF_CHECK_OK(cluster->RestartTask("worker", 0));
  std::vector<Tensor> out;
  Status again = session.value()->Run({c.name()}, &out);
  ASSERT_TRUE(again.ok()) << again;
  EXPECT_EQ(*out[0].data<float>(), 3.0f);
}

// A worker binary that exits at once: the spawn must report the child's
// death during startup, well inside the spawn timeout.
TEST(SocketChaosTest, WorkerDyingAtStartupFailsTheSpawnAtOnce) {
  const char* env = std::getenv("TFREPRO_WORKER_BINARY");
  const std::optional<std::string> saved =
      env != nullptr ? std::optional<std::string>(env) : std::nullopt;
  ::setenv("TFREPRO_WORKER_BINARY", "/bin/false", /*overwrite=*/1);
  const auto start = std::chrono::steady_clock::now();
  auto cluster = MakeCluster();
  const double elapsed = SecondsSince(start);
  if (saved.has_value()) {
    ::setenv("TFREPRO_WORKER_BINARY", saved->c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("TFREPRO_WORKER_BINARY");
  }
  ASSERT_FALSE(cluster.ok());
  EXPECT_NE(cluster.status().message().find("exited during startup"),
            std::string::npos)
      << cluster.status();
  EXPECT_LT(elapsed, 2.0);
}

TEST(SocketChaosTest, WorkerExitsWhenItsMasterGoesAway) {
  // The pipe a worker reports its port on is its lifeline: the master holds
  // the read end until it reaps the worker, so the read end closes when the
  // master dies. Here the test plays the master and closes it.
  const char* binary = std::getenv("TFREPRO_WORKER_BINARY");
  ASSERT_NE(binary, nullptr) << "TFREPRO_WORKER_BINARY names worker_main";
  int ready[2];
  ASSERT_EQ(::pipe2(ready, O_CLOEXEC), 0);
  // Built before the fork: the child only execs.
  std::string job = "--job=worker", task = "--task=0",
              ready_fd = "--ready_fd=" + std::to_string(ready[1]);
  std::vector<char*> argv = {const_cast<char*>(binary), job.data(),
                             task.data(), ready_fd.data(), nullptr};
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::fcntl(ready[1], F_SETFD, 0);
    ::execv(binary, argv.data());
    ::_exit(127);
  }
  ::close(ready[1]);
  // Whatever fails below, teardown leaves nothing running.
  struct Child {
    pid_t pid;
    int lifeline;
    bool reaped = false;
    ~Child() {
      if (lifeline >= 0) ::close(lifeline);
      if (!reaped) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  } child{pid, ready[0]};

  std::string text;
  while (text.find('\n') == std::string::npos) {
    pollfd pfd{child.lifeline, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, /*timeout_ms=*/10000), 1) << "no port in 10 s";
    char buf[32];
    const ssize_t n = ::read(child.lifeline, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "the worker exited before reporting its port";
    text.append(buf, static_cast<size_t>(n));
  }
  EXPECT_GT(std::atoi(text.c_str()), 0) << text;

  ::close(child.lifeline);
  child.lifeline = -1;
  EXPECT_TRUE(WaitFor(
      [&child]() {
        child.reaped = ::waitpid(child.pid, nullptr, WNOHANG) == child.pid;
        return child.reaped;
      },
      2.0))
      << "the worker still runs 2 s after its master went away";
}

}  // namespace
}  // namespace tfrepro
