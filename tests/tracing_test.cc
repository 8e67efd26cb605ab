// Tests for per-step tracing (DESIGN.md §8): node/transfer event capture
// through DirectSession and MasterSession, the Chrome trace_event JSON
// exporter, executor error annotation, the disabled-tracing fast path, and
// fault-injection markers on the trace stream.

#include <gtest/gtest.h>

#include <fstream>
#include <set>

#include "core/metrics.h"
#include "distributed/fault_injector.h"
#include "distributed/master.h"
#include "graph/ops.h"
#include "runtime/session.h"
#include "runtime/tracing.h"

namespace tfrepro {
namespace {

using distributed::ClusterSpec;
using distributed::FaultInjector;
using distributed::InProcessCluster;
using distributed::MasterSession;

int64_t CounterTotal(const std::string& name) {
  return metrics::Registry::Global()->Snapshot().TotalValue(name);
}

TEST(TraceCollectorTest, RecordsAndConsumes) {
  TraceCollector collector;
  NodeExecStats node;
  node.node_name = "a";
  collector.RecordNode(node);
  collector.RecordTransfer(TransferStats{});
  collector.RecordInstant(InstantEvent{"marker", "", 1, {}});

  StepStats stats = collector.Consume(/*step_id=*/7);
  EXPECT_EQ(stats.step_id, 7);
  EXPECT_EQ(stats.nodes.size(), 1u);
  EXPECT_EQ(stats.transfers.size(), 1u);
  EXPECT_EQ(stats.instants.size(), 1u);

  // Consume resets the collector.
  StepStats empty = collector.Consume(8);
  EXPECT_TRUE(empty.nodes.empty());
  EXPECT_TRUE(empty.transfers.empty());
  EXPECT_TRUE(empty.instants.empty());
}

TEST(TraceCollectorTest, GlobalInstantsReachOnlySubscribedCollectors) {
  TraceCollector subscribed(/*capture_global_events=*/true);
  TraceCollector unsubscribed;
  RecordGlobalInstant("fault.test", "/job:worker/task:0", {{"k", "v"}});

  StepStats got = subscribed.Consume(1);
  ASSERT_EQ(got.instants.size(), 1u);
  EXPECT_EQ(got.instants[0].name, "fault.test");
  EXPECT_EQ(got.instants[0].scope, "/job:worker/task:0");
  EXPECT_EQ(got.instants[0].args.at("k"), "v");
  EXPECT_GT(got.instants[0].micros, 0);

  EXPECT_TRUE(unsubscribed.Consume(1).instants.empty());
}

TEST(TracingTest, ThreeOpGraphYieldsNodeEvents) {
  Graph g;
  GraphBuilder b(&g);
  Output a = ops::Const(&b, Tensor::Scalar(2.0f), "a");
  Output c = ops::Mul(&b, a, ops::Const(&b, Tensor::Scalar(3.0f), "b"));
  ASSERT_TRUE(b.ok()) << b.status();

  SessionOptions session_options;
  session_options.optimizer.do_constant_folding = false;  // keep the Mul live
  auto session = DirectSession::Create(g, session_options);
  ASSERT_TRUE(session.ok());
  RunOptions run_options;
  run_options.trace = true;
  RunMetadata metadata;
  std::vector<Tensor> out;
  Status s = session.value()->Run(run_options, {}, {c.name()}, {}, &out,
                                  &metadata);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 6.0f);

  // At least the three user ops (plus the fetch machinery) executed.
  const StepStats& stats = metadata.step_stats;
  ASSERT_GE(stats.nodes.size(), 3u);
  std::set<std::string> names;
  std::set<std::string> op_types;
  for (const NodeExecStats& n : stats.nodes) {
    names.insert(n.node_name);
    op_types.insert(n.op);
    EXPECT_FALSE(n.op.empty());
    // Correct device attribution and sane timestamps on every event.
    EXPECT_NE(n.device.find("CPU"), std::string::npos) << n.device;
    EXPECT_GT(n.scheduled_micros, 0);
    EXPECT_LE(n.scheduled_micros, n.start_micros);
    EXPECT_LE(n.start_micros, n.end_micros);
  }
  EXPECT_TRUE(names.count("a"));
  EXPECT_TRUE(names.count("b"));
  EXPECT_TRUE(op_types.count("Mul"));
  // Single-device graph: no transfers.
  EXPECT_TRUE(stats.transfers.empty());
}

TEST(TracingTest, DisabledTracingProducesNoEvents) {
  Graph g;
  GraphBuilder b(&g);
  Output c = ops::Add(&b, ops::Const(&b, 1.0f), ops::Const(&b, 2.0f));
  ASSERT_TRUE(b.ok());

  auto session = DirectSession::Create(g);
  ASSERT_TRUE(session.ok());
  RunMetadata metadata;
  std::vector<Tensor> out;
  // trace defaults to false: metadata must come back empty.
  Status s = session.value()->Run(RunOptions(), {}, {c.name()}, {}, &out,
                                  &metadata);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_TRUE(metadata.step_stats.nodes.empty());
  EXPECT_TRUE(metadata.step_stats.transfers.empty());
  EXPECT_TRUE(metadata.step_stats.instants.empty());
}

TEST(TracingTest, ExecutorErrorNamesFailingNode) {
  Graph g;
  GraphBuilder b(&g);
  Output x = ops::Placeholder(&b, DataType::kFloat, TensorShape({2}), "x");
  Output y = ops::Identity(&b, x);
  ASSERT_TRUE(b.ok());

  auto session = DirectSession::Create(g);
  ASSERT_TRUE(session.ok());
  std::vector<Tensor> out;
  // Executing the placeholder without feeding it fails inside the kernel;
  // the executor must annotate the status with op, node and device.
  Status s = session.value()->Run({}, {y.name()}, {}, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("Placeholder 'x' on "), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("CPU"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("without being fed"), std::string::npos)
      << s.message();
}

TEST(TracingTest, DistributedTraceCapturesTransfersAcrossTasks) {
  auto cluster = InProcessCluster::Create([] {
    ClusterSpec spec;
    spec.jobs["ps"] = 1;
    spec.jobs["worker"] = 1;
    return spec;
  }());
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output on_ps;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:ps/task:0");
    on_ps = ops::Mul(&b, ops::Const(&b, 6.0f), ops::Const(&b, 7.0f));
  }
  Output on_worker;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    on_worker = ops::Add(&b, on_ps, ops::Const(&b, 0.5f));
  }
  ASSERT_TRUE(b.ok());

  // Keep the cross-task edge live (folding would collapse the whole graph
  // into a constant and eliminate the transfer under test).
  MasterSession::Options options;
  options.optimizer.do_constant_folding = false;
  auto session = MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok());

  // Untraced warmup compiles the step, so the traced run below is the only
  // rendezvous activity between the two snapshots.
  std::vector<Tensor> out;
  ASSERT_TRUE(session.value()->Run({on_worker.name()}, &out).ok());

  const int64_t sends_before = CounterTotal("rendezvous.sends");
  const int64_t bytes_before = CounterTotal("rendezvous.bytes_sent");

  RunOptions run_options;
  run_options.trace = true;
  RunMetadata metadata;
  Status s = session.value()->Run(run_options, {}, {on_worker.name()}, {},
                                  &out, &metadata);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 42.5f);

  const StepStats& stats = metadata.step_stats;
  // Node events attributed to both tasks.
  std::set<std::string> devices;
  for (const NodeExecStats& n : stats.nodes) devices.insert(n.device);
  bool has_ps = false, has_worker = false;
  for (const std::string& d : devices) {
    if (d.find("/job:ps/") != std::string::npos) has_ps = true;
    if (d.find("/job:worker/") != std::string::npos) has_worker = true;
  }
  EXPECT_TRUE(has_ps);
  EXPECT_TRUE(has_worker);

  // The ps -> worker value crossed via one Send and one Recv.
  int64_t send_events = 0, recv_events = 0, traced_send_bytes = 0;
  for (const TransferStats& t : stats.transfers) {
    EXPECT_NE(t.send_device.find("/job:ps/"), std::string::npos);
    EXPECT_NE(t.recv_device.find("/job:worker/"), std::string::npos);
    EXPECT_EQ(t.bytes, 4);  // one float scalar
    if (t.kind == TransferStats::Kind::kSend) {
      ++send_events;
      traced_send_bytes += t.bytes;
      EXPECT_GT(t.send_micros, 0);
    } else {
      ++recv_events;
      EXPECT_GT(t.recv_start_micros, 0);
      EXPECT_LE(t.recv_start_micros, t.recv_end_micros);
    }
  }
  EXPECT_EQ(send_events, 1);
  EXPECT_EQ(recv_events, 1);

  // The metrics snapshot agrees with the trace: this step's rendezvous
  // send/byte deltas match the traced transfer events exactly.
  EXPECT_EQ(CounterTotal("rendezvous.sends") - sends_before, send_events);
  EXPECT_EQ(CounterTotal("rendezvous.bytes_sent") - bytes_before,
            traced_send_bytes);

  // Chrome trace export: a process row per task, a thread row per device,
  // the transfers lane, and the node/transfer events.
  std::string json = stats.ToChromeTraceJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json.substr(0, 80);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("/job:ps/task:0"), std::string::npos);
  EXPECT_NE(json.find("/job:worker/task:0"), std::string::npos);
  EXPECT_NE(json.find("\"transfers\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Two distinct process ids.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
}

TEST(TracingTest, InjectedFaultAppearsInEventsAndTrace) {
  FaultInjector injector;
  InProcessCluster::Options cluster_options;
  cluster_options.fault_injector = &injector;
  auto cluster = InProcessCluster::Create([] {
    ClusterSpec spec;
    spec.jobs["worker"] = 2;
    return spec;
  }(), cluster_options);
  ASSERT_TRUE(cluster.ok());

  Graph g;
  GraphBuilder b(&g);
  Output a;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:0");
    a = ops::Const(&b, 1.0f);
  }
  Output sum;
  {
    GraphBuilder::DeviceScope scope(&b, "/job:worker/task:1");
    sum = ops::Add(&b, a, ops::Const(&b, 2.0f));
  }
  ASSERT_TRUE(b.ok());

  MasterSession::Options options;
  options.max_step_retries = 2;
  options.restart_failed_tasks = true;
  // Constant folding would evaluate this all-const graph at compile time
  // and task:0 would never see the dispatch this test kills.
  options.optimizer.enable = false;
  auto session =
      MasterSession::Create(g, cluster.value().get(), options);
  ASSERT_TRUE(session.ok());

  const int64_t injected_before = CounterTotal("fault.injected");
  injector.KillTaskAtDispatch("/job:worker/task:0", 1);

  RunOptions run_options;
  run_options.trace = true;
  RunMetadata metadata;
  std::vector<Tensor> out;
  Status s = session.value()->Run(run_options, {}, {sum.name()}, {}, &out,
                                  &metadata);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_FLOAT_EQ(*out[0].data<float>(), 3.0f);

  // The injector kept a structured record (kill, then restart).
  std::vector<FaultInjector::InjectedEvent> events =
      injector.injected_events();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].kind, "kill");
  EXPECT_EQ(events[0].task, "/job:worker/task:0");
  EXPECT_EQ(events[0].index, 1);
  EXPECT_GT(events[0].micros, 0);
  bool restarted = false;
  for (const auto& e : events) restarted |= (e.kind == "restart");
  EXPECT_TRUE(restarted);

  // Metrics counted each injected fault by kind.
  EXPECT_GE(CounterTotal("fault.injected") - injected_before, 2);

  // The step's trace stream carries the markers: the kill lands during the
  // first attempt (whose events are discarded on retry), but the restart
  // and the master's retry marker precede the final successful attempt.
  std::set<std::string> instant_names;
  for (const InstantEvent& e : metadata.step_stats.instants) {
    instant_names.insert(e.name);
  }
  EXPECT_TRUE(instant_names.count("master.retry")) << instant_names.size();
  EXPECT_TRUE(instant_names.count("fault.restart"));
  EXPECT_EQ(session.value()->stats().retries, 1);
  EXPECT_EQ(session.value()->stats().restarts, 1);
}

TEST(TracingTest, WriteChromeTraceRoundTrip) {
  StepStats stats;
  NodeExecStats n;
  n.node_name = "matmul";
  n.op = "MatMul";
  n.device = "/job:worker/task:0/device:CPU:0";
  n.scheduled_micros = 100;
  n.start_micros = 120;
  n.end_micros = 180;
  stats.nodes.push_back(n);

  std::string path = ::testing::TempDir() + "/trace_test.json";
  ASSERT_TRUE(stats.WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"matmul\""), std::string::npos);
  EXPECT_NE(content.find("\"dur\":60"), std::string::npos);

  EXPECT_FALSE(stats.WriteChromeTrace("/nonexistent-dir/x/y.json").ok());
}

// The Chrome trace byte for byte: a node, a Send, a Recv, an instant on a
// task scope (no device), a global instant, a span with args, then the
// process and thread name rows. Times are rebased to the earliest event.
TEST(TracingTest, ChromeTraceGolden) {
  StepStats stats;
  stats.step_id = 7;
  NodeExecStats n;
  n.node_name = "mm";
  n.op = "MatMul";
  n.device = "/job:w/task:0/device:CPU:0";
  n.scheduled_micros = 100;
  n.start_micros = 110;
  n.end_micros = 150;
  stats.nodes.push_back(n);
  TransferStats send;
  send.kind = TransferStats::Kind::kSend;
  send.tensor_name = "t";
  send.send_device = "/job:ps/task:0/device:CPU:0";
  send.recv_device = n.device;
  send.bytes = 16;
  send.send_micros = 120;
  stats.transfers.push_back(send);
  TransferStats recv = send;
  recv.kind = TransferStats::Kind::kRecv;
  recv.send_micros = 0;
  recv.recv_start_micros = 125;
  recv.recv_end_micros = 140;
  stats.transfers.push_back(recv);
  stats.instants.push_back(
      InstantEvent{"fault.kill", "/job:w/task:0", 130, {{"kind", "kill"}}});
  stats.instants.push_back(InstantEvent{"master.retry", "", 135, {}});
  stats.spans.push_back(SpanEvent{
      "queue.wait", "/job:ps/task:0", 105, 145, {{"queue", "q\"1"}}});

  EXPECT_EQ(
      stats.ToChromeTraceJson(),
      R"({"traceEvents":[)"
      R"({"ph":"X","pid":1,"tid":1,"ts":10,"dur":40,"cat":"op",)"
      R"("name":"MatMul","args":{"node":"mm","ready_wait_us":10}},)"
      R"({"ph":"i","s":"t","pid":2,"tid":0,"ts":20,"cat":"transfer",)"
      R"("name":"Send t","args":{"bytes":16,)"
      R"("from":"/job:ps/task:0/device:CPU:0",)"
      R"("to":"/job:w/task:0/device:CPU:0"}},)"
      R"({"ph":"X","pid":1,"tid":0,"ts":25,"dur":15,"cat":"transfer",)"
      R"("name":"Recv t","args":{"bytes":16,)"
      R"("from":"/job:ps/task:0/device:CPU:0",)"
      R"("to":"/job:w/task:0/device:CPU:0"}},)"
      R"({"ph":"i","s":"p","pid":1,"ts":30,"cat":"marker",)"
      R"("name":"fault.kill","args":{"kind":"kill"}},)"
      R"({"ph":"i","s":"g","pid":0,"ts":35,"cat":"marker",)"
      R"("name":"master.retry","args":{}},)"
      R"({"ph":"X","pid":2,"tid":9990,"ts":5,"dur":40,"cat":"wait",)"
      R"("name":"queue.wait","args":{"queue":"q\"1"}},)"
      R"({"ph":"M","pid":2,"name":"process_name",)"
      R"("args":{"name":"/job:ps/task:0"}},)"
      R"({"ph":"M","pid":2,"tid":0,"name":"thread_name",)"
      R"("args":{"name":"transfers"}},)"
      R"({"ph":"M","pid":1,"name":"process_name",)"
      R"("args":{"name":"/job:w/task:0"}},)"
      R"({"ph":"M","pid":1,"tid":0,"name":"thread_name",)"
      R"("args":{"name":"transfers"}},)"
      R"({"ph":"M","pid":2,"tid":9990,"name":"thread_name",)"
      R"("args":{"name":"waits"}},)"
      R"({"ph":"M","pid":1,"tid":1,"name":"thread_name",)"
      R"("args":{"name":"/job:w/task:0/device:CPU:0"}}],)"
      R"("displayTimeUnit":"ms","metadata":{"step_id":7}})");
}

TEST(TracingTest, TabInNodeNameIsWrittenAsBackslashT) {
  StepStats stats;
  NodeExecStats n;
  n.node_name = "a\tb";
  n.op = "Op";
  n.device = "/job:worker/task:0/device:CPU:0";
  n.start_micros = 1;
  n.end_micros = 2;
  stats.nodes.push_back(n);
  const std::string json = stats.ToChromeTraceJson();
  EXPECT_NE(json.find("\"a\\tb\""), std::string::npos) << json;
}

TEST(TracingTest, GlobalSpansReachLiveCollectors) {
  TraceCollector collector(/*capture_global_events=*/true);
  RecordGlobalSpan("queue.enqueue_blocked", "/job:worker/task:1", 1000, 3500,
                   {{"queue", "input"}});
  // A collector not subscribed to global events must see nothing.
  TraceCollector passive(/*capture_global_events=*/false);
  RecordGlobalSpan("serving.queue_wait", "serving", 4000, 4200);

  StepStats stats = collector.Consume(1);
  ASSERT_EQ(stats.spans.size(), 2u);
  EXPECT_EQ(stats.spans[0].name, "queue.enqueue_blocked");
  EXPECT_EQ(stats.spans[0].scope, "/job:worker/task:1");
  EXPECT_EQ(stats.spans[0].start_micros, 1000);
  EXPECT_EQ(stats.spans[0].end_micros, 3500);
  EXPECT_EQ(stats.spans[0].args.at("queue"), "input");
  EXPECT_EQ(stats.spans[1].name, "serving.queue_wait");
  EXPECT_TRUE(passive.Consume(1).spans.empty());
}

TEST(TracingTest, ChromeTraceRendersSpansOnWaitsRow) {
  StepStats stats;
  SpanEvent span;
  span.name = "serving.queue_wait";
  span.scope = "/job:worker/task:0";
  span.start_micros = 500;
  span.end_micros = 1700;
  stats.spans.push_back(span);

  std::string json = stats.ToChromeTraceJson();
  EXPECT_NE(json.find("\"serving.queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"waits\""), std::string::npos);
  // Duration events: phase X with the span's length.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1200"), std::string::npos);
  // Spans alone define the time base (earliest event rebases to 0).
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos);
}

}  // namespace
}  // namespace tfrepro
