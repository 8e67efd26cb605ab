// Unit tests for the socket transport pieces (DESIGN.md §11): wire body
// helpers, frame I/O, minimal-copy tensor serialization, the errno→Status
// mapping the retry machinery depends on, and the RpcChannel robustness
// contract (deadlines, reconnect with backoff, fail-fast inside the
// backoff window, pending-call teardown), per-method RPC metrics, and the
// worker's acknowledged cross-task Send.

#include <gtest/gtest.h>

#include <cerrno>
#include <unistd.h>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/status.h"
#include "core/tensor.h"
#include "distributed/rpc/remote_worker.h"
#include "distributed/rpc/rendezvous_hub.h"
#include "distributed/rpc/rpc_channel.h"
#include "distributed/rpc/rpc_server.h"
#include "distributed/rpc/wire.h"
#include "distributed/rpc/worker_service.h"
#include "graph/graph_builder.h"
#include "graph/ops.h"

namespace tfrepro {
namespace distributed {
namespace rpc {
namespace {

// --- body helpers ---

TEST(WireBodyTest, Int64RoundTrip) {
  std::string body;
  AppendInt64(&body, 0);
  AppendInt64(&body, -1);
  AppendInt64(&body, INT64_MAX);
  AppendInt64(&body, INT64_MIN);
  size_t offset = 0;
  int64_t v = 0;
  ASSERT_TRUE(ReadInt64(body, &offset, &v));
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(ReadInt64(body, &offset, &v));
  EXPECT_EQ(v, -1);
  ASSERT_TRUE(ReadInt64(body, &offset, &v));
  EXPECT_EQ(v, INT64_MAX);
  ASSERT_TRUE(ReadInt64(body, &offset, &v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_EQ(offset, body.size());
  EXPECT_FALSE(ReadInt64(body, &offset, &v));  // exhausted
}

TEST(WireBodyTest, StringRoundTripIncludingEmbeddedNul) {
  std::string body;
  AppendString(&body, "");
  AppendString(&body, std::string("a\0b", 3));
  size_t offset = 0;
  std::string s;
  ASSERT_TRUE(ReadString(body, &offset, &s));
  EXPECT_EQ(s, "");
  ASSERT_TRUE(ReadString(body, &offset, &s));
  EXPECT_EQ(s, std::string("a\0b", 3));
  EXPECT_EQ(offset, body.size());
}

TEST(WireBodyTest, StatusRoundTrip) {
  std::string body;
  AppendStatus(&body, Status::OK());
  AppendStatus(&body, Unavailable("task died"));
  size_t offset = 0;
  Status s = Internal("unset");
  ASSERT_TRUE(ReadStatus(body, &offset, &s));
  EXPECT_TRUE(s.ok());
  ASSERT_TRUE(ReadStatus(body, &offset, &s));
  EXPECT_EQ(s.code(), Code::kUnavailable);
  EXPECT_EQ(s.message(), "task died");
}

TEST(WireBodyTest, TruncatedReadsFailCleanly) {
  std::string body;
  AppendString(&body, "hello");
  for (size_t cut = 0; cut < body.size(); ++cut) {
    std::string truncated = body.substr(0, cut);
    size_t offset = 0;
    std::string s;
    EXPECT_FALSE(ReadString(truncated, &offset, &s)) << "cut at " << cut;
  }
}

// --- errno mapping (one expectation per mapping the channel relies on) ---

TEST(ErrnoStatusTest, DeadPeerErrnosAreRetryableUnavailable) {
  for (int err : {ECONNRESET, EPIPE, ECONNREFUSED, ECONNABORTED, ENETDOWN,
                  ENETUNREACH, ENETRESET, EHOSTDOWN, EHOSTUNREACH,
                  ESHUTDOWN}) {
    Status s = StatusFromErrno(err, "write");
    EXPECT_EQ(s.code(), Code::kUnavailable) << "errno " << err;
    EXPECT_TRUE(s.IsRetryable()) << "errno " << err;
  }
}

TEST(ErrnoStatusTest, PeerClosedWithoutErrnoIsRetryable) {
  Status s = StatusFromErrno(0, "read");
  EXPECT_EQ(s.code(), Code::kUnavailable);
  EXPECT_TRUE(s.IsRetryable());
}

TEST(ErrnoStatusTest, TimeoutIsRetryableDeadlineExceeded) {
  Status s = StatusFromErrno(ETIMEDOUT, "connect");
  EXPECT_EQ(s.code(), Code::kDeadlineExceeded);
  EXPECT_TRUE(s.IsRetryable());
}

TEST(ErrnoStatusTest, ProgrammerErrorsAreNotRetryable) {
  EXPECT_EQ(StatusFromErrno(EINVAL, "x").code(), Code::kInvalidArgument);
  EXPECT_EQ(StatusFromErrno(EBADF, "x").code(), Code::kInvalidArgument);
  EXPECT_FALSE(StatusFromErrno(EBADF, "x").IsRetryable());
}

TEST(ErrnoStatusTest, PermissionAndResourceMappings) {
  EXPECT_EQ(StatusFromErrno(EACCES, "x").code(), Code::kPermissionDenied);
  EXPECT_EQ(StatusFromErrno(EPERM, "x").code(), Code::kPermissionDenied);
  EXPECT_EQ(StatusFromErrno(EADDRINUSE, "x").code(), Code::kAlreadyExists);
  EXPECT_EQ(StatusFromErrno(EMFILE, "x").code(), Code::kResourceExhausted);
  EXPECT_EQ(StatusFromErrno(ENOMEM, "x").code(), Code::kResourceExhausted);
}

TEST(ErrnoStatusTest, UnknownErrnoIsInternalWithContext) {
  Status s = StatusFromErrno(EILSEQ, "decode");
  EXPECT_EQ(s.code(), Code::kInternal);
  EXPECT_NE(s.message().find("decode"), std::string::npos);
  EXPECT_NE(s.message().find(std::to_string(EILSEQ)), std::string::npos);
}

// --- tensor serialization: AppendTensorMeta body+payload must concatenate
// to exactly AppendToBytes output, for every dtype ---

void ExpectTensorsEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.dtype(), b.dtype());
  ASSERT_EQ(a.shape().DebugString(), b.shape().DebugString());
  if (a.dtype() == DataType::kString) {
    for (int64_t i = 0; i < a.num_elements(); ++i) {
      EXPECT_EQ(a.str(i), b.str(i)) << "string element " << i;
    }
    return;
  }
  ASSERT_EQ(a.TotalBytes(), b.TotalBytes());
  EXPECT_EQ(0, std::memcmp(a.raw_data(), b.raw_data(), a.TotalBytes()));
}

Tensor RoundTripViaMeta(const Tensor& t) {
  std::string body;
  const char* payload = nullptr;
  size_t payload_len = 0;
  AppendTensorMeta(t, &body, &payload, &payload_len);
  if (payload != nullptr) body.append(payload, payload_len);

  // The concatenation must be byte-identical to AppendToBytes, the format
  // checkpoints already use.
  std::string reference;
  t.AppendToBytes(&reference);
  EXPECT_EQ(body, reference);

  size_t offset = 0;
  auto parsed = Tensor::ParseFromBytes(body, &offset);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(offset, body.size());
  return parsed.ok() ? parsed.value() : Tensor();
}

TEST(TensorWireTest, AllPodDtypesRoundTrip) {
  std::vector<Tensor> cases;
  cases.push_back(Tensor::Vec<float>({1.5f, -2.25f, 0.0f}));
  cases.push_back(Tensor::Vec<double>({3.141592653589793, -1e300}));
  cases.push_back(Tensor::Vec<int32_t>({INT32_MIN, 0, INT32_MAX}));
  cases.push_back(Tensor::Vec<int64_t>({INT64_MIN, 0, INT64_MAX}));
  cases.push_back(Tensor::Scalar(true));
  cases.push_back(Tensor::Scalar(false));
  Tensor u8(DataType::kUint8, TensorShape({2, 3}));
  for (int64_t i = 0; i < 6; ++i) u8.data<uint8_t>()[i] = uint8_t(40 + i);
  cases.push_back(u8);
  for (const Tensor& t : cases) {
    SCOPED_TRACE(DataTypeName(t.dtype()));
    ExpectTensorsEqual(t, RoundTripViaMeta(t));
  }
}

TEST(TensorWireTest, EmptyTensorRoundTrips) {
  Tensor empty(DataType::kFloat, TensorShape({0}));
  Tensor back = RoundTripViaMeta(empty);
  EXPECT_EQ(back.num_elements(), 0);
  EXPECT_EQ(back.dtype(), DataType::kFloat);
}

TEST(TensorWireTest, StringTensorRoundTrips) {
  Tensor t(DataType::kString, TensorShape({3}));
  t.str(0) = "";
  t.str(1) = std::string("binary\0data", 11);
  t.str(2) = std::string(100000, 'x');
  // Strings are not minimal-copy: everything must land in the body.
  std::string body;
  const char* payload = reinterpret_cast<const char*>(&t);
  size_t payload_len = 1;
  AppendTensorMeta(t, &body, &payload, &payload_len);
  EXPECT_EQ(payload, nullptr);
  EXPECT_EQ(payload_len, 0u);
  ExpectTensorsEqual(t, RoundTripViaMeta(t));
}

TEST(TensorWireTest, LargeTensorOver4MBRoundTrips) {
  constexpr int64_t kElems = (5 << 20) / sizeof(float);  // 5 MiB of floats
  Tensor big(DataType::kFloat, TensorShape({kElems}));
  float* d = big.data<float>();
  for (int64_t i = 0; i < kElems; ++i) d[i] = float(i % 977) * 0.5f;
  ASSERT_GT(big.TotalBytes(), size_t(4) << 20);
  ExpectTensorsEqual(big, RoundTripViaMeta(big));
}

// --- frame I/O over a real socket ---

TEST(FrameIoTest, FrameWithPayloadRoundTripsOverSocket) {
  int port = 0;
  auto listen_fd = ListenLocalhost(0, &port);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status();
  auto client = ConnectLocalhost(port, 2.0);
  ASSERT_TRUE(client.ok()) << client.status();
  auto server = AcceptConnection(listen_fd.value());
  ASSERT_TRUE(server.ok()) << server.status();

  const std::string body = "body-bytes";
  const std::string payload = std::string(1 << 20, 'p');
  const int64_t sent_before =
      metrics::Registry::Global()->GetCounter("rpc.bytes_sent")->value();
  TF_CHECK_OK(WriteFrame(client.value(), /*request_id=*/42,
                         /*is_response=*/false,
                         uint8_t(Method::kSendTensor), body, payload.data(),
                         payload.size()));
  auto frame = ReadFrame(server.value());
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame.value().request_id, 42u);
  EXPECT_FALSE(frame.value().is_response);
  EXPECT_EQ(frame.value().method, uint8_t(Method::kSendTensor));
  EXPECT_EQ(frame.value().body, body + payload);
  EXPECT_GT(
      metrics::Registry::Global()->GetCounter("rpc.bytes_sent")->value(),
      sent_before + int64_t(payload.size()));

  // Closing the peer turns the next read into a retryable Unavailable.
  ::close(client.value());
  auto eof = ReadFrame(server.value());
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), Code::kUnavailable);
  EXPECT_TRUE(eof.status().IsRetryable());
  ::close(server.value());
  ::close(listen_fd.value());
}

// --- channel/server behaviour ---

// An echo server: responds OK with the request body reversed.
class EchoServer {
 public:
  EchoServer() {
    server_.RegisterHandler(
        Method::kPing,
        [](const std::string& body,
           std::shared_ptr<RpcServer::Responder> responder) {
          std::string reply(body.rbegin(), body.rend());
          responder->Respond(Status::OK(), reply);
        });
    // A black hole: never responds, for deadline tests.
    server_.RegisterHandler(
        Method::kRunGraph,
        [this](const std::string&,
               std::shared_ptr<RpcServer::Responder> responder) {
          std::lock_guard<std::mutex> l(mu_);
          parked_.push_back(std::move(responder));
        });
    TF_CHECK_OK(server_.Start(0));
  }
  // Joins the connection threads before the responders they parked go.
  ~EchoServer() { server_.Shutdown(); }
  int port() { return server_.port(); }
  void Shutdown() { server_.Shutdown(); }

 private:
  RpcServer server_;
  std::mutex mu_;
  std::vector<std::shared_ptr<RpcServer::Responder>> parked_;
};

TEST(RpcChannelTest, EchoAndConcurrentCallsMultiplex) {
  EchoServer server;
  RpcChannel channel("echo", server.port());
  auto one = channel.CallSync(Method::kPing, "abc", 5.0);
  ASSERT_TRUE(one.ok()) << one.status();
  // Response body = app status (OK) + method payload.
  size_t offset = 0;
  Status app = Internal("unset");
  ASSERT_TRUE(ReadStatus(one.value(), &offset, &app));
  EXPECT_TRUE(app.ok());
  EXPECT_EQ(one.value().substr(offset), "cba");

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      std::string msg = "msg" + std::to_string(i);
      auto r = channel.CallSync(Method::kPing, msg, 5.0);
      if (!r.ok()) {
        ++failures;
        return;
      }
      size_t off = 0;
      Status s = Internal("unset");
      std::string expect(msg.rbegin(), msg.rend());
      if (!ReadStatus(r.value(), &off, &s) || !s.ok() ||
          r.value().substr(off) != expect) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(RpcChannelTest, DeadlineExpiresAsRetryableDeadlineExceeded) {
  EchoServer server;
  RpcChannel channel("wedged", server.port());
  auto start = std::chrono::steady_clock::now();
  auto r = channel.CallSync(Method::kRunGraph, "never-answered", 0.2);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kDeadlineExceeded);
  EXPECT_TRUE(r.status().IsRetryable());
  EXPECT_GE(elapsed, 0.15);
  EXPECT_LT(elapsed, 2.0);
}

TEST(RpcChannelTest, ShorterDeadlineBehindALongerOneExpiresOnTime) {
  // The sweeper sleeps until the nearest deadline it knows; a call with an
  // earlier deadline must wake it rather than wait out the longer one.
  EchoServer server;
  std::atomic<bool> long_done{false};
  RpcChannel channel("wedged", server.port());
  channel.Call(Method::kRunGraph, "long", nullptr, 0, /*deadline=*/30.0,
               [&](const Status&, std::string) { long_done = true; });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto start = std::chrono::steady_clock::now();
  auto r = channel.CallSync(Method::kRunGraph, "short", 0.2);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kDeadlineExceeded);
  EXPECT_LT(elapsed, 2.0);
  EXPECT_FALSE(long_done.load());
}

TEST(RpcChannelTest, DeadPeerFailsFastDuringBackoffThenReconnects) {
  RpcChannel::Options opts;
  opts.connect_timeout_seconds = 0.5;
  opts.backoff_initial_seconds = 0.2;
  opts.backoff_max_seconds = 0.2;
  opts.backoff_jitter_fraction = 0.0;

  // Nobody is listening yet: the first call eats the connect failure and
  // arms the backoff window.
  EchoServer server;
  int port = server.port();
  server.Shutdown();

  RpcChannel channel("flaky", port, opts);
  auto first = channel.CallSync(Method::kPing, "x", 1.0);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsRetryable()) << first.status();

  // Inside the backoff window calls fail fast — no fresh dial, no wait.
  auto start = std::chrono::steady_clock::now();
  auto second = channel.CallSync(Method::kPing, "x", 1.0);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), Code::kUnavailable);
  EXPECT_LT(elapsed, 0.1);

  // A server appears; ResetTarget clears the backoff stamp, so the next
  // call dials immediately and succeeds. (This first-ever successful dial
  // is not a "reconnect" — rpc.reconnects counts redials after a live
  // connection died; see the server-bounce test below.)
  EchoServer revived;
  channel.ResetTarget(revived.port());
  auto third = channel.CallSync(Method::kPing, "hi", 2.0);
  ASSERT_TRUE(third.ok()) << third.status();
}

TEST(RpcChannelTest, ServerDeathFailsPendingAndChannelRecoversAfterRestart) {
  auto server = std::make_unique<EchoServer>();
  RpcChannel::Options opts;
  opts.backoff_initial_seconds = 0.001;
  opts.backoff_max_seconds = 0.01;
  RpcChannel channel("bouncing", server->port(), opts);

  // Warm the connection, then park a call and kill the server under it.
  auto warm = channel.CallSync(Method::kPing, "warm", 2.0);
  ASSERT_TRUE(warm.ok()) << warm.status();
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status parked_status = Status::OK();
  channel.Call(Method::kRunGraph, "parked", nullptr, 0, /*deadline=*/0.0,
               [&](const Status& s, std::string) {
                 std::lock_guard<std::mutex> l(mu);
                 parked_status = s;
                 done = true;
                 cv.notify_all();
               });
  server->Shutdown();
  {
    std::unique_lock<std::mutex> l(mu);
    ASSERT_TRUE(cv.wait_for(l, std::chrono::seconds(5), [&] { return done; }));
  }
  EXPECT_FALSE(parked_status.ok());
  EXPECT_TRUE(parked_status.IsRetryable()) << parked_status;

  // Restart on a new port; ResetTarget clears the backoff and the channel
  // works again — the restarted-worker path of RemoteWorker. Dialing after
  // a live connection died is what rpc.reconnects counts.
  const int64_t reconnects_before =
      metrics::Registry::Global()->GetCounter("rpc.reconnects")->value();
  server = std::make_unique<EchoServer>();
  channel.ResetTarget(server->port());
  auto after = channel.CallSync(Method::kPing, "back", 2.0);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_GT(
      metrics::Registry::Global()->GetCounter("rpc.reconnects")->value(),
      reconnects_before);
}

TEST(RpcChannelTest, ShutdownFailsPendingCallsExactlyOnce) {
  EchoServer server;
  auto channel = std::make_unique<RpcChannel>("closing", server.port());
  std::atomic<int> fired{0};
  Status seen = Status::OK();
  std::mutex mu;
  channel->Call(Method::kRunGraph, "parked", nullptr, 0, 0.0,
                [&](const Status& s, std::string) {
                  std::lock_guard<std::mutex> l(mu);
                  seen = s;
                  ++fired;
                });
  // Give the call a moment to hit the wire so it is genuinely pending.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  channel->Shutdown();
  {
    std::lock_guard<std::mutex> l(mu);
    EXPECT_EQ(fired.load(), 1);
    EXPECT_FALSE(seen.ok());
  }
  channel.reset();
  EXPECT_EQ(fired.load(), 1);
}

// Every Method files its latencies under its own {method} series, on both
// sides of the wire.
TEST(RpcMetricsTest, EveryMethodHasItsOwnSeries) {
  RpcServer server;
  for (uint8_t m = 1; m <= kMaxMethod; ++m) {
    server.RegisterHandler(
        static_cast<Method>(m),
        [](const std::string&, std::shared_ptr<RpcServer::Responder> r) {
          r->Respond(Status::OK(), std::string());
        });
  }
  TF_CHECK_OK(server.Start(0));
  RpcChannel channel("metrics", server.port());
  // Touch the channel once so both per-method tables exist, then count
  // from a snapshot.
  ASSERT_TRUE(channel.CallSync(Method::kPing, "", 5.0).ok());
  auto count = [](const metrics::RegistrySnapshot& snap,
                  const std::string& name, Method m) -> int64_t {
    const metrics::MetricSnapshot* h =
        snap.Find(name, {{"method", MethodName(m)}});
    return h == nullptr ? -1 : h->count;
  };
  const metrics::RegistrySnapshot before =
      metrics::Registry::Global()->Snapshot();
  for (uint8_t m = 1; m <= kMaxMethod; ++m) {
    auto r = channel.CallSync(static_cast<Method>(m), "", 5.0);
    ASSERT_TRUE(r.ok()) << MethodName(static_cast<Method>(m)) << ": "
                        << r.status();
  }
  const metrics::RegistrySnapshot after =
      metrics::Registry::Global()->Snapshot();
  for (uint8_t m = 1; m <= kMaxMethod; ++m) {
    const Method method = static_cast<Method>(m);
    for (const char* name : {"rpc.call_latency_us", "rpc.server_handle_us"}) {
      ASSERT_GE(count(before, name, method), 0)
          << name << " has no series for " << MethodName(method);
      EXPECT_EQ(count(after, name, method) - count(before, name, method), 1)
          << name << "{method=" << MethodName(method) << "}";
    }
  }
}

// --- asynchronous, acknowledged cross-task Send (worker side) ---

constexpr char kWorkerDevice[] = "/job:worker/task:0/device:CPU:0";
constexpr char kPsDevice[] = "/job:ps/task:0/device:CPU:0";

// A worker partition that sends one tensor to another task; with
// `local_waiter`, it also parks a same-task Recv that no Send will ever
// satisfy, so the step can only end when something aborts it.
std::unique_ptr<Graph> CrossTaskSendPartition(bool local_waiter) {
  auto graph = std::make_unique<Graph>();
  GraphBuilder b(graph.get());
  {
    GraphBuilder::DeviceScope scope(&b, kWorkerDevice);
    Output x = ops::Const(&b, 1.0f);
    b.Op("_Send")
        .Name("send_x")
        .Input(x)
        .Attr("T", DataType::kFloat)
        .Attr("tensor_name", "x")
        .Attr("send_device", kWorkerDevice)
        .Attr("recv_device", kPsDevice)
        .Finalize();
    if (local_waiter) {
      b.Op("_Recv")
          .Name("local_wait")
          .Attr("tensor_type", DataType::kFloat)
          .Attr("tensor_name", "never_sent")
          .Attr("send_device", kWorkerDevice)
          .Attr("recv_device", kWorkerDevice)
          .Finalize();
    }
  }
  TF_CHECK_OK(b.status());
  for (Node* n : graph->nodes()) n->set_assigned_device(kWorkerDevice);
  return graph;
}

// One worker service in this process, its hub channel pointed at
// `hub_port`, driven through the same RemoteWorker stub the master uses.
struct WorkerRig {
  explicit WorkerRig(int hub_port) : service(Options(hub_port)) {
    TF_CHECK_OK(service.Start(0));
    stub = std::make_unique<RemoteWorker>("worker", 0, service.port(),
                                          /*rpc_deadline_seconds=*/10.0,
                                          /*injector=*/nullptr,
                                          /*delay_pool=*/nullptr);
  }
  static WorkerService::Options Options(int hub_port) {
    WorkerService::Options options;
    options.job = "worker";
    options.hub_port = hub_port;
    // Longer than any wait below: a failure must come from the ack itself,
    // not from the send deadline.
    options.rpc_deadline_seconds = 30.0;
    return options;
  }

  // Dispatches one step; `done` fires with the RunGraph status.
  void Run(int64_t step_id) {
    args.step_id = step_id;
    args.call_frame = &frame;
    stub->RunSubgraphsAsync("h", args, [this](Status s) {
      std::lock_guard<std::mutex> l(mu);
      status = s;
      finished = true;
      cv.notify_all();
    });
  }
  bool WaitFinished(double seconds) {
    std::unique_lock<std::mutex> l(mu);
    return cv.wait_for(l, std::chrono::duration<double>(seconds),
                       [this] { return finished; });
  }

  // Declared before the service and stub: tearing those down fails any
  // outstanding dispatch, whose callback still writes here.
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  Status status;
  CallFrame frame{{}, 0};
  Executor::Args args;
  WorkerService service;
  std::unique_ptr<RemoteWorker> stub;
};

TEST(WorkerSendAckTest, HubAbortedAckFailsStepAndAbortsLocalWaiters) {
  // A real hub with no step registered answers every SendTensor with
  // Aborted. The executors' Send returns before that ack; the ack must
  // still fail the step, and it must abort the same-task Recv that would
  // otherwise wait forever.
  RendezvousHub hub;
  TF_CHECK_OK(hub.Start());
  WorkerRig rig(hub.port());
  TF_CHECK_OK(rig.stub->RegisterSubgraph(
      "h", "seg", CrossTaskSendPartition(/*local_waiter=*/true),
      kWorkerDevice));
  const auto start = std::chrono::steady_clock::now();
  rig.Run(/*step_id=*/41);
  ASSERT_TRUE(rig.WaitFinished(10.0)) << "RunGraph hung on a failed ack";
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(rig.status.code(), Code::kAborted) << rig.status;
  EXPECT_NE(rig.status.message().find("step 41 is not active"),
            std::string::npos)
      << rig.status;
  EXPECT_LT(elapsed, 5.0);
}

TEST(WorkerServiceTest, FeedCountBeyondRunGraphBodyIsRejected) {
  // A RunGraph body claiming 2^60 feeds with none behind them gets an
  // error answer, not a feed vector sized by the count, and the worker
  // keeps serving.
  RendezvousHub hub;
  TF_CHECK_OK(hub.Start());
  WorkerRig rig(hub.port());
  std::string body;
  AppendString(&body, "h");
  AppendInt64(&body, /*step_id=*/43);
  AppendInt64(&body, /*num_fetches=*/0);
  AppendInt64(&body, /*num_feeds=*/int64_t{1} << 60);
  RpcChannel channel("worker", rig.service.port());
  Result<std::string> response =
      channel.CallSync(Method::kRunGraph, body, 10.0);
  ASSERT_TRUE(response.ok()) << response.status();
  size_t offset = 0;
  Status app;
  ASSERT_TRUE(ReadStatus(response.value(), &offset, &app));
  EXPECT_FALSE(app.ok());

  Result<std::string> ping = channel.CallSync(Method::kPing, "", 10.0);
  ASSERT_TRUE(ping.ok()) << ping.status();
  offset = 0;
  ASSERT_TRUE(ReadStatus(ping.value(), &offset, &app));
  EXPECT_TRUE(app.ok()) << app;
}

TEST(WorkerServiceTest, FetchCountIsBoundedByTheRegisteredSubgraphs) {
  // A short RunGraph body claiming 2^31 - 1 fetch slots: the step's frame
  // is sized by the registered subgraphs' _Fetch indices, never by the
  // wire, so nothing allocates 2^31 tensors and the worker keeps serving.
  RendezvousHub hub;
  TF_CHECK_OK(hub.Start());
  WorkerRig rig(hub.port());
  RpcChannel channel("worker", rig.service.port());
  auto run_graph = [&](const std::string& handle, int64_t num_fetches) {
    std::string body;
    AppendString(&body, handle);
    AppendInt64(&body, /*step_id=*/44);
    AppendInt64(&body, num_fetches);
    AppendInt64(&body, /*num_feeds=*/0);
    AppendInt64(&body, /*traced=*/0);
    Result<std::string> response =
        channel.CallSync(Method::kRunGraph, body, 10.0);
    if (!response.ok()) return response.status();
    Status app;
    size_t offset = 0;
    EXPECT_TRUE(ReadStatus(response.value(), &offset, &app));
    return app;
  };
  const int64_t kHuge = (int64_t{1} << 31) - 1;

  // Unknown handle: refused before anything is sized.
  EXPECT_EQ(run_graph("h", kHuge).code(), Code::kNotFound);

  // A registered subgraph filling fetch slot 1 needs a frame of two.
  auto graph = std::make_unique<Graph>();
  {
    GraphBuilder b(graph.get());
    GraphBuilder::DeviceScope scope(&b, kWorkerDevice);
    b.Op("_Fetch")
        .Input(ops::Const(&b, 1.0f))
        .Attr("T", DataType::kFloat)
        .Attr("index", int64_t{1})
        .Finalize();
    TF_CHECK_OK(b.status());
  }
  for (Node* n : graph->nodes()) n->set_assigned_device(kWorkerDevice);
  TF_CHECK_OK(
      rig.stub->RegisterSubgraph("f", "seg", std::move(graph), kWorkerDevice));
  EXPECT_EQ(run_graph("f", 1).code(), Code::kInvalidArgument);
  EXPECT_TRUE(run_graph("f", kHuge).ok());

  Result<std::string> ping = channel.CallSync(Method::kPing, "", 10.0);
  ASSERT_TRUE(ping.ok()) << ping.status();
  Status app;
  size_t offset = 0;
  ASSERT_TRUE(ReadStatus(ping.value(), &offset, &app));
  EXPECT_TRUE(app.ok()) << app;
}

TEST(WorkerSendAckTest, CutHubConnectionFailsStepInsteadOfOk) {
  // A hub that reads SendTensor frames but never acks them: the executors
  // finish at once, yet RunGraph must wait for the ack — and when the
  // connection is cut, fail with the transport error instead of OK.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::shared_ptr<RpcServer::Responder>> parked;
  RpcServer hub;  // destroyed (joined) before what its handler touches
  hub.RegisterHandler(
      Method::kSendTensor,
      [&](const std::string&, std::shared_ptr<RpcServer::Responder> r) {
        std::lock_guard<std::mutex> l(mu);
        parked.push_back(std::move(r));
        cv.notify_all();
      });
  TF_CHECK_OK(hub.Start(0));
  WorkerRig rig(hub.port());
  TF_CHECK_OK(rig.stub->RegisterSubgraph(
      "h", "seg", CrossTaskSendPartition(/*local_waiter=*/false),
      kWorkerDevice));
  rig.Run(/*step_id=*/42);
  {
    std::unique_lock<std::mutex> l(mu);
    ASSERT_TRUE(cv.wait_for(l, std::chrono::seconds(10),
                            [&] { return !parked.empty(); }));
  }
  EXPECT_FALSE(rig.WaitFinished(0.2)) << "answered with an ack in flight: "
                                      << rig.status;
  hub.Shutdown();
  ASSERT_TRUE(rig.WaitFinished(10.0)) << "RunGraph hung after the cut";
  EXPECT_EQ(rig.status.code(), Code::kUnavailable) << rig.status;
}

}  // namespace
}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro
