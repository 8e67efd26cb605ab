// Unit tests for the socket transport pieces (DESIGN.md §11): wire body
// helpers, frame I/O, minimal-copy tensor serialization, the errno→Status
// mapping the retry machinery depends on, and the RpcChannel robustness
// contract (deadlines, reconnect with backoff, fail-fast inside the
// backoff window, pending-call teardown), per-method RPC metrics, the
// worker's acknowledged cross-task Send, and tensors pushed from one
// worker service straight to another.

#include <gtest/gtest.h>

#include <cerrno>
#include <unistd.h>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "core/status.h"
#include "core/tensor.h"
#include "distributed/rpc/process_cluster.h"
#include "distributed/rpc/remote_worker.h"
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

// Every named Method files its latencies under its own {method} series, on
// both sides of the wire; a retired number has none.
TEST(RpcMetricsTest, EveryMethodHasItsOwnSeries) {
  std::vector<Method> named;
  for (uint8_t m = 1; m <= kMaxMethod; ++m) {
    if (std::string(MethodName(static_cast<Method>(m))) != "?") {
      named.push_back(static_cast<Method>(m));
    }
  }
  RpcServer server;
  for (Method m : named) {
    server.RegisterHandler(
        m, [](const std::string&, std::shared_ptr<RpcServer::Responder> r) {
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
  for (Method m : named) {
    auto r = channel.CallSync(m, "", 5.0);
    ASSERT_TRUE(r.ok()) << MethodName(m) << ": " << r.status();
  }
  const metrics::RegistrySnapshot after =
      metrics::Registry::Global()->Snapshot();
  for (const char* name : {"rpc.call_latency_us", "rpc.server_handle_us"}) {
    for (Method method : named) {
      ASSERT_GE(count(before, name, method), 0)
          << name << " has no series for " << MethodName(method);
      EXPECT_EQ(count(after, name, method) - count(before, name, method), 1)
          << name << "{method=" << MethodName(method) << "}";
    }
    EXPECT_EQ(after.Find(name, {{"method", "?"}}), nullptr)
        << name << " has a series for a retired method number";
  }
}

// --- asynchronous, acknowledged cross-task Send (worker side) ---

constexpr char kWorkerDevice[] = "/job:worker/task:0/device:CPU:0";
constexpr char kPsDevice[] = "/job:ps/task:0/device:CPU:0";

constexpr char kWorkerTask[] = "/job:worker/task:0";
constexpr char kPsTask[] = "/job:ps/task:0";

// A step's routing naming `ports` for the tasks it pushes to.
StepRouting Routing(const std::string& session, int64_t step_floor,
                    std::map<std::string, int64_t> ports) {
  StepRouting routing;
  routing.session = session;
  routing.step_floor = step_floor;
  routing.ports = std::move(ports);
  return routing;
}

// One worker service in this process, driven through the same RemoteWorker
// stub the master uses.
struct WorkerRig {
  WorkerRig(const std::string& job, int task)
      : service(Options(job, task)),
        stub(std::make_unique<RemoteWorker>(job, task, Started(&service),
                                            /*rpc_deadline_seconds=*/10.0)) {}
  static WorkerService::Options Options(const std::string& job, int task) {
    WorkerService::Options options;
    options.job = job;
    options.task_index = task;
    // Longer than any wait below: a failure must come from the ack itself,
    // not from the send deadline.
    options.rpc_deadline_seconds = 30.0;
    return options;
  }
  static int Started(WorkerService* service) {
    TF_CHECK_OK(service->Start(0));
    return service->port();
  }

  WorkerService service;
  std::unique_ptr<RemoteWorker> stub;
};

// One RunGraph dispatched through a rig's stub, as the master sends it.
// Shared with the stub's callback, which may outlive the test's wait.
struct RunGraphCall {
  explicit RunGraphCall(int num_fetches) : frame({}, num_fetches) {}

  bool Wait(double seconds) {
    std::unique_lock<std::mutex> l(mu);
    return cv.wait_for(l, std::chrono::duration<double>(seconds),
                       [this] { return finished; });
  }

  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  Status status;
  CallFrame frame;
  std::unique_ptr<SocketStepRendezvous> step;
  Executor::Args args;
};

std::shared_ptr<RunGraphCall> Dispatch(WorkerRig* rig,
                                       const std::string& handle,
                                       int64_t step_id,
                                       const StepRouting& routing,
                                       int num_fetches = 0) {
  auto call = std::make_shared<RunGraphCall>(num_fetches);
  call->step =
      std::make_unique<SocketStepRendezvous>(nullptr, step_id, routing);
  call->args.step_id = step_id;
  call->args.call_frame = &call->frame;
  call->args.rendezvous = call->step.get();
  rig->stub->RunSubgraphsAsync(handle, call->args, [call](Status s) {
    std::lock_guard<std::mutex> l(call->mu);
    call->status = s;
    call->finished = true;
    call->cv.notify_all();
  });
  return call;
}

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

void SendTo(GraphBuilder* b, Output value, const std::string& name,
            const std::string& from, const std::string& to) {
  b->Op("_Send")
      .Input(value)
      .Attr("T", DataType::kFloat)
      .Attr("tensor_name", name)
      .Attr("send_device", from)
      .Attr("recv_device", to)
      .Finalize();
}

Output RecvFrom(GraphBuilder* b, const std::string& name,
                const std::string& from, const std::string& to) {
  return b->Op("_Recv")
      .Attr("tensor_type", DataType::kFloat)
      .Attr("tensor_name", name)
      .Attr("send_device", from)
      .Attr("recv_device", to)
      .Finalize();
}

void FetchAt(GraphBuilder* b, Output value, int64_t index) {
  b->Op("_Fetch")
      .Input(value)
      .Attr("T", DataType::kFloat)
      .Attr("index", index)
      .Finalize();
}

// Builds one partition on `device` with `body` and registers it on `rig`
// under `handle`.
void Register(WorkerRig* rig, const std::string& handle,
              const std::string& device,
              const std::function<void(GraphBuilder*)>& body) {
  auto graph = std::make_unique<Graph>();
  {
    GraphBuilder b(graph.get());
    GraphBuilder::DeviceScope scope(&b, device);
    body(&b);
    TF_CHECK_OK(b.status());
  }
  for (Node* n : graph->nodes()) n->set_assigned_device(device);
  TF_CHECK_OK(rig->stub->RegisterSubgraph(handle, "seg", std::move(graph),
                                          device));
}

// A receiving peer that answers every pushed tensor through `handler`.
struct FakePeer {
  explicit FakePeer(RpcServer::Handler handler) {
    server.RegisterHandler(Method::kSendTensor, std::move(handler));
    TF_CHECK_OK(server.Start(0));
  }
  RpcServer server;
};

TEST(WorkerSendAckTest, PeerAbortedAckFailsStepAndAbortsLocalWaiters) {
  // The receiving task answers the push with Aborted, as a worker does for
  // a step below its floor. The executors' Send returns before that ack;
  // the ack must still fail the step, and it must abort the same-task Recv
  // that would otherwise wait forever.
  FakePeer peer([](const std::string&,
                   std::shared_ptr<RpcServer::Responder> r) {
    r->Respond(Aborted("step 41 is not active"), std::string());
  });
  WorkerRig rig("worker", 0);
  TF_CHECK_OK(rig.stub->RegisterSubgraph(
      "h", "seg", CrossTaskSendPartition(/*local_waiter=*/true),
      kWorkerDevice));
  const auto start = std::chrono::steady_clock::now();
  auto call = Dispatch(&rig, "h", /*step_id=*/41,
                       Routing("s", 0, {{kPsTask, peer.server.port()}}));
  ASSERT_TRUE(call->Wait(10.0)) << "RunGraph hung on a failed ack";
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(call->status.code(), Code::kAborted) << call->status;
  EXPECT_NE(call->status.message().find("step 41 is not active"),
            std::string::npos)
      << call->status;
  EXPECT_LT(elapsed, 5.0);
}

TEST(WorkerServiceTest, FeedCountBeyondRunGraphBodyIsRejected) {
  // A RunGraph body claiming 2^60 feeds with none behind them gets an
  // error answer, not a feed vector sized by the count, and the worker
  // keeps serving.
  WorkerRig rig("worker", 0);
  std::string body;
  AppendString(&body, "h");
  AppendInt64(&body, /*step_id=*/43);
  AppendInt64(&body, /*num_fetches=*/0);
  AppendInt64(&body, /*num_feeds=*/int64_t{1} << 60);
  Routing("s", 0, {}).AppendToBytes(&body);
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
  WorkerRig rig("worker", 0);
  RpcChannel channel("worker", rig.service.port());
  auto run_graph = [&](const std::string& handle, int64_t num_fetches) {
    std::string body;
    AppendString(&body, handle);
    AppendInt64(&body, /*step_id=*/44);
    AppendInt64(&body, num_fetches);
    AppendInt64(&body, /*num_feeds=*/0);
    AppendInt64(&body, /*traced=*/0);
    Routing("s", 0, {}).AppendToBytes(&body);
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

TEST(WorkerServiceTest, RoutingOutsideItsRangeIsRejected) {
  // A port that is no TCP port makes the RunGraph malformed.
  WorkerRig rig("worker", 0);
  Register(&rig, "f", kWorkerDevice,
           [](GraphBuilder* b) { FetchAt(b, ops::Const(b, 1.0f), 0); });
  RpcChannel channel("worker", rig.service.port());
  auto run_graph = [&](const StepRouting& routing) {
    std::string body;
    AppendString(&body, "f");
    AppendInt64(&body, /*step_id=*/45);
    AppendInt64(&body, /*num_fetches=*/1);
    AppendInt64(&body, /*num_feeds=*/0);
    AppendInt64(&body, /*traced=*/0);
    routing.AppendToBytes(&body);
    Result<std::string> response =
        channel.CallSync(Method::kRunGraph, body, 10.0);
    if (!response.ok()) return response.status();
    Status app;
    size_t offset = 0;
    EXPECT_TRUE(ReadStatus(response.value(), &offset, &app));
    return app;
  };
  EXPECT_TRUE(run_graph(Routing("s", 0, {{kPsTask, 80}})).ok());
  EXPECT_EQ(run_graph(Routing("s", 0, {{kPsTask, int64_t{1} << 40}})).code(),
            Code::kInvalidArgument);
}

TEST(WorkerSendAckTest, CutPeerConnectionFailsStepInsteadOfOk) {
  // A receiving peer that reads SendTensor frames but never acks them: the
  // executors finish at once, yet RunGraph must wait for the ack — and
  // when the connection is cut, fail with the transport error instead of
  // OK.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::shared_ptr<RpcServer::Responder>> parked;
  // Destroyed (joined) before what its handler touches.
  FakePeer peer([&](const std::string&,
                    std::shared_ptr<RpcServer::Responder> r) {
    std::lock_guard<std::mutex> l(mu);
    parked.push_back(std::move(r));
    cv.notify_all();
  });
  WorkerRig rig("worker", 0);
  TF_CHECK_OK(rig.stub->RegisterSubgraph(
      "h", "seg", CrossTaskSendPartition(/*local_waiter=*/false),
      kWorkerDevice));
  auto call = Dispatch(&rig, "h", /*step_id=*/42,
                       Routing("s", 0, {{kPsTask, peer.server.port()}}));
  {
    std::unique_lock<std::mutex> l(mu);
    ASSERT_TRUE(cv.wait_for(l, std::chrono::seconds(10),
                            [&] { return !parked.empty(); }));
  }
  EXPECT_FALSE(call->Wait(0.2)) << "answered with an ack in flight: "
                                << call->status;
  peer.server.Shutdown();
  ASSERT_TRUE(call->Wait(10.0)) << "RunGraph hung after the cut";
  EXPECT_EQ(call->status.code(), Code::kUnavailable) << call->status;
}

// --- tensors pushed from one worker service straight to another ---

// A sender on /job:worker/task:0 and a receiver on /job:ps/task:0. The
// sender's handles "send1" and "send2" push 1.0 and 2.0 as "x"; the
// receiver's "recv" fetches "x" into slot 0.
struct PushRig {
  PushRig() {
    for (float v : {1.0f, 2.0f}) {
      Register(&sender, "send" + std::to_string(static_cast<int>(v)),
               kWorkerDevice, [v](GraphBuilder* b) {
                 SendTo(b, ops::Const(b, v), "x", kWorkerDevice, kPsDevice);
               });
    }
    Register(&receiver, "recv", kPsDevice, [](GraphBuilder* b) {
      FetchAt(b, RecvFrom(b, "x", kWorkerDevice, kPsDevice), 0);
    });
  }
  StepRouting Route(const std::string& session, int64_t step_floor) {
    return Routing(session, step_floor,
                   {{kWorkerTask, sender.service.port()},
                    {kPsTask, receiver.service.port()}});
  }
  // Runs `send` for (session, step) and waits for its ack-gated answer.
  void Push(const std::string& send, const std::string& session,
            int64_t step_id, int64_t step_floor = 0) {
    auto call = Dispatch(&sender, send, step_id, Route(session, step_floor));
    ASSERT_TRUE(call->Wait(10.0));
    ASSERT_TRUE(call->status.ok()) << call->status;
  }
  // Dispatches "recv" for (session, step); it fetches into slot 0.
  std::shared_ptr<RunGraphCall> Receive(const std::string& session,
                                        int64_t step_id, int64_t step_floor) {
    return Dispatch(&receiver, "recv", step_id, Route(session, step_floor),
                    /*num_fetches=*/1);
  }

  WorkerRig sender{"worker", 0};
  WorkerRig receiver{"ps", 0};
};

TEST(DirectTransferTest, PushBeforeRunGraphIsAdopted) {
  // The push lands first and creates the receiver's step context; the
  // receiver's RunGraph then adopts it and fetches the value bit for bit.
  WorkerRig sender("worker", 0);
  WorkerRig receiver("ps", 0);
  std::vector<float> values(4099);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = std::ldexp(static_cast<float>(i) - 2049.5f, -7) /
                static_cast<float>(i + 3);
  }
  const Tensor sent =
      Tensor::FromVector<float>(values, TensorShape({4099}));
  Register(&sender, "send", kWorkerDevice, [&](GraphBuilder* b) {
    SendTo(b, ops::Const(b, sent), "x", kWorkerDevice, kPsDevice);
  });
  Register(&receiver, "recv", kPsDevice, [](GraphBuilder* b) {
    FetchAt(b, RecvFrom(b, "x", kWorkerDevice, kPsDevice), 0);
  });
  const StepRouting routing =
      Routing("s", 1, {{kWorkerTask, sender.service.port()},
                       {kPsTask, receiver.service.port()}});

  auto send = Dispatch(&sender, "send", 5, routing);
  ASSERT_TRUE(send->Wait(10.0));
  ASSERT_TRUE(send->status.ok()) << send->status;
  EXPECT_EQ(receiver.service.num_step_contexts(), 1);

  auto recv = Dispatch(&receiver, "recv", 5, routing, /*num_fetches=*/1);
  ASSERT_TRUE(recv->Wait(10.0));
  ASSERT_TRUE(recv->status.ok()) << recv->status;
  const Tensor& got = recv->frame.fetches()[0];
  ASSERT_EQ(got.TotalBytes(), sent.TotalBytes());
  EXPECT_EQ(std::memcmp(got.raw_data(), sent.raw_data(), sent.TotalBytes()),
            0);
  EXPECT_EQ(receiver.service.num_step_contexts(), 0);
  EXPECT_EQ(sender.service.num_step_contexts(), 0);
}

TEST(DirectTransferTest, EightMegabyteExchangeBothWaysDoesNotWedge) {
  // Each task pushes 8 MB to the other, which adds 1 and pushes the result
  // back six times, all in one step. A receiver that delivered on its
  // server's reader thread would run the Add and the six Sends there, and
  // both readers would block writing 48 MB — more than a localhost
  // connection buffers — to a peer whose reader is blocked the same way.
  constexpr int64_t kElems = int64_t{1} << 21;  // 8 MB of floats
  constexpr int kBacks = 6;
  WorkerRig a("worker", 0);
  WorkerRig b("ps", 0);
  auto swap = [](const std::string& self, const std::string& other,
                 const std::string& mine, const std::string& theirs) {
    return [=](GraphBuilder* g) {
      Output ones =
          ops::Fill(g, ops::Const(g, Tensor::Vec<int32_t>({int32_t{kElems}})),
                    ops::Const(g, 1.0f));
      SendTo(g, ones, "out_" + mine, self, other);
      Output in = RecvFrom(g, "out_" + theirs, other, self);
      Output plus_one = ops::Add(g, in, ops::Const(g, 1.0f));
      for (int i = 0; i < kBacks; ++i) {
        const std::string back = "back_" + theirs + std::to_string(i);
        SendTo(g, plus_one, back, self, other);
      }
      for (int i = 0; i < kBacks; ++i) {
        Output back =
            RecvFrom(g, "back_" + mine + std::to_string(i), other, self);
        if (i == 0) FetchAt(g, ops::SumAll(g, back), 0);
      }
    };
  };
  Register(&a, "swap", kWorkerDevice, swap(kWorkerDevice, kPsDevice, "a", "b"));
  Register(&b, "swap", kPsDevice, swap(kPsDevice, kWorkerDevice, "b", "a"));
  const auto start = std::chrono::steady_clock::now();
  for (int64_t step = 1; step <= 20; ++step) {
    const StepRouting routing =
        Routing("s", step, {{kWorkerTask, a.service.port()},
                            {kPsTask, b.service.port()}});
    auto on_a = Dispatch(&a, "swap", step, routing, /*num_fetches=*/1);
    auto on_b = Dispatch(&b, "swap", step, routing, /*num_fetches=*/1);
    ASSERT_TRUE(on_a->Wait(30.0)) << "step " << step << " wedged";
    ASSERT_TRUE(on_b->Wait(30.0)) << "step " << step << " wedged";
    ASSERT_TRUE(on_a->status.ok()) << on_a->status;
    ASSERT_TRUE(on_b->status.ok()) << on_b->status;
    EXPECT_EQ(*on_a->frame.fetches()[0].data<float>(), 2.0f * kElems);
    EXPECT_EQ(*on_b->frame.fetches()[0].data<float>(), 2.0f * kElems);
  }
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            60.0);
}

TEST(DirectTransferTest, UnadoptedPushStaysInItsSessionUntilTheFloor) {
  // Two sessions both count steps from 1. Session A's push for step 5 is
  // never adopted; session B's step 5 must see only B's own push, and the
  // floor A's next step carries drops the leftover.
  PushRig rig;
  rig.Push("send1", "A", 5);
  EXPECT_EQ(rig.receiver.service.num_step_contexts(), 1);

  auto recv_b = rig.Receive("B", 5, /*step_floor=*/5);
  EXPECT_FALSE(recv_b->Wait(0.2)) << "B's step 5 took A's push: "
                                  << recv_b->status;
  rig.Push("send2", "B", 5, /*step_floor=*/5);
  ASSERT_TRUE(recv_b->Wait(10.0));
  ASSERT_TRUE(recv_b->status.ok()) << recv_b->status;
  EXPECT_EQ(*recv_b->frame.fetches()[0].data<float>(), 2.0f);
  EXPECT_EQ(rig.receiver.service.num_step_contexts(), 1);  // A's leftover

  auto recv_a = rig.Receive("A", 6, /*step_floor=*/6);
  rig.Push("send1", "A", 6, /*step_floor=*/6);
  ASSERT_TRUE(recv_a->Wait(10.0));
  ASSERT_TRUE(recv_a->status.ok()) << recv_a->status;
  EXPECT_EQ(*recv_a->frame.fetches()[0].data<float>(), 1.0f);
  EXPECT_EQ(rig.receiver.service.num_step_contexts(), 0);
  EXPECT_EQ(rig.sender.service.num_step_contexts(), 0);
}

TEST(DirectTransferTest, PushAfterCancelStepLeavesNoContextPastTheFloor) {
  // Step 7 was aborted elsewhere and cancelled here before the sender's
  // push landed: the push makes a context no RunGraph will adopt, and the
  // floor step 8 carries drops it. A push below the floor is refused.
  PushRig rig;
  std::string cancel;
  AppendString(&cancel, "C");
  AppendInt64(&cancel, 7);
  AppendStatus(&cancel, Aborted("step 7 failed elsewhere"));
  RpcChannel channel("ps", rig.receiver.service.port());
  ASSERT_TRUE(channel.CallSync(Method::kCancelStep, cancel, 10.0).ok());
  rig.Push("send1", "C", 7);
  EXPECT_EQ(rig.receiver.service.num_step_contexts(), 1);

  auto recv = rig.Receive("C", 8, /*step_floor=*/8);
  rig.Push("send2", "C", 8, /*step_floor=*/8);
  ASSERT_TRUE(recv->Wait(10.0));
  ASSERT_TRUE(recv->status.ok()) << recv->status;
  EXPECT_EQ(*recv->frame.fetches()[0].data<float>(), 2.0f);
  EXPECT_EQ(rig.receiver.service.num_step_contexts(), 0);

  std::string late;
  AppendString(&late, "C");
  AppendInt64(&late, 7);
  AppendString(&late, "x");
  AppendInt64(&late, /*is_dead=*/0);
  Tensor::Scalar(1.0f).AppendToBytes(&late);
  Result<std::string> answer =
      channel.CallSync(Method::kSendTensor, late, 10.0);
  ASSERT_TRUE(answer.ok()) << answer.status();
  Status ack;
  size_t offset = 0;
  ASSERT_TRUE(ReadStatus(answer.value(), &offset, &ack));
  EXPECT_EQ(ack.code(), Code::kAborted) << ack;
  EXPECT_EQ(rig.receiver.service.num_step_contexts(), 0);
}

}  // namespace
}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro
