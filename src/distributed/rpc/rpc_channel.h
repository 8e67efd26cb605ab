// Client side of the socket transport (DESIGN.md §11): one RpcChannel per
// peer process, multiplexing concurrent calls over a single TCP connection.
//
// Robustness contract:
//   * Per-call deadlines: a call with deadline_seconds > 0 completes with
//     retryable DeadlineExceeded when no response arrives in time (a
//     dedicated sweeper thread enforces this even when the connection
//     stays healthy but the peer is wedged).
//   * Reconnect with exponential backoff + jitter: a lost connection marks
//     the channel disconnected and stamps the next allowed attempt; calls
//     before that stamp fail fast with Unavailable, the first call after
//     it redials (rpc.reconnects). Backoff doubles per failed dial up to a
//     cap and resets on success; jitter decorrelates a fleet of masters
//     redialing a restarted worker.
//   * Dead-peer errors are errno-mapped Status (ECONNRESET / EPIPE /
//     ECONNREFUSED -> Unavailable) so Status::IsRetryable() is true and
//     the master's step retry loop treats a killed process like any other
//     transient fault.
//   * A write that fails before the frame is fully flushed is retried once
//     on a fresh connection (rpc.send_retries) — the peer cannot have
//     parsed a half-written frame, so the retry cannot double-execute.
//     Fully-written requests are NEVER resent; delivery-uncertain failures
//     surface to the caller (the master's step retry owns those).
//   * Shutdown / target reset fail every pending call immediately; no
//     callback is ever dropped silently.

#ifndef TFREPRO_DISTRIBUTED_RPC_RPC_CHANNEL_H_
#define TFREPRO_DISTRIBUTED_RPC_RPC_CHANNEL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "distributed/rpc/wire.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

class RpcChannel {
 public:
  struct Options {
    double connect_timeout_seconds = 2.0;
    double backoff_initial_seconds = 0.005;
    double backoff_max_seconds = 0.25;
    // Each backoff wait is scaled by a uniform factor in
    // [1 - fraction, 1 + fraction].
    double backoff_jitter_fraction = 0.25;
  };

  // `peer` names the remote end in error messages ("/job:ps/task:0"). The
  // channel dials lazily on the first call.
  RpcChannel(std::string peer, int port) : RpcChannel(peer, port, Options()) {}
  RpcChannel(std::string peer, int port, const Options& options);
  ~RpcChannel();

  RpcChannel(const RpcChannel&) = delete;
  RpcChannel& operator=(const RpcChannel&) = delete;

  // Transport status + raw response body (which itself starts with the
  // application Status — see server framing). `done` fires exactly once,
  // possibly inline on the calling thread (fail-fast paths) or from the
  // reader/sweeper thread.
  using Callback = std::function<void(const Status&, std::string)>;

  // `payload`, when non-null, is gathered into the frame after `body`
  // (minimal-copy tensor send) and must stay alive for the duration of the
  // Call invocation only — frames are written synchronously.
  // deadline_seconds <= 0 means no deadline (the call still fails when the
  // connection dies).
  void Call(Method method, std::string body, const char* payload,
            size_t payload_len, double deadline_seconds, Callback done);

  Result<std::string> CallSync(Method method, const std::string& body,
                               double deadline_seconds) {
    return CallSync(method, body, nullptr, 0, deadline_seconds);
  }
  Result<std::string> CallSync(Method method, const std::string& body,
                               const char* payload, size_t payload_len,
                               double deadline_seconds);

  // Points the channel at a restarted peer: drops the connection, fails
  // every pending call with Unavailable, clears the backoff stamp so the
  // next call dials immediately.
  void ResetTarget(int port);

  // Fails pending calls with Cancelled and joins the reader/sweeper
  // threads. Idempotent; the destructor calls it.
  void Shutdown();

 private:
  struct Pending {
    Callback done;
    int64_t deadline_micros = 0;  // 0 = none
  };

  // Dials if disconnected and the backoff stamp allows; updates backoff
  // state on failure. Must hold mu_.
  Status EnsureConnectedLocked();
  // Detaches every pending call into `out` (for invocation outside the
  // lock). Must hold mu_.
  void TakePendingLocked(std::vector<Pending>* out);
  // Shuts the socket down so a blocked reader unblocks and marks the
  // channel disconnected. Must hold mu_. The reader closes the fd on exit.
  void CloseConnLocked();
  // Owns `fd`: reads responses until the connection dies, then closes it.
  void ReaderLoop(int fd);
  void SweepLoop();
  double NextJitterFactor();  // must hold mu_

  const std::string peer_;
  const Options options_;

  mutable std::mutex mu_;
  int port_;
  int fd_ = -1;
  bool shutdown_ = false;
  bool ever_connected_ = false;
  uint64_t next_request_id_ = 1;
  std::map<uint64_t, Pending> pending_;

  // Reconnect backoff state.
  double backoff_seconds_;
  int64_t next_attempt_micros_ = 0;
  uint64_t jitter_state_;

  // Reader for the current connection; joined before redialing (it exits
  // as soon as its fd dies). The sweeper starts lazily with the first
  // deadline-bearing call and lives until Shutdown.
  std::thread reader_;
  std::thread sweeper_;
  std::condition_variable sweep_cv_;
  // When the sweeper next rescans pending_ on its own; a call whose
  // deadline falls later need not wake it.
  int64_t sweep_wake_micros_ = 0;
};

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_RPC_RPC_CHANNEL_H_
