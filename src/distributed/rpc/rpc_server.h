// Server side of the socket transport (DESIGN.md §11). Each worker_main
// runs one for its worker service, which answers the master and the peers
// that push it tensors; a data-service task runs another. An accept thread
// hands each connection to its own reader thread; handlers run inline on
// the reader thread and respond through a Responder, which may be held
// past the handler's return (RunGraph answers when the step's executors
// finish and its sends are acknowledged, SendTensor once the pushed value
// is delivered off the reader thread).
//
// Response frames echo the request_id and method and carry
// [status code, status message, method payload...] in the body, written
// under a per-connection mutex so inline and deferred responses interleave
// safely. A Responder whose connection died drops the response on the
// floor — the client's reader noticed the same death and already failed
// the call.

#ifndef TFREPRO_DISTRIBUTED_RPC_RPC_SERVER_H_
#define TFREPRO_DISTRIBUTED_RPC_RPC_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "distributed/rpc/wire.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

class RpcServer {
 public:
  // Answers one request; safe to call from any thread, exactly once.
  class Responder {
   public:
    Responder(std::shared_ptr<void> conn, uint64_t request_id, uint8_t method);

    // `body` is the method payload; the application status is prepended.
    // The optional payload is gathered after the body (minimal-copy tensor
    // reply) and must stay alive for the duration of the call.
    void Respond(const Status& status, const std::string& body,
                 const char* payload = nullptr, size_t payload_len = 0);

   private:
    std::shared_ptr<void> conn_;  // keeps the connection alive
    uint64_t request_id_;
    uint8_t method_;
    // When the request was parsed off the wire; Respond records the
    // elapsed server handling time as rpc.server_handle_us (per method).
    int64_t start_micros_;
    std::atomic<bool> responded_{false};
  };

  using Handler = std::function<void(const std::string& body,
                                     std::shared_ptr<Responder> responder)>;

  RpcServer() = default;
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  // All handlers must be registered before Start.
  void RegisterHandler(Method method, Handler handler);

  // Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts the
  // accept thread.
  Status Start(int port);
  int port() const { return port_; }

  // Stops accepting, severs every connection and joins all threads.
  // Pending Responders outlive this safely (they drop their responses).
  // Idempotent.
  void Shutdown();

 private:
  struct Conn;
  void AcceptLoop();
  void ConnLoop(std::shared_ptr<Conn> conn);

  std::map<uint8_t, Handler> handlers_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> shutdown_{false};
  std::thread accept_thread_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_RPC_RPC_SERVER_H_
