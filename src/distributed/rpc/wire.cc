#include "distributed/rpc/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <vector>

#include "core/metrics.h"

namespace tfrepro {
namespace distributed {
namespace rpc {

namespace {

// A write to a peer that was SIGKILLed mid-conversation raises SIGPIPE,
// which by default kills *this* process — the opposite of fault tolerance.
// Ignored once, lazily, before the first socket exists, so writes surface
// EPIPE and flow through StatusFromErrno like every other failure.
void IgnoreSigPipe() {
  static const bool once = []() {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)once;
}

metrics::Counter* BytesSentCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global()->GetCounter("rpc.bytes_sent");
  return c;
}

metrics::Counter* BytesRecvCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global()->GetCounter("rpc.bytes_recv");
  return c;
}

// Reads exactly n bytes. *clean_eof is set when the peer closed before the
// first byte (a frame-boundary EOF, i.e. orderly or abrupt shutdown between
// messages).
Status ReadFull(int fd, char* buf, size_t n, bool* clean_eof) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      if (clean_eof != nullptr && got == 0) {
        *clean_eof = true;
        return Unavailable("connection closed by peer");
      }
      return DataLoss("connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    return StatusFromErrno(errno, "read");
  }
  return Status::OK();
}

}  // namespace

const char* MethodName(Method m) {
  switch (m) {
    case Method::kRegisterSubgraph: return "RegisterSubgraph";
    case Method::kRunGraph: return "RunGraph";
    case Method::kPing: return "Ping";
    case Method::kHasSubgraphs: return "HasSubgraphs";
    case Method::kCancelStep: return "CancelStep";
    case Method::kShutdown: return "Shutdown";
    case Method::kSendTensor: return "SendTensor";
    case Method::kGetElement: return "GetElement";
  }
  return "?";
}

MethodHistograms::MethodHistograms(const std::string& name) {
  const std::vector<double> buckets = {10,      40,      160,    640,
                                       2560,    10240,   40960,  163840,
                                       655360,  2621440, 10485760};
  for (uint8_t m = 1; m <= kMaxMethod; ++m) {
    const std::string method = MethodName(static_cast<Method>(m));
    if (method == "?") continue;  // a retired number
    hists_[m] = metrics::Registry::Global()->GetHistogram(
        name, buckets, {{"method", method}});
  }
}

metrics::Histogram* MethodHistograms::get(uint8_t method) const {
  return method < hists_.size() ? hists_[method] : nullptr;
}

void AppendStatus(std::string* out, const Status& s) {
  AppendInt64(out, static_cast<int64_t>(s.code()));
  AppendString(out, s.ok() ? std::string() : s.message());
}

bool ReadStatus(const std::string& in, size_t* offset, Status* s) {
  int64_t code = 0;
  std::string message;
  if (!ReadInt64(in, offset, &code) || !ReadString(in, offset, &message)) {
    return false;
  }
  *s = code == 0 ? Status::OK()
                 : Status(static_cast<Code>(code), std::move(message));
  return true;
}

void AppendTensorMeta(const Tensor& t, std::string* body,
                      const char** payload_data, size_t* payload_len) {
  *payload_data = nullptr;
  *payload_len = 0;
  if (!t.IsInitialized() || t.dtype() == DataType::kString) {
    // Header-only / element-wise encodings: no flat buffer to gather.
    t.AppendToBytes(body);
    return;
  }
  AppendInt64(body, static_cast<int64_t>(t.dtype()));
  AppendShape(body, t.shape());
  *payload_data = t.raw_data();
  *payload_len = t.TotalBytes();
}

Result<int> ListenLocalhost(int port, int* bound_port) {
  IgnoreSigPipe();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return StatusFromErrno(errno, "socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = StatusFromErrno(errno, "bind 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    Status s = StatusFromErrno(errno, "listen");
    ::close(fd);
    return s;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      Status s = StatusFromErrno(errno, "getsockname");
      ::close(fd);
      return s;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<int> AcceptConnection(int listen_fd) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno == EINTR) continue;
    return StatusFromErrno(errno, "accept");
  }
}

Result<int> ConnectLocalhost(int port, double timeout_seconds) {
  IgnoreSigPipe();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return StatusFromErrno(errno, "socket");
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string target = "connect 127.0.0.1:" + std::to_string(port);

  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Status s = StatusFromErrno(errno, target);
    ::close(fd);
    return s;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int timeout_ms = timeout_seconds <= 0
                         ? 0
                         : static_cast<int>(timeout_seconds * 1000.0);
    int pr;
    do {
      pr = ::poll(&pfd, 1, timeout_ms);
    } while (pr < 0 && errno == EINTR);
    if (pr == 0) {
      ::close(fd);
      return DeadlineExceeded(target + ": handshake timed out after " +
                              std::to_string(timeout_seconds) + "s");
    }
    if (pr < 0) {
      Status s = StatusFromErrno(errno, target + ": poll");
      ::close(fd);
      return s;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      Status s = StatusFromErrno(err != 0 ? err : errno, target);
      ::close(fd);
      return s;
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for frame I/O
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status WriteFrame(int fd, uint64_t request_id, bool is_response,
                  uint8_t method, const std::string& body,
                  const char* payload, size_t payload_len) {
  char header[4 + 8 + 1 + 1];
  const uint32_t frame_len = static_cast<uint32_t>(
      sizeof(header) - 4 + body.size() + payload_len);
  if (frame_len > kMaxFrameBytes) {
    return InvalidArgument("frame too large: " + std::to_string(frame_len));
  }
  std::memcpy(header, &frame_len, 4);
  std::memcpy(header + 4, &request_id, 8);
  header[12] = is_response ? 1 : 0;
  header[13] = static_cast<char>(method);

  iovec iov[3];
  iov[0].iov_base = header;
  iov[0].iov_len = sizeof(header);
  iov[1].iov_base = const_cast<char*>(body.data());
  iov[1].iov_len = body.size();
  iov[2].iov_base = const_cast<char*>(payload);
  iov[2].iov_len = payload_len;
  int iovcnt = payload_len > 0 ? 3 : 2;

  size_t total = sizeof(header) + body.size() + payload_len;
  size_t written = 0;
  int first = 0;
  while (written < total) {
    ssize_t w = ::writev(fd, iov + first, iovcnt - first);
    if (w < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno(errno, "writev");
    }
    written += static_cast<size_t>(w);
    // Advance the iovec cursor past fully-written segments.
    size_t advanced = static_cast<size_t>(w);
    while (first < iovcnt && advanced >= iov[first].iov_len) {
      advanced -= iov[first].iov_len;
      ++first;
    }
    if (first < iovcnt && advanced > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + advanced;
      iov[first].iov_len -= advanced;
    }
  }
  BytesSentCounter()->Increment(static_cast<int64_t>(total));
  return Status::OK();
}

Result<Frame> ReadFrame(int fd) {
  char len_buf[4];
  bool clean_eof = false;
  TF_RETURN_IF_ERROR(ReadFull(fd, len_buf, sizeof(len_buf), &clean_eof));
  uint32_t frame_len = 0;
  std::memcpy(&frame_len, len_buf, 4);
  if (frame_len < 10 || frame_len > kMaxFrameBytes) {
    return DataLoss("corrupt frame length " + std::to_string(frame_len));
  }
  char meta[10];
  TF_RETURN_IF_ERROR(ReadFull(fd, meta, sizeof(meta), nullptr));
  Frame frame;
  std::memcpy(&frame.request_id, meta, 8);
  frame.is_response = meta[8] != 0;
  frame.method = static_cast<uint8_t>(meta[9]);
  frame.body.resize(frame_len - sizeof(meta));
  if (!frame.body.empty()) {
    TF_RETURN_IF_ERROR(ReadFull(fd, frame.body.data(), frame.body.size(),
                                nullptr));
  }
  BytesRecvCounter()->Increment(static_cast<int64_t>(4 + frame_len));
  return frame;
}

}  // namespace rpc
}  // namespace distributed
}  // namespace tfrepro
