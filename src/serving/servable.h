// Servable: one immutable, versioned, ready-to-serve model — a frozen
// inference graph (see freeze.h) compiled into a DirectSession whose step
// signature is pre-warmed. A Servable never changes after Create: model
// upgrades publish a NEW Servable under the next version and the manager
// swaps the routing pointer (model_manager.h), so a servable handed to a
// request stays valid (ref-counted via shared_ptr) until the last in-flight
// request finishes — the zero-downtime hot-swap protocol.
//
// Run() is safe from any number of threads concurrently (the session's
// concurrent-Run guarantees, distributed/master.h; the frozen graph holds no mutable state on the
// inference path).

#ifndef TFREPRO_SERVING_SERVABLE_H_
#define TFREPRO_SERVING_SERVABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "graph/graph.h"
#include "runtime/session.h"

namespace tfrepro {
namespace serving {

// Names the serving interface of a model: one batched input placeholder and
// the outputs to fetch. All tensors carry the batch dimension in dim 0.
struct SignatureDef {
  std::string input;                 // feed name ("x")
  std::vector<std::string> outputs;  // fetch names ("logits", "probs:0")
};

class Servable {
 public:
  struct Options {
    SessionOptions session;
  };

  // Compiles `frozen_graph` (which must contain no Variable nodes — freeze
  // first) into a session and pre-warms the signature's executors, so the
  // first request — and every concurrent first request — runs on the cached
  // fast path.
  static Result<std::shared_ptr<const Servable>> Create(
      const Graph& frozen_graph, SignatureDef signature, int64_t version,
      const Options& options = Options());

  // Runs one batch: `batch` feeds the signature input ([n, ...example]),
  // `outputs` receives one tensor per signature output (dim 0 == n).
  // Thread-safe.
  Status Run(const Tensor& batch, std::vector<Tensor>* outputs) const;

  int64_t version() const { return version_; }
  const SignatureDef& signature() const { return signature_; }

 private:
  Servable(SignatureDef signature, int64_t version,
           std::unique_ptr<DirectSession> session)
      : signature_(std::move(signature)),
        version_(version),
        session_(std::move(session)) {}

  const SignatureDef signature_;
  const int64_t version_;
  const std::unique_ptr<DirectSession> session_;
};

}  // namespace serving
}  // namespace tfrepro

#endif  // TFREPRO_SERVING_SERVABLE_H_
