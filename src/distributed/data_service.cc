#include "distributed/data_service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "core/metrics.h"
#include "runtime/device.h"

namespace tfrepro {
namespace distributed {

namespace {

metrics::Counter* ServedCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global()->GetCounter("data.service_elements");
  return c;
}

metrics::Counter* RetransmitsCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global()->GetCounter("data.service_retransmits");
  return c;
}

metrics::Counter* ClientRetriesCounter() {
  static metrics::Counter* c =
      metrics::Registry::Global()->GetCounter("data.service_client_retries");
  return c;
}

metrics::Gauge* BufferGauge() {
  static metrics::Gauge* g =
      metrics::Registry::Global()->GetGauge("data.service_buffer");
  return g;
}

metrics::Histogram* ClientWaitHistogram() {
  static metrics::Histogram* h =
      metrics::Registry::Global()->GetHistogram("data.service_wait_ms");
  return h;
}

}  // namespace

using data::Element;
using data::IteratorContext;

// ---------------------------------------------------------------------------
// DataServiceHandler
// ---------------------------------------------------------------------------

DataServiceHandler::DataServiceHandler(IteratorFactory factory,
                                       Options options)
    : options_(options) {
  consumers_.resize(options_.num_consumers > 0 ? options_.num_consumers : 1);
  if (options_.num_consumers < 1) {
    init_status_ = InvalidArgument("data service needs num_consumers >= 1");
    return;
  }
  if (!factory) {
    init_status_ = InvalidArgument("data service needs an iterator factory");
    return;
  }
  auto it = factory();
  if (!it.ok()) {
    init_status_ = it.status();
    return;
  }
  iterator_ = std::move(it.value());
}

DataServiceHandler::~DataServiceHandler() { Cancel(); }

void DataServiceHandler::Cancel() {
  cancelled_.store(true);
  // iterator_ is set once in the constructor and never reassigned, and
  // IteratorBase::Cancel is callable from any thread — no lock needed, which
  // matters: a request thread may be blocked in GetNext under mu_ right now.
  if (iterator_ != nullptr) iterator_->Cancel();
}

void DataServiceHandler::HandleGetElement(
    const std::string& body,
    const std::function<void(const Status&, const std::string&)>& respond) {
  size_t off = 0;
  int64_t consumer = 0;
  int64_t cursor = 0;
  if (!ReadInt64(body, &off, &consumer) ||
      !ReadInt64(body, &off, &cursor)) {
    respond(InvalidArgument("malformed GetElement request"), std::string());
    return;
  }

  std::string resp;
  Status status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    status = [&]() -> Status {
      if (cancelled_.load()) return Cancelled("data service shut down");
      if (!init_status_.ok()) return init_status_;
      const int64_t n = options_.num_consumers;
      if (consumer < 0 || consumer >= n) {
        return InvalidArgument("consumer " + std::to_string(consumer) +
                               " out of range [0, " + std::to_string(n) + ")");
      }
      if (cursor < 0) {
        return InvalidArgument("negative cursor " + std::to_string(cursor));
      }
      ConsumerState& cs = consumers_[consumer];
      if (cursor == cs.last_cursor) {
        // The consumer never saw our previous answer (lost response, client
        // retry after a deadline): retransmit the cached body verbatim so
        // the element is delivered exactly once, never re-served fresh.
        resp = cs.last_response;
        RetransmitsCounter()->Increment();
        return Status::OK();
      }
      if (cursor < cs.next_cursor) {
        return InvalidArgument(
            "cursor " + std::to_string(cursor) + " of consumer " +
            std::to_string(consumer) + " regressed behind acknowledged " +
            std::to_string(cs.next_cursor));
      }
      // Round-robin assignment: cursor k of consumer c owns the element
      // with global production index k*n + c. Requests ahead of next_cursor
      // are legal — after a server restart the fresh iterator deterministically
      // re-derives everything up to the consumer's position.
      const int64_t idx = cursor * n + consumer;
      while (iter_status_.ok() && !exhausted_ && next_index_ <= idx) {
        if (cancelled_.load()) return Cancelled("data service shut down");
        if (static_cast<int64_t>(buffer_.size()) >= kMaxAhead) {
          return Unavailable(
              "pipeline buffer full (consumer " + std::to_string(consumer) +
              " is " + std::to_string(buffer_.size()) +
              " elements ahead of the slowest); retry");
        }
        Element element;
        bool eos = false;
        IteratorContext ictx;
        Status s = iterator_->GetNext(&ictx, &element, &eos);
        if (!s.ok()) {
          iter_status_ = s;
          break;
        }
        if (eos) {
          exhausted_ = true;
          end_index_ = next_index_;
          break;
        }
        buffer_.emplace(next_index_, std::move(element));
        ++next_index_;
      }
      if (!iter_status_.ok()) return iter_status_;

      if (exhausted_ && idx >= end_index_) {
        AppendInt64(&resp, 1);  // end_of_epoch
      } else {
        auto it = buffer_.find(idx);
        if (it == buffer_.end()) {
          return Internal("element " + std::to_string(idx) +
                          " missing from service buffer");
        }
        AppendInt64(&resp, 0);
        AppendInt64(&resp, static_cast<int64_t>(it->second.size()));
        for (const Tensor& t : it->second) t.AppendToBytes(&resp);
        buffer_.erase(it);
        ServedCounter()->Increment();
      }
      cs.last_cursor = cursor;
      cs.next_cursor = cursor + 1;
      cs.last_response = resp;
      // Elements this consumer skipped over (produced before a restart
      // advanced it past them) will never be requested again — drop them.
      for (auto it = buffer_.begin();
           it != buffer_.end() && it->first < idx;) {
        if (it->first % n == consumer) {
          it = buffer_.erase(it);
        } else {
          ++it;
        }
      }
      BufferGauge()->Set(static_cast<int64_t>(buffer_.size()));
      return Status::OK();
    }();
  }
  respond(status, status.ok() ? resp : std::string());
}

// ---------------------------------------------------------------------------
// DataServiceServer
// ---------------------------------------------------------------------------

DataServiceServer::DataServiceServer(DataServiceHandler::IteratorFactory factory,
                                     DataServiceHandler::Options options)
    : handler_(std::make_shared<DataServiceHandler>(std::move(factory),
                                                    options)) {
  std::shared_ptr<DataServiceHandler> handler = handler_;
  server_.RegisterHandler(
      rpc::Method::kGetElement,
      [handler](const std::string& body,
                std::shared_ptr<rpc::RpcServer::Responder> responder) {
        handler->HandleGetElement(
            body, [responder](const Status& s, const std::string& resp) {
              responder->Respond(s, resp);
            });
      });
}

DataServiceServer::~DataServiceServer() { Shutdown(); }

Status DataServiceServer::Start(int port) { return server_.Start(port); }

void DataServiceServer::Shutdown() {
  handler_->Cancel();  // unblocks reader threads parked in iterator GetNext
  server_.Shutdown();
}

// ---------------------------------------------------------------------------
// DataServiceClient
// ---------------------------------------------------------------------------

DataServiceClient::DataServiceClient(int port, Options options)
    : options_(options), channel_("data-service", port) {}

Status DataServiceClient::GetNext(data::Element* out, bool* end_of_epoch) {
  std::lock_guard<std::mutex> lock(call_mu_);
  out->clear();
  *end_of_epoch = false;
  const int64_t start_micros = metrics::NowMicros();
  const int64_t give_up_micros =
      start_micros +
      static_cast<int64_t>(options_.total_deadline_seconds * 1e6);

  std::string body;
  AppendInt64(&body, options_.consumer);
  AppendInt64(&body, cursor_.load());

  for (;;) {
    if (cancelled_.load()) return Cancelled("data service client cancelled");
    auto result = channel_.CallSync(rpc::Method::kGetElement, body,
                                    options_.call_deadline_seconds);
    Status s = result.status();
    std::string rbody;
    size_t off = 0;
    if (s.ok()) {
      rbody = std::move(result.value());
      Status app;
      if (!rpc::ReadStatus(rbody, &off, &app)) {
        s = DataLoss("malformed GetElement response");
      } else {
        s = app;
      }
    }
    if (!s.ok()) {
      if (s.code() == Code::kCancelled) return s;  // shut down, don't spin
      if (s.IsRetryable() && metrics::NowMicros() < give_up_micros &&
          !cancelled_.load()) {
        // Covers the pipeline task being down entirely (Unavailable from a
        // refused dial) and a slow element production (DeadlineExceeded) —
        // the cursor is unchanged, so the eventual answer is the same
        // element, possibly via the server's retransmit cache.
        ClientRetriesCounter()->Increment();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      return s;
    }

    int64_t eoe = 0;
    if (!ReadInt64(rbody, &off, &eoe)) {
      return DataLoss("malformed GetElement response");
    }
    ClientWaitHistogram()->Record(
        static_cast<double>(metrics::NowMicros() - start_micros) / 1000.0);
    if (eoe != 0) {
      // Cursor intentionally not advanced: re-asking the same cursor keeps
      // answering end-of-epoch from the retransmit cache.
      *end_of_epoch = true;
      return Status::OK();
    }
    int64_t ncomponents = 0;
    if (!ReadInt64(rbody, &off, &ncomponents) || ncomponents < 0) {
      return DataLoss("malformed GetElement response");
    }
    for (int64_t i = 0; i < ncomponents; ++i) {
      auto t = Tensor::ParseFromBytes(rbody, &off);
      if (!t.ok()) return t.status();
      out->push_back(std::move(t.value()));
    }
    cursor_.fetch_add(1);
    return Status::OK();
  }
}

void DataServiceClient::Cancel() {
  cancelled_.store(true);
  channel_.Shutdown();  // fails a CallSync in flight immediately
}

// ---------------------------------------------------------------------------
// RecordPipelineFactory
// ---------------------------------------------------------------------------

Result<DataServiceHandler::IteratorFactory> RecordPipelineFactory(
    std::vector<std::string> files, const std::string& map_fn,
    int parallelism, DataTypeVector output_types, int64_t repeat,
    int64_t shuffle_buffer, uint64_t seed) {
  auto source = data::NewRecordFileDataset(std::move(files));
  if (!source.ok()) return source.status();
  std::shared_ptr<data::DatasetBase> dataset = source.value();
  if (repeat != 1) {
    auto r = data::NewRepeatDataset(dataset, repeat);
    if (!r.ok()) return r.status();
    dataset = r.value();
  }
  auto mapped = data::NewParallelMapDataset(dataset, map_fn, parallelism,
                                            std::move(output_types));
  if (!mapped.ok()) return mapped.status();
  dataset = mapped.value();
  if (shuffle_buffer > 0) {
    auto shuffled = data::NewShuffleDataset(dataset, shuffle_buffer, seed);
    if (!shuffled.ok()) return shuffled.status();
    dataset = shuffled.value();
  }
  return DataServiceHandler::IteratorFactory(
      [dataset]() { return dataset->MakeIterator(); });
}

// ---------------------------------------------------------------------------
// DataServiceDataset op kernel: the graph-facing client. Lives here (not in
// kernels/data_ops.cc) because it pulls in the rpc transport.
// ---------------------------------------------------------------------------

namespace {

class DataServiceClientIterator : public data::IteratorBase {
 public:
  DataServiceClientIterator(int port, DataServiceClient::Options options)
      : client_(port, options) {}

  ~DataServiceClientIterator() override { client_.Cancel(); }

  Status GetNext(data::IteratorContext* ctx, data::Element* out,
                 bool* end_of_sequence) override {
    (void)ctx;
    return client_.GetNext(out, end_of_sequence);
  }

  void Cancel() override { client_.Cancel(); }

 private:
  DataServiceClient client_;
};

class DataServiceDatasetImpl : public data::DatasetBase {
 public:
  DataServiceDatasetImpl(int port, DataServiceClient::Options options,
                         DataTypeVector dtypes)
      : port_(port), options_(options), dtypes_(std::move(dtypes)) {}

  Result<std::unique_ptr<data::IteratorBase>> MakeIterator() const override {
    return std::unique_ptr<data::IteratorBase>(
        new DataServiceClientIterator(port_, options_));
  }

  const DataTypeVector& output_dtypes() const override { return dtypes_; }

  std::string DebugString() const override {
    return "DataServiceDataset(port=" + std::to_string(port_) + ", consumer=" +
           std::to_string(options_.consumer) + "/" +
           std::to_string(options_.num_consumers) + ")";
  }

 private:
  const int port_;
  const DataServiceClient::Options options_;
  const DataTypeVector dtypes_;
};

// Creation kernel, same publish-a-DatasetResource shape as the kernels in
// data_ops.cc (whose base class is file-local there).
class DataServiceDatasetOp : public OpKernel {
 public:
  explicit DataServiceDatasetOp(OpKernelConstruction* ctx) : OpKernel(ctx) {
    ctx->SetStatus(ctx->GetIntAttr("port", &port_));
    ctx->SetStatus(ctx->GetIntAttr("consumer", &consumer_));
    ctx->SetStatus(ctx->GetIntAttr("num_consumers", &num_consumers_));
    ctx->SetStatus(ctx->GetTypeListAttr("output_types", &output_types_));
    ctx->SetStatus(ctx->GetStringAttr("shared_name", &shared_name_));
  }

  void Compute(OpKernelContext* ctx) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!created_) {
      OP_REQUIRES(ctx, port_ > 0,
                  InvalidArgument("DataServiceDataset needs port > 0"));
      OP_REQUIRES(ctx, num_consumers_ >= 1,
                  InvalidArgument("DataServiceDataset needs num_consumers >= 1"));
      OP_REQUIRES(
          ctx, consumer_ >= 0 && consumer_ < num_consumers_,
          InvalidArgument("consumer " + std::to_string(consumer_) +
                          " out of range [0, " +
                          std::to_string(num_consumers_) + ")"));
      DataServiceClient::Options options;
      options.consumer = static_cast<int>(consumer_);
      options.num_consumers = static_cast<int>(num_consumers_);
      auto dataset = std::make_shared<DataServiceDatasetImpl>(
          static_cast<int>(port_), options, output_types_);
      const std::string resource_name =
          shared_name_.empty() ? name() : shared_name_;
      Status s = ctx->device()->resource_mgr()->Create(
          resource_name, std::make_shared<data::DatasetResource>(dataset));
      if (s.code() == Code::kAlreadyExists) {
        // Sharing by name, or a second session re-running the same node on
        // a shared device: reuse the published dataset (one client cursor).
        s = Status::OK();
      }
      OP_REQUIRES_OK(ctx, s);
      handle_ = Tensor::Scalar(resource_name);
      created_ = true;
    }
    ctx->set_output(0, handle_);
  }

  bool IsExpensive() const override { return false; }

 private:
  int64_t port_ = 0;
  int64_t consumer_ = 0;
  int64_t num_consumers_ = 1;
  DataTypeVector output_types_;
  std::string shared_name_;
  std::mutex mu_;
  bool created_ = false;
  Tensor handle_;
};
REGISTER_KERNEL("DataServiceDataset", kDeviceCpu, DataServiceDatasetOp);

}  // namespace

}  // namespace distributed
}  // namespace tfrepro
