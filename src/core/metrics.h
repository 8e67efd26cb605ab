// Lock-cheap metrics for the runtime (observability layer; see DESIGN.md
// §8). A Registry maps (name, tags) to one of three instrument kinds:
//
//   Counter   — monotonically increasing int64 (ops executed, bytes sent);
//   Gauge     — last-written int64 (queue depth, occupancy);
//   Histogram — bucketed distribution of doubles (latencies, batch sizes).
//
// Instrument lookup takes the registry mutex once; the returned pointer is
// valid for the registry's lifetime and every mutation on it is a relaxed
// atomic — safe and cheap to call from executor/rendezvous hot paths.
// Snapshot() copies the current values into plain structs (point-in-time
// isolation: later mutations do not affect an already-taken snapshot) and
// can be exported as JSON.
//
// Registry::Global() is the processwide instance the runtime is wired to;
// tests may construct private registries.

#ifndef TFREPRO_CORE_METRICS_H_
#define TFREPRO_CORE_METRICS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "core/status.h"

namespace tfrepro {
namespace metrics {

// Monotonic microsecond clock shared by metrics and tracing (steady, not
// wall time: deltas are meaningful, absolute values are arbitrary).
int64_t NowMicros();

using TagMap = std::map<std::string, std::string>;

class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed upper-bound buckets: a sample `v` lands in the first bucket with
// v <= bound; samples above the last bound land in the implicit +inf
// bucket. Recording is three relaxed atomic ops (bucket, count, sum).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  // Upper bounds, excluding the implicit +inf bucket.
  const std::vector<double>& bounds() const { return bounds_; }
  // Per-bucket counts; size() == bounds().size() + 1 (last is +inf).
  std::vector<int64_t> bucket_counts() const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

  // Default buckets for latencies in milliseconds: 1us .. ~100s, roughly
  // one bucket per 4x.
  static std::vector<double> DefaultLatencyBucketsMs();

 private:
  const std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // bit-cast double
};

// Point-in-time copy of one instrument.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  TagMap tags;
  Kind kind = Kind::kCounter;
  int64_t value = 0;  // counter / gauge
  // Histogram only:
  std::vector<double> bounds;
  std::vector<int64_t> bucket_counts;
  int64_t count = 0;
  double sum = 0;

  // Estimated value at quantile `q` in [0, 1] (0.5 = median, 0.99 = p99),
  // linearly interpolated within the bucket the quantile lands in. Samples
  // in the +inf bucket report the last finite bound. Returns 0 for empty
  // histograms or non-histogram snapshots. Resolution is bounded by the
  // bucket widths — good for dashboards and regression gates, not for
  // comparing values inside one bucket.
  double Percentile(double q) const;
};

struct RegistrySnapshot {
  std::vector<MetricSnapshot> entries;

  // First entry matching (name, tags); nullptr if absent.
  const MetricSnapshot* Find(const std::string& name,
                             const TagMap& tags = {}) const;
  // Sum of counter/gauge values across all tag sets of `name`.
  int64_t TotalValue(const std::string& name) const;

  std::string ToJson() const;
  // Writes the ToJson() document as the next value of `w`.
  void AppendJson(JsonWriter* w) const;
};

class Registry {
 public:
  static Registry* Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Each returns the instrument registered under (name, tags), creating it
  // on first use. Pointers remain valid for the registry's lifetime.
  // Registering the same (name, tags) under two different kinds returns
  // the instrument of the first-registered kind's map entry for that kind
  // (kinds are namespaced separately; avoid reusing names across kinds).
  Counter* GetCounter(const std::string& name, const TagMap& tags = {});
  Gauge* GetGauge(const std::string& name, const TagMap& tags = {});
  // `bounds` is consulted only on first creation.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds = {},
                          const TagMap& tags = {});

  RegistrySnapshot Snapshot() const;

 private:
  using Key = std::pair<std::string, TagMap>;
  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

// Periodic metrics exporter (DESIGN.md §12): a background thread that
// writes Registry::Global()->Snapshot().ToJson() to `path` every
// `interval_seconds`, plus a final dump at Stop/destruction. Each write
// goes through WriteFileAtomically (core/file.h), so a concurrent reader
// never observes a torn file, even when several processes share one path.
// Intended for long-running processes (worker_main) that have no other
// introspection channel.
class MetricsExporter {
 public:
  MetricsExporter(std::string path, double interval_seconds);
  ~MetricsExporter();  // Stop()s

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  // Starts an exporter from TFREPRO_METRICS_DUMP_SECS (interval; unset,
  // empty or non-positive = no exporter, returns nullptr) and
  // TFREPRO_METRICS_DUMP_PATH (defaults to /tmp/tfrepro_metrics_<pid>.json).
  static std::unique_ptr<MetricsExporter> StartFromEnv();

  // Writes one snapshot now (also used by the background thread).
  Status WriteOnce() const;

  // Final dump + thread join. Idempotent.
  void Stop();

  const std::string& path() const { return path_; }

 private:
  const std::string path_;
  const double interval_seconds_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace metrics
}  // namespace tfrepro

#endif  // TFREPRO_CORE_METRICS_H_
