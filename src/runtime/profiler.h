// Sampling profiler (DESIGN.md §12; the paper's §3.2.1 placement loop and
// the 2015 whitepaper's EEG tooling, §9.2). Two pieces:
//
//   * ProfileStore — thread-safe aggregation of per-(op, node, device)
//     latency observations harvested from traced StepStats: count / total /
//     min / max plus a log2-bucketed latency histogram per key, with a
//     deterministic JSON dump and an atomic file writer (core/file.h). The
//     store feeds back into the system: CostFunction() hands the placer a
//     measured per-node cost, and src/sim consumes the overall dispatch
//     mean via ObservedFrameworkProfile().
//
//   * ProfilerSession — the sampling policy. Owned by the session
//     (MasterSession, of which DirectSession is the one-task case); decides "trace this step?" every Nth Run with an exact
//     cadence under concurrency (an atomic counter, not a per-thread
//     approximation), where N comes from RunOptions.sample_every, the
//     session option, or the TFREPRO_PROFILE_EVERY environment variable.
//     Sampled steps run with a TraceCollector exactly like user-traced
//     steps; their StepStats are folded into the store.

#ifndef TFREPRO_RUNTIME_PROFILER_H_
#define TFREPRO_RUNTIME_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/status.h"
#include "graph/graph.h"
#include "runtime/tracing.h"

namespace tfrepro {

// Aggregated latency observations for one (op, node, device) key.
struct ProfileEntry {
  // Power-of-two microsecond buckets: bucket i counts observations in
  // [2^i, 2^(i+1)) us, with bucket 0 also absorbing sub-microsecond runs
  // and the last bucket absorbing everything above.
  static constexpr int kNumBuckets = 24;

  std::string op;
  std::string node;
  std::string device;
  int64_t count = 0;
  double total_micros = 0.0;
  double min_micros = 0.0;
  double max_micros = 0.0;
  std::array<int64_t, kNumBuckets> buckets{};

  double mean_micros() const {
    return count > 0 ? total_micros / static_cast<double>(count) : 0.0;
  }
};

// Thread-safe per-(op, node, device) latency aggregation.
class ProfileStore {
 public:
  // Folds one traced step's node timings in (end - start per node).
  void AddStepStats(const StepStats& stats);

  // Merges another store's aggregates into this one. Merge order does not
  // affect the result (sums, min/max and bucket counts all commute), so
  // merging N worker stores is deterministic however the RPCs interleave.
  void MergeFrom(const ProfileStore& other);

  // Number of steps folded in via AddStepStats (merge adds the counts).
  int64_t steps() const;

  // All entries, sorted by (op, node, device) — deterministic.
  std::vector<ProfileEntry> Entries() const;

  // {"steps":N,"entries":[{"op":...,"node":...,"device":...,"count":...,
  //  "mean_us":...,...,"buckets_pow2_us":[...]}]}, sorted as above.
  std::string ToJson() const;

  // Atomically writes ToJson() to `path` (WriteFileAtomically, so a reader
  // never observes a partial profile).
  Status WriteJson(const std::string& path) const;

  // Mean observed latency in microseconds for a node name (across devices)
  // or an op type; negative when never observed.
  double NodeMeanMicros(const std::string& node) const;
  double OpMeanMicros(const std::string& op) const;

  // Mean per-node-execution latency in seconds over everything observed;
  // 0 when empty. This is what replaces the sim cost model's static
  // dispatch overhead.
  double MeanNodeSeconds() const;

  // Cost callback for PlaceGraph's observed-cost mode: per-node mean when
  // the node was observed, else the op-type mean, else `default_micros`.
  // The returned function snapshots the store (it stays valid and
  // lock-free after the store moves on or is destroyed).
  std::function<double(const Node&)> CostFunction(
      double default_micros = 1.0) const;

 private:
  using Key = std::tuple<std::string, std::string, std::string>;

  mutable std::mutex mu_;
  int64_t steps_ = 0;
  std::map<Key, ProfileEntry> entries_;
};

// Sampling policy + store for one session.
class ProfilerSession {
 public:
  // sample_every <= 0 disables sampling (ShouldSample always false unless
  // a positive per-Run override is passed).
  explicit ProfilerSession(int64_t sample_every)
      : sample_every_(sample_every) {}

  // TFREPRO_PROFILE_EVERY as an int64, or 0 when unset/empty/invalid.
  static int64_t SampleEveryFromEnv();

  // Resolves a session-level option against the environment: a non-zero
  // option wins (negative meaning "explicitly off"), else the env var.
  static int64_t ResolveSampleEvery(int64_t option);

  // Call once per Run. Returns true when this step should be traced for
  // profiling: the k-th sampling-enabled call (1-based) samples iff
  // (k - 1) % N == 0, so the cadence is exact even under concurrent Runs.
  // run_override > 0 replaces N for this decision; run_override < 0
  // disables sampling for this call (without consuming a cadence slot);
  // 0 inherits the session default.
  bool ShouldSample(int64_t run_override = 0);

  void AddStepStats(const StepStats& stats) { store_.AddStepStats(stats); }

  ProfileStore* store() { return &store_; }
  const ProfileStore* store() const { return &store_; }
  int64_t sample_every() const { return sample_every_; }

 private:
  const int64_t sample_every_;
  std::atomic<int64_t> counter_{0};
  ProfileStore store_;
};

}  // namespace tfrepro

#endif  // TFREPRO_RUNTIME_PROFILER_H_
