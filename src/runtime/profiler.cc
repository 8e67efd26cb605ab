#include "runtime/profiler.h"

#include <algorithm>
#include <cstdlib>

#include "core/file.h"
#include "core/json.h"

namespace tfrepro {

namespace {

int BucketOf(double micros) {
  int b = 0;
  while (b + 1 < ProfileEntry::kNumBuckets && micros >= double(2ll << b)) {
    ++b;
  }
  return b;
}

}  // namespace

void ProfileStore::AddStepStats(const StepStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  ++steps_;
  for (const NodeExecStats& n : stats.nodes) {
    double micros = static_cast<double>(n.end_micros - n.start_micros);
    if (micros < 0.0) micros = 0.0;
    ProfileEntry& e = entries_[Key(n.op, n.node_name, n.device)];
    if (e.count == 0) {
      e.op = n.op;
      e.node = n.node_name;
      e.device = n.device;
      e.min_micros = micros;
      e.max_micros = micros;
    }
    ++e.count;
    e.total_micros += micros;
    e.min_micros = std::min(e.min_micros, micros);
    e.max_micros = std::max(e.max_micros, micros);
    ++e.buckets[BucketOf(micros)];
  }
}

void ProfileStore::MergeFrom(const ProfileStore& other) {
  // Copy under the source lock first: locking both stores at once would
  // need an ordering protocol for no benefit on this cold path.
  int64_t other_steps;
  std::map<Key, ProfileEntry> other_entries;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    other_steps = other.steps_;
    other_entries = other.entries_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  steps_ += other_steps;
  for (const auto& [key, src] : other_entries) {
    ProfileEntry& e = entries_[key];
    if (e.count == 0) {
      e = src;
      continue;
    }
    e.count += src.count;
    e.total_micros += src.total_micros;
    e.min_micros = std::min(e.min_micros, src.min_micros);
    e.max_micros = std::max(e.max_micros, src.max_micros);
    for (int i = 0; i < ProfileEntry::kNumBuckets; ++i) {
      e.buckets[i] += src.buckets[i];
    }
  }
}

int64_t ProfileStore::steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_;
}

std::vector<ProfileEntry> ProfileStore::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ProfileEntry> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) out.push_back(e);
  return out;  // entries_ is a std::map: already (op, node, device)-sorted
}

std::string ProfileStore::ToJson() const {
  JsonWriter w;
  w.BeginObject().Key("steps").Int(steps()).Key("entries").BeginArray();
  for (const ProfileEntry& e : Entries()) {
    w.BeginObject().Key("op").String(e.op).Key("node").String(e.node);
    w.Key("device").String(e.device).Key("count").Int(e.count);
    w.Key("mean_us").Double(e.mean_micros());
    w.Key("min_us").Double(e.min_micros).Key("max_us").Double(e.max_micros);
    w.Key("total_us").Double(e.total_micros);
    // Trailing zero buckets are elided to keep dumps compact.
    int last = ProfileEntry::kNumBuckets;
    while (last > 0 && e.buckets[last - 1] == 0) --last;
    w.Key("buckets_pow2_us").BeginArray();
    for (int i = 0; i < last; ++i) w.Int(e.buckets[i]);
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

Status ProfileStore::WriteJson(const std::string& path) const {
  return WriteFileAtomically(path, ToJson());
}

double ProfileStore::NodeMeanMicros(const std::string& node) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t count = 0;
  double total = 0.0;
  for (const auto& [key, e] : entries_) {
    if (e.node == node) {
      count += e.count;
      total += e.total_micros;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : -1.0;
}

double ProfileStore::OpMeanMicros(const std::string& op) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t count = 0;
  double total = 0.0;
  for (const auto& [key, e] : entries_) {
    if (e.op == op) {
      count += e.count;
      total += e.total_micros;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : -1.0;
}

double ProfileStore::MeanNodeSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t count = 0;
  double total = 0.0;
  for (const auto& [key, e] : entries_) {
    count += e.count;
    total += e.total_micros;
  }
  return count > 0 ? total / static_cast<double>(count) * 1e-6 : 0.0;
}

std::function<double(const Node&)> ProfileStore::CostFunction(
    double default_micros) const {
  // Snapshot (node mean, op mean) tables so the callback owns its data.
  std::map<std::string, std::pair<int64_t, double>> by_node;
  std::map<std::string, std::pair<int64_t, double>> by_op;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, e] : entries_) {
      auto& n = by_node[e.node];
      n.first += e.count;
      n.second += e.total_micros;
      auto& o = by_op[e.op];
      o.first += e.count;
      o.second += e.total_micros;
    }
  }
  return [by_node = std::move(by_node), by_op = std::move(by_op),
          default_micros](const Node& node) {
    auto it = by_node.find(node.name());
    if (it != by_node.end() && it->second.first > 0) {
      return it->second.second / static_cast<double>(it->second.first);
    }
    auto oit = by_op.find(node.op());
    if (oit != by_op.end() && oit->second.first > 0) {
      return oit->second.second / static_cast<double>(oit->second.first);
    }
    return default_micros;
  };
}

int64_t ProfilerSession::SampleEveryFromEnv() {
  const char* env = std::getenv("TFREPRO_PROFILE_EVERY");
  if (env == nullptr || env[0] == '\0') return 0;
  char* end = nullptr;
  long long v = std::strtoll(env, &end, 10);
  if (end == env || v < 0) return 0;
  return static_cast<int64_t>(v);
}

int64_t ProfilerSession::ResolveSampleEvery(int64_t option) {
  if (option > 0) return option;
  if (option < 0) return 0;  // explicitly off
  return SampleEveryFromEnv();
}

bool ProfilerSession::ShouldSample(int64_t run_override) {
  int64_t n = run_override > 0
                  ? run_override
                  : (run_override < 0 ? 0 : sample_every_);
  if (n <= 0) return false;
  int64_t k = counter_.fetch_add(1, std::memory_order_relaxed);
  return k % n == 0;
}

}  // namespace tfrepro
