#include "runtime/tracing.h"

#include <algorithm>
#include <set>

#include "core/coding.h"
#include "core/file.h"
#include "core/json.h"
#include "core/metrics.h"

namespace tfrepro {

namespace {

// Live collectors subscribed to global instant events. Guarded by a mutex:
// global instants (faults, retries) are rare, so contention is irrelevant;
// the common case — no live subscriber — is one lock/unlock.
std::mutex* GlobalSinkMu() {
  static std::mutex* mu = new std::mutex();
  return mu;
}
std::vector<TraceCollector*>* GlobalSinks() {
  static auto* sinks = new std::vector<TraceCollector*>();
  return sinks;
}

// "/job:worker/task:0/device:CPU:0" -> "/job:worker/task:0". Device-less
// scopes pass through unchanged.
std::string TaskOfDevice(const std::string& device) {
  size_t pos = device.find("/device:");
  if (pos == std::string::npos || pos == 0) return device;
  return device.substr(0, pos);
}

}  // namespace

TraceCollector::TraceCollector(bool capture_global_events)
    : capture_global_events_(capture_global_events) {
  if (capture_global_events_) {
    std::lock_guard<std::mutex> lock(*GlobalSinkMu());
    GlobalSinks()->push_back(this);
  }
}

TraceCollector::~TraceCollector() {
  if (capture_global_events_) {
    std::lock_guard<std::mutex> lock(*GlobalSinkMu());
    auto* sinks = GlobalSinks();
    sinks->erase(std::remove(sinks->begin(), sinks->end(), this),
                 sinks->end());
  }
}

void TraceCollector::RecordNode(NodeExecStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.nodes.push_back(std::move(stats));
}

void TraceCollector::RecordTransfer(TransferStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.transfers.push_back(std::move(stats));
}

void TraceCollector::RecordInstant(InstantEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.instants.push_back(std::move(event));
}

void TraceCollector::RecordSpan(SpanEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.spans.push_back(std::move(event));
}

void TraceCollector::MergeStepStats(const StepStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.MergeFrom(stats);
}

StepStats TraceCollector::Consume(int64_t step_id) {
  std::lock_guard<std::mutex> lock(mu_);
  StepStats out = std::move(stats_);
  stats_ = StepStats();
  out.step_id = step_id;
  return out;
}

void RecordGlobalInstant(const std::string& name, const std::string& scope,
                         std::map<std::string, std::string> args) {
  InstantEvent event;
  event.name = name;
  event.scope = scope;
  event.micros = metrics::NowMicros();
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(*GlobalSinkMu());
  for (TraceCollector* sink : *GlobalSinks()) {
    sink->RecordInstant(event);
  }
}

void RecordGlobalSpan(const std::string& name, const std::string& scope,
                      int64_t start_micros, int64_t end_micros,
                      std::map<std::string, std::string> args) {
  SpanEvent event;
  event.name = name;
  event.scope = scope;
  event.start_micros = start_micros;
  event.end_micros = end_micros;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(*GlobalSinkMu());
  for (TraceCollector* sink : *GlobalSinks()) {
    sink->RecordSpan(event);
  }
}

std::string StepStats::ToChromeTraceJson() const {
  // Assign a pid per task and a tid per device (tid 0 per task is reserved
  // for the "transfers" row so Send/Recv activity reads as its own lane).
  std::map<std::string, int> task_pid;
  std::map<std::string, int> device_tid;
  auto pid_of_task = [&task_pid](const std::string& task) {
    int next = static_cast<int>(task_pid.size()) + 1;
    return task_pid.emplace(task, next).first->second;
  };
  auto tid_of_device = [&device_tid](const std::string& device) {
    int next = static_cast<int>(device_tid.size()) + 1;
    return device_tid.emplace(device, next).first->second;
  };

  int64_t base = INT64_MAX;
  for (const NodeExecStats& n : nodes) {
    base = std::min(base, n.scheduled_micros);
  }
  for (const TransferStats& t : transfers) {
    if (t.send_micros > 0) base = std::min(base, t.send_micros);
    if (t.recv_start_micros > 0) base = std::min(base, t.recv_start_micros);
  }
  for (const InstantEvent& i : instants) base = std::min(base, i.micros);
  for (const SpanEvent& s : spans) base = std::min(base, s.start_micros);
  if (base == INT64_MAX) base = 0;

  // Blocked-time spans get their own "waits" thread row per process so
  // queue / batcher wait intervals sit alongside the compute lanes.
  constexpr int kWaitsTid = 9990;

  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  // Writes an event's fields in Chrome's order up to its "args" key; an
  // instant's scope `s`, `tid` and a duration event's "dur" only when
  // they apply.
  auto event = [&](const char* ph, const char* s, int pid, int tid,
                   int64_t start, int64_t end, const char* cat,
                   const std::string& name) -> JsonWriter& {
    w.BeginObject().Key("ph").String(ph);
    if (s != nullptr) w.Key("s").String(s);
    w.Key("pid").Int(pid);
    if (tid >= 0) w.Key("tid").Int(tid);
    w.Key("ts").Int(start - base);
    if (*ph == 'X') w.Key("dur").Int(std::max<int64_t>(end - start, 1));
    return w.Key("cat").String(cat).Key("name").String(name).Key("args");
  };

  for (const NodeExecStats& n : nodes) {
    int pid = pid_of_task(TaskOfDevice(n.device));
    int tid = tid_of_device(n.device);
    event("X", nullptr, pid, tid, n.start_micros, n.end_micros, "op", n.op)
        .BeginObject().Key("node").String(n.node_name);
    w.Key("ready_wait_us").Int(n.start_micros - n.scheduled_micros);
    w.EndObject().EndObject();
  }

  for (const TransferStats& t : transfers) {
    if (t.kind == TransferStats::Kind::kSend) {
      event("i", "t", pid_of_task(TaskOfDevice(t.send_device)), 0,
            t.send_micros, 0, "transfer", "Send " + t.tensor_name);
    } else {
      event("X", nullptr, pid_of_task(TaskOfDevice(t.recv_device)), 0,
            t.recv_start_micros, t.recv_end_micros, "transfer",
            "Recv " + t.tensor_name);
    }
    w.BeginObject().Key("bytes").Int(t.bytes);
    w.Key("from").String(t.send_device).Key("to").String(t.recv_device);
    w.EndObject().EndObject();
  }

  for (const InstantEvent& i : instants) {
    const bool global = i.scope.empty();
    event("i", global ? "g" : "p", global ? 0 : pid_of_task(i.scope), -1,
          i.micros, 0, "marker", i.name)
        .StringMap(i.args).EndObject();
  }

  std::set<int> span_pids;
  for (const SpanEvent& s : spans) {
    int pid = s.scope.empty() ? 0 : pid_of_task(s.scope);
    span_pids.insert(pid);
    event("X", nullptr, pid, kWaitsTid, s.start_micros, s.end_micros, "wait",
          s.name)
        .StringMap(s.args).EndObject();
  }

  // Name the rows. pid 0 hosts global markers when present.
  auto name_row = [&w](int pid, int tid, const char* row,
                       const std::string& name) {
    w.BeginObject().Key("ph").String("M").Key("pid").Int(pid);
    if (tid >= 0) w.Key("tid").Int(tid);
    w.Key("name").String(row).Key("args").BeginObject().Key("name");
    w.String(name).EndObject().EndObject();
  };
  for (const auto& [task, pid] : task_pid) {
    name_row(pid, -1, "process_name", task);
    name_row(pid, 0, "thread_name", "transfers");
  }
  for (int pid : span_pids) name_row(pid, kWaitsTid, "thread_name", "waits");
  for (const auto& [device, tid] : device_tid) {
    name_row(pid_of_task(TaskOfDevice(device)), tid, "thread_name", device);
  }

  w.EndArray().Key("displayTimeUnit").String("ms");
  w.Key("metadata").BeginObject().Key("step_id").Int(step_id).EndObject();
  w.EndObject();
  return w.str();
}

namespace {

void AppendArgs(std::string* out,
                const std::map<std::string, std::string>& args) {
  AppendInt64(out, static_cast<int64_t>(args.size()));
  for (const auto& [k, v] : args) {
    AppendString(out, k);
    AppendString(out, v);
  }
}

bool ReadArgs(const std::string& data, size_t* pos,
              std::map<std::string, std::string>* args) {
  int64_t n = 0;
  if (!ReadCount(data, pos, 2 * sizeof(int64_t), &n)) return false;
  for (int64_t i = 0; i < n; ++i) {
    std::string k, v;
    if (!ReadString(data, pos, &k) || !ReadString(data, pos, &v)) return false;
    (*args)[std::move(k)] = std::move(v);
  }
  return true;
}

// Smallest encoding of one event of each kind (empty strings, no args):
// the divisors of the count check that precedes each reserve.
constexpr size_t kMinNodeBytes = 6 * sizeof(int64_t);
constexpr size_t kMinTransferBytes = 8 * sizeof(int64_t);
constexpr size_t kMinInstantBytes = 4 * sizeof(int64_t);
constexpr size_t kMinSpanBytes = 5 * sizeof(int64_t);

// Shift that preserves the "0 means unrecorded" convention.
int64_t ShiftNonZero(int64_t micros, int64_t delta) {
  return micros == 0 ? 0 : micros + delta;
}

}  // namespace

void StepStats::AppendToBytes(std::string* out) const {
  AppendInt64(out, step_id);
  AppendInt64(out, static_cast<int64_t>(nodes.size()));
  for (const NodeExecStats& n : nodes) {
    AppendString(out, n.node_name);
    AppendString(out, n.op);
    AppendString(out, n.device);
    AppendInt64(out, n.scheduled_micros);
    AppendInt64(out, n.start_micros);
    AppendInt64(out, n.end_micros);
  }
  AppendInt64(out, static_cast<int64_t>(transfers.size()));
  for (const TransferStats& t : transfers) {
    AppendInt64(out, t.kind == TransferStats::Kind::kSend ? 0 : 1);
    AppendString(out, t.tensor_name);
    AppendString(out, t.send_device);
    AppendString(out, t.recv_device);
    AppendInt64(out, t.bytes);
    AppendInt64(out, t.send_micros);
    AppendInt64(out, t.recv_start_micros);
    AppendInt64(out, t.recv_end_micros);
  }
  AppendInt64(out, static_cast<int64_t>(instants.size()));
  for (const InstantEvent& i : instants) {
    AppendString(out, i.name);
    AppendString(out, i.scope);
    AppendInt64(out, i.micros);
    AppendArgs(out, i.args);
  }
  AppendInt64(out, static_cast<int64_t>(spans.size()));
  for (const SpanEvent& s : spans) {
    AppendString(out, s.name);
    AppendString(out, s.scope);
    AppendInt64(out, s.start_micros);
    AppendInt64(out, s.end_micros);
    AppendArgs(out, s.args);
  }
}

bool StepStats::ParseFromBytes(const std::string& data, size_t* pos,
                               StepStats* out) {
  *out = StepStats();
  int64_t count = 0;
  if (!ReadInt64(data, pos, &out->step_id)) return false;
  if (!ReadCount(data, pos, kMinNodeBytes, &count)) return false;
  out->nodes.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    NodeExecStats n;
    if (!ReadString(data, pos, &n.node_name) ||
        !ReadString(data, pos, &n.op) || !ReadString(data, pos, &n.device) ||
        !ReadInt64(data, pos, &n.scheduled_micros) ||
        !ReadInt64(data, pos, &n.start_micros) ||
        !ReadInt64(data, pos, &n.end_micros)) {
      return false;
    }
    out->nodes.push_back(std::move(n));
  }
  if (!ReadCount(data, pos, kMinTransferBytes, &count)) return false;
  out->transfers.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    TransferStats t;
    int64_t kind = 0;
    if (!ReadInt64(data, pos, &kind) ||
        !ReadString(data, pos, &t.tensor_name) ||
        !ReadString(data, pos, &t.send_device) ||
        !ReadString(data, pos, &t.recv_device) ||
        !ReadInt64(data, pos, &t.bytes) ||
        !ReadInt64(data, pos, &t.send_micros) ||
        !ReadInt64(data, pos, &t.recv_start_micros) ||
        !ReadInt64(data, pos, &t.recv_end_micros)) {
      return false;
    }
    t.kind = kind == 0 ? TransferStats::Kind::kSend : TransferStats::Kind::kRecv;
    out->transfers.push_back(std::move(t));
  }
  if (!ReadCount(data, pos, kMinInstantBytes, &count)) return false;
  out->instants.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    InstantEvent e;
    if (!ReadString(data, pos, &e.name) || !ReadString(data, pos, &e.scope) ||
        !ReadInt64(data, pos, &e.micros) || !ReadArgs(data, pos, &e.args)) {
      return false;
    }
    out->instants.push_back(std::move(e));
  }
  if (!ReadCount(data, pos, kMinSpanBytes, &count)) return false;
  out->spans.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    SpanEvent s;
    if (!ReadString(data, pos, &s.name) || !ReadString(data, pos, &s.scope) ||
        !ReadInt64(data, pos, &s.start_micros) ||
        !ReadInt64(data, pos, &s.end_micros) || !ReadArgs(data, pos, &s.args)) {
      return false;
    }
    out->spans.push_back(std::move(s));
  }
  return true;
}

void StepStats::ShiftTimes(int64_t delta_micros) {
  if (delta_micros == 0) return;
  for (NodeExecStats& n : nodes) {
    n.scheduled_micros = ShiftNonZero(n.scheduled_micros, delta_micros);
    n.start_micros = ShiftNonZero(n.start_micros, delta_micros);
    n.end_micros = ShiftNonZero(n.end_micros, delta_micros);
  }
  for (TransferStats& t : transfers) {
    t.send_micros = ShiftNonZero(t.send_micros, delta_micros);
    t.recv_start_micros = ShiftNonZero(t.recv_start_micros, delta_micros);
    t.recv_end_micros = ShiftNonZero(t.recv_end_micros, delta_micros);
  }
  for (InstantEvent& i : instants) {
    i.micros = ShiftNonZero(i.micros, delta_micros);
  }
  for (SpanEvent& s : spans) {
    s.start_micros = ShiftNonZero(s.start_micros, delta_micros);
    s.end_micros = ShiftNonZero(s.end_micros, delta_micros);
  }
}

void StepStats::MergeFrom(const StepStats& other) {
  nodes.insert(nodes.end(), other.nodes.begin(), other.nodes.end());
  transfers.insert(transfers.end(), other.transfers.begin(),
                   other.transfers.end());
  instants.insert(instants.end(), other.instants.begin(),
                  other.instants.end());
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

Status StepStats::WriteChromeTrace(const std::string& path) const {
  return WriteFileAtomically(path, ToChromeTraceJson());
}

}  // namespace tfrepro
