// Machine-readable bench output: every bench binary accepts `--json <path>`
// and writes {"bench": ..., "results": [...], "metrics": {...}} — one row
// per measurement (name, wall ms, steps/s, extras) plus a full metrics
// registry snapshot — for the perf-tracking scripts. Without the flag the
// benches print their human tables only and write nothing.

#ifndef TFREPRO_BENCH_BENCH_JSON_H_
#define TFREPRO_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/file.h"
#include "core/json.h"
#include "core/metrics.h"

namespace tfrepro {
namespace bench {

struct BenchRow {
  std::string name;
  double wall_ms = 0.0;      // wall time per step/iteration
  double steps_per_s = 0.0;  // 0 when not meaningful
  std::map<std::string, double> extras;
};

class BenchReport {
 public:
  // Consumes `--json <path>` from argv (so it never reaches the bench's own
  // flag parsing, e.g. google-benchmark's).
  BenchReport(const std::string& bench_name, int* argc, char** argv)
      : bench_name_(bench_name) {
    for (int i = 1; i < *argc; ++i) {
      if (std::string(argv[i]) == "--json" && i + 1 < *argc) {
        path_ = argv[i + 1];
        for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
        *argc -= 2;
        break;
      }
    }
  }

  bool enabled() const { return !path_.empty(); }

  void Add(BenchRow row) { rows_.push_back(std::move(row)); }

  void Add(const std::string& name, double wall_ms, double steps_per_s = 0.0,
           std::map<std::string, double> extras = {}) {
    rows_.push_back(BenchRow{name, wall_ms, steps_per_s, std::move(extras)});
  }

  // Writes the report (rows + a metrics registry snapshot taken now).
  // No-op without --json. Returns 0 on success for use as an exit code.
  int WriteIfRequested() const {
    if (path_.empty()) return 0;
    JsonWriter w;
    w.BeginObject().Key("bench").String(bench_name_);
    w.Key("results").BeginArray();
    for (const BenchRow& r : rows_) {
      w.BeginObject().Key("name").String(r.name);
      w.Key("wall_ms").Double(r.wall_ms);
      w.Key("steps_per_s").Double(r.steps_per_s);
      for (const auto& [k, v] : r.extras) w.Key(k).Double(v);
      w.EndObject();
    }
    w.EndArray().Key("metrics");
    metrics::Registry::Global()->Snapshot().AppendJson(&w);
    w.EndObject();
    Status s = WriteFileAtomically(path_, w.str() + "\n");
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu result rows to %s\n", rows_.size(),
                 path_.c_str());
    return 0;
  }

 private:
  std::string bench_name_;
  std::string path_;
  std::vector<BenchRow> rows_;
};

}  // namespace bench
}  // namespace tfrepro

#endif  // TFREPRO_BENCH_BENCH_JSON_H_
