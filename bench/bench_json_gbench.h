// --json support for the google-benchmark binaries: a reporter that shows
// every run through google-benchmark's own display reporter, so
// --benchmark_format and --benchmark_color work as they do without it, and
// also captures the run into a BenchReport, so `--json <path>` produces
// the same report shape as the figure benches (rows + metrics snapshot).

#ifndef TFREPRO_BENCH_BENCH_JSON_GBENCH_H_
#define TFREPRO_BENCH_BENCH_JSON_GBENCH_H_

#include <benchmark/benchmark.h>

#include "bench_json.h"

namespace tfrepro {
namespace bench {

class JsonCaptureReporter : public benchmark::BenchmarkReporter {
 public:
  // `display` outlives the reporter: google-benchmark's default display
  // reporter lives as long as the process.
  JsonCaptureReporter(BenchReport* report,
                      benchmark::BenchmarkReporter* display)
      : report_(report), display_(display) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      BenchRow row;
      row.name = run.benchmark_name();
      const double per_iter_s =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : 0.0;
      row.wall_ms = per_iter_s * 1000.0;
      row.steps_per_s = per_iter_s > 0.0 ? 1.0 / per_iter_s : 0.0;
      for (const auto& [name, counter] : run.counters) {
        row.extras[name] = static_cast<double>(counter);
      }
      report_->Add(std::move(row));
    }
    display_->ReportRuns(runs);
  }

  void Finalize() override { display_->Finalize(); }

 private:
  BenchReport* report_;
  benchmark::BenchmarkReporter* display_;
};

// Drop-in replacement for BENCHMARK_MAIN()'s body that honours --json.
inline int RunGBenchWithJson(const char* bench_name, int argc, char** argv) {
  BenchReport report(bench_name, &argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter(&report,
                               benchmark::CreateDefaultDisplayReporter());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return report.WriteIfRequested();
}

}  // namespace bench
}  // namespace tfrepro

#endif  // TFREPRO_BENCH_BENCH_JSON_GBENCH_H_
