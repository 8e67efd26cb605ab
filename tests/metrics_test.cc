// Tests for the metrics registry (DESIGN.md §8): concurrent counter
// increments, histogram bucket boundaries, snapshot isolation, tag
// separation, and the JSON export with its string escaper.

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "core/coding.h"
#include "core/metrics.h"

namespace tfrepro {
namespace metrics {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumCorrectly) {
  Registry registry;
  Counter* counter = registry.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter]() {
      for (int i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
}

TEST(CounterTest, IncrementByN) {
  Registry registry;
  Counter* counter = registry.GetCounter("test.n");
  counter->Increment(5);
  counter->Increment(37);
  EXPECT_EQ(counter->value(), 42);
}

TEST(GaugeTest, SetAndAdd) {
  Registry registry;
  Gauge* gauge = registry.GetGauge("test.gauge");
  gauge->Set(10);
  EXPECT_EQ(gauge->value(), 10);
  gauge->Add(-3);
  EXPECT_EQ(gauge->value(), 7);
  gauge->Set(0);
  EXPECT_EQ(gauge->value(), 0);
}

TEST(HistogramTest, BucketBoundaries) {
  Registry registry;
  // Buckets: (-inf,1], (1,10], (10,100], (100,+inf).
  Histogram* h = registry.GetHistogram("test.hist", {1.0, 10.0, 100.0});
  h->Record(0.5);    // bucket 0
  h->Record(1.0);    // bucket 0 (v <= bound is inclusive)
  h->Record(1.0001); // bucket 1
  h->Record(10.0);   // bucket 1
  h->Record(99.9);   // bucket 2
  h->Record(100.0);  // bucket 2
  h->Record(100.1);  // +inf bucket
  h->Record(1e9);    // +inf bucket

  std::vector<int64_t> counts = h->bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(counts[3], 2);
  EXPECT_EQ(h->count(), 8);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 +
                                 100.1 + 1e9);
}

TEST(HistogramTest, ConcurrentRecordsKeepCountAndSum) {
  Registry registry;
  Histogram* h = registry.GetHistogram("test.hist.conc", {1.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h]() {
      for (int i = 0; i < kPerThread; ++i) h->Record(2.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  // The sum is maintained with a CAS loop, so no increments may be lost.
  EXPECT_DOUBLE_EQ(h->sum(), 2.0 * kThreads * kPerThread);
  std::vector<int64_t> counts = h->bucket_counts();
  EXPECT_EQ(counts[1], kThreads * kPerThread);
}

TEST(HistogramTest, DefaultLatencyBucketsCoverMicrosToMinutes) {
  std::vector<double> bounds = Histogram::DefaultLatencyBucketsMs();
  ASSERT_GE(bounds.size(), 8u);
  EXPECT_LE(bounds.front(), 0.001);   // 1us
  EXPECT_GE(bounds.back(), 60000.0);  // >= 1 minute
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

TEST(RegistryTest, SameNameAndTagsReturnsSameInstrument) {
  Registry registry;
  EXPECT_EQ(registry.GetCounter("c", {{"k", "v"}}),
            registry.GetCounter("c", {{"k", "v"}}));
  EXPECT_NE(registry.GetCounter("c", {{"k", "v"}}),
            registry.GetCounter("c", {{"k", "w"}}));
  EXPECT_NE(registry.GetCounter("c"), registry.GetCounter("d"));
}

TEST(RegistryTest, TagsSeparateAndTotalValueSums) {
  Registry registry;
  registry.GetCounter("requests", {{"task", "a"}})->Increment(3);
  registry.GetCounter("requests", {{"task", "b"}})->Increment(4);

  RegistrySnapshot snap = registry.Snapshot();
  const MetricSnapshot* a = snap.Find("requests", {{"task", "a"}});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->value, 3);
  EXPECT_EQ(snap.TotalValue("requests"), 7);
  EXPECT_EQ(snap.Find("requests", {{"task", "zzz"}}), nullptr);
}

TEST(RegistryTest, SnapshotIsolation) {
  Registry registry;
  Counter* counter = registry.GetCounter("iso");
  Histogram* h = registry.GetHistogram("iso.hist", {1.0});
  counter->Increment(10);
  h->Record(0.5);

  RegistrySnapshot snap = registry.Snapshot();
  // Mutations after the snapshot must not be visible in it.
  counter->Increment(100);
  h->Record(0.5);
  h->Record(5.0);

  const MetricSnapshot* c = snap.Find("iso");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 10);
  const MetricSnapshot* hs = snap.Find("iso.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 1);
  EXPECT_EQ(hs->bucket_counts[0], 1);
  EXPECT_EQ(hs->bucket_counts[1], 0);

  // The live instruments did move on.
  EXPECT_EQ(registry.Snapshot().Find("iso")->value, 110);
}

TEST(RegistryTest, JsonExportContainsEntries) {
  Registry registry;
  registry.GetCounter("json.counter", {{"task", "w0"}})->Increment(2);
  registry.GetGauge("json.gauge")->Set(-5);
  registry.GetHistogram("json.hist", {1.0})->Record(0.5);

  std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"task\":\"w0\""), std::string::npos);
  EXPECT_NE(json.find("\"json.gauge\""), std::string::npos);
  EXPECT_NE(json.find("-5"), std::string::npos);
  EXPECT_NE(json.find("\"json.hist\""), std::string::npos);
  // Valid JSON shape, at least superficially.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// The one JSON string escaper (core/coding.h), shared by the metrics
// export, the Chrome trace and the profile dump.
TEST(JsonStringTest, EscapesWhatJsonRequiresAndPassesTheRest) {
  auto json = [](const std::string& s) {
    std::ostringstream os;
    AppendJsonString(&os, s);
    return os.str();
  };
  EXPECT_EQ(json("a\"b"), R"("a\"b")");
  EXPECT_EQ(json("a\\b"), R"("a\\b")");
  EXPECT_EQ(json("a\nb"), R"("a\nb")");
  EXPECT_EQ(json("a\tb"), R"("a\tb")");
  EXPECT_EQ(json("a\x01" "b"), R"("a\u0001b")");
  EXPECT_EQ(json("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8 unchanged
}

TEST(RegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(Registry::Global(), Registry::Global());
  EXPECT_NE(Registry::Global(), nullptr);
}

TEST(HistogramTest, PercentileInterpolatesWithinBuckets) {
  Registry registry;
  Histogram* h = registry.GetHistogram("pct.hist", {1.0, 10.0, 100.0});
  // 100 samples spread evenly through the (1, 10] bucket.
  for (int i = 0; i < 100; ++i) h->Record(5.0);

  RegistrySnapshot snap = registry.Snapshot();
  const MetricSnapshot* m = snap.Find("pct.hist");
  ASSERT_NE(m, nullptr);
  // Everything is in one bucket: all quantiles interpolate inside (1, 10].
  EXPECT_GT(m->Percentile(0.0), 1.0 - 1e-9);
  EXPECT_LE(m->Percentile(0.5), 10.0);
  EXPECT_LE(m->Percentile(0.99), 10.0);
  EXPECT_GE(m->Percentile(0.99), m->Percentile(0.5));

  // A bimodal distribution separates p50 from p99 across buckets.
  Histogram* h2 = registry.GetHistogram("pct.bimodal", {1.0, 10.0, 100.0});
  for (int i = 0; i < 99; ++i) h2->Record(0.5);
  for (int i = 0; i < 99; ++i) h2->Record(50.0);
  snap = registry.Snapshot();
  m = snap.Find("pct.bimodal");
  ASSERT_NE(m, nullptr);
  EXPECT_LE(m->Percentile(0.25), 1.0);
  EXPECT_GT(m->Percentile(0.99), 10.0);

  // +inf samples report the last finite bound; empty histograms report 0.
  Histogram* h3 = registry.GetHistogram("pct.inf", {1.0, 10.0});
  h3->Record(1e9);
  snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Find("pct.inf")->Percentile(0.99), 10.0);
  registry.GetHistogram("pct.empty", {1.0});
  snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Find("pct.empty")->Percentile(0.5), 0.0);
  // Counters have no quantiles.
  registry.GetCounter("pct.counter")->Increment();
  snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Find("pct.counter")->Percentile(0.5), 0.0);
}

TEST(NowMicrosTest, Monotonic) {
  int64_t a = NowMicros();
  int64_t b = NowMicros();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace metrics
}  // namespace tfrepro
