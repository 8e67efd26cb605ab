// Tests for the metrics registry (DESIGN.md §8): concurrent counter
// increments, histogram bucket boundaries, snapshot isolation, tag
// separation, and the JSON export; plus the JSON writer and the atomic
// file write every dump goes through (core/json.h, core/file.h).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/file.h"
#include "core/json.h"
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

// The snapshot document byte for byte: counters, then gauges, then
// histograms, each sorted by (name, tags); names and tag strings escaped;
// the last bucket is "+inf".
TEST(RegistryTest, JsonGolden) {
  Registry registry;
  registry.GetCounter("c.\"quoted\"", {{"task", "w\\0"}})->Increment(3);
  registry.GetGauge("g", {{"a", "1"}, {"b", "x\ty"}})->Set(-5);
  Histogram* h = registry.GetHistogram("h", {0.5, 2.25});
  h->Record(0.25);
  h->Record(2.125);
  h->Record(100.0);
  EXPECT_EQ(registry.Snapshot().ToJson(),
            R"({"metrics":[)"
            R"({"name":"c.\"quoted\"","tags":{"task":"w\\0"},)"
            R"("kind":"counter","value":3},)"
            R"({"name":"g","tags":{"a":"1","b":"x\ty"},)"
            R"("kind":"gauge","value":-5},)"
            R"({"name":"h","tags":{},"kind":"histogram","count":3,)"
            R"("sum":102.375,"buckets":[{"le":0.5,"count":1},)"
            R"({"le":2.25,"count":1},{"le":"+inf","count":1}]}]})");
}

// A default-bucket histogram: every bound and the sum are written in the
// shortest form that parses back to the same double.
TEST(RegistryTest, JsonNumbersParseBackBitEqual) {
  Registry registry;
  registry.GetHistogram("lat")->Record(1234567.891);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_EQ(json,
            R"({"metrics":[{"name":"lat","tags":{},"kind":"histogram",)"
            R"("count":1,"sum":1234567.891,"buckets":[)"
            R"({"le":0.001,"count":0},{"le":0.004,"count":0},)"
            R"({"le":0.016,"count":0},{"le":0.064,"count":0},)"
            R"({"le":0.256,"count":0},{"le":1.024,"count":0},)"
            R"({"le":4.096,"count":0},{"le":16.384,"count":0},)"
            R"({"le":65.536,"count":0},{"le":262.144,"count":0},)"
            R"({"le":1048.576,"count":0},{"le":4194.304,"count":0},)"
            R"({"le":16777.216,"count":0},{"le":67108.864,"count":0},)"
            R"({"le":"+inf","count":1}]}]})");
  std::vector<double> bounds;
  for (size_t at = json.find("\"le\":"); at != std::string::npos;
       at = json.find("\"le\":", at + 1)) {
    if (json[at + 5] != '"') {
      bounds.push_back(std::strtod(json.c_str() + at + 5, nullptr));
    }
  }
  EXPECT_EQ(bounds, Histogram::DefaultLatencyBucketsMs());
  EXPECT_EQ(std::strtod(json.c_str() + json.find("\"sum\":") + 6, nullptr),
            1234567.891);
}

// JSON cannot spell NaN or infinity: a histogram holding NaN still
// exports a valid document.
TEST(RegistryTest, NonFiniteSumIsWrittenAsNull) {
  Registry registry;
  registry.GetHistogram("nan", {1.0})->Record(std::nan(""));
  EXPECT_EQ(registry.Snapshot().ToJson(),
            R"({"metrics":[{"name":"nan","tags":{},"kind":"histogram",)"
            R"("count":1,"sum":null,"buckets":[{"le":1,"count":0},)"
            R"({"le":"+inf","count":1}]}]})");
}

// The one JSON writer (core/json.h), shared by the metrics export, the
// Chrome trace, the profile dump and the bench reports.
TEST(JsonStringTest, EscapesWhatJsonRequiresAndPassesTheRest) {
  auto json = [](const std::string& s) {
    JsonWriter w;
    w.String(s);
    return w.str();
  };
  EXPECT_EQ(json("a\"b"), R"("a\"b")");
  EXPECT_EQ(json("a\\b"), R"("a\\b")");
  EXPECT_EQ(json("a\nb"), R"("a\nb")");
  EXPECT_EQ(json("a\tb"), R"("a\tb")");
  EXPECT_EQ(json("a\x01" "b"), R"("a\u0001b")");
  EXPECT_EQ(json("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8 unchanged
}

TEST(JsonWriterTest, PlacesSeparatorsAtEveryDepth) {
  JsonWriter w;
  w.BeginObject().Key("a").BeginArray().Int(1).Int(INT64_MIN);
  w.BeginObject().EndObject().BeginArray().EndArray().EndArray();
  w.Key("b").Bool(true).Key("c").Bool(false);
  w.Key("d").StringMap({{"k", "v"}, {"x\"", "y"}}).EndObject();
  EXPECT_EQ(w.str(), R"({"a":[1,-9223372036854775808,{},[]],"b":true,)"
                     R"("c":false,"d":{"k":"v","x\"":"y"}})");
}

TEST(JsonWriterTest, DoublesAreShortestRoundTripAndNonFiniteIsNull) {
  auto json = [](double v) {
    JsonWriter w;
    w.Double(v);
    return w.str();
  };
  EXPECT_EQ(json(2.125), "2.125");
  EXPECT_EQ(json(2.0), "2");
  EXPECT_EQ(json(-0.5), "-0.5");
  EXPECT_EQ(json(1048.576), "1048.576");
  EXPECT_EQ(json(1234567.891), "1234567.891");
  EXPECT_EQ(json(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(json(1e300), "1e+300");
  EXPECT_EQ(json(std::nan("")), "null");
  EXPECT_EQ(json(HUGE_VAL), "null");
  EXPECT_EQ(json(-HUGE_VAL), "null");
}

// Two writers replace one path while a reader reads it: every read is one
// whole document, and no temp file outlives its write.
TEST(WriteFileAtomicallyTest, ConcurrentWritersNeverTearAReader) {
  const std::string dir = ::testing::TempDir() + "/atomic_writers_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/doc.json";
  const std::string docs[2] = {std::string(40000, 'a'),
                               std::string(60000, 'b')};
  TF_CHECK_OK(WriteFileAtomically(path, docs[0]));

  constexpr int kWrites = 2000;
  std::atomic<int> failed_writes{0};
  std::atomic<bool> done{false};
  int reads = 0, torn = 0;
  std::thread reader([&]() {
    while (!done.load()) {
      Result<std::string> got = ReadFile(path);
      ++reads;
      if (!got.ok() || (got.value() != docs[0] && got.value() != docs[1])) {
        ++torn;
      }
    }
  });
  std::vector<std::thread> writers;
  for (const std::string& doc : docs) {
    writers.emplace_back([&, doc]() {
      for (int i = 0; i < kWrites; ++i) {
        if (!WriteFileAtomically(path, doc).ok()) ++failed_writes;
      }
    });
  }
  for (auto& t : writers) t.join();
  done = true;
  reader.join();

  EXPECT_EQ(failed_writes.load(), 0);
  EXPECT_GT(reads, 0);
  EXPECT_EQ(torn, 0) << "of " << reads << " reads";
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"doc.json"});
  std::filesystem::remove_all(dir);
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
