// The metrics layer (src/obs/metrics.h, histogram.h): histogram edge
// cases and thread-count invariance, counter/gauge/memory-tracker
// semantics, registry rendering agreement across SHOW METRICS text,
// JSON, and the sys.metrics relation, the one-branch disabled path, and
// the slow-query log fed by the unnesting evaluator.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/unnested_evaluator.h"
#include "obs/histogram.h"
#include "shell/shell.h"
#include "sql/binder.h"
#include "test_util.h"
#include "workload/generator.h"

namespace fuzzydb {
namespace {

// ---------------------------------------------------------------------
// Histogram edge cases
// ---------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogramReportsZeroes) {
  Histogram histogram;
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.total_count, 0u);
  EXPECT_EQ(snapshot.sum, 0u);
  EXPECT_EQ(snapshot.max, 0u);
  EXPECT_EQ(snapshot.Quantile(0.5), 0.0);
  EXPECT_EQ(snapshot.Quantile(1.0), 0.0);
  EXPECT_EQ(snapshot.Mean(), 0.0);
}

TEST(HistogramTest, SingleSampleIsEveryQuantile) {
  Histogram histogram;
  histogram.Record(777);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.total_count, 1u);
  EXPECT_EQ(snapshot.sum, 777u);
  EXPECT_EQ(snapshot.max, 777u);
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snapshot.Quantile(q), 777.0) << "q=" << q;
  }
}

TEST(HistogramTest, ZeroValuedSamplesLandInTheZeroBucket) {
  Histogram histogram;
  histogram.Record(0);
  histogram.Record(0);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.total_count, 2u);
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.max, 0u);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.99), 0.0);
}

TEST(HistogramTest, ValuesBeyondTheTopBucketAreTracked) {
  // bit_width(2^63) = 64: the last bucket. The quantile clamps to the
  // tracked max, so even the open-ended bucket reports exactly.
  Histogram histogram;
  const uint64_t huge = UINT64_MAX;
  histogram.Record(huge);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.counts[64], 1u);
  EXPECT_EQ(snapshot.max, huge);
  EXPECT_DOUBLE_EQ(snapshot.Quantile(0.5), static_cast<double>(huge));
  EXPECT_DOUBLE_EQ(snapshot.Quantile(1.0), static_cast<double>(huge));
}

TEST(HistogramTest, QuantilesAreMonotoneAndBucketAccurate) {
  Histogram histogram;
  for (uint64_t v = 1; v <= 1000; ++v) histogram.Record(v);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.total_count, 1000u);
  EXPECT_EQ(snapshot.max, 1000u);
  const double p50 = snapshot.Quantile(0.50);
  const double p90 = snapshot.Quantile(0.90);
  const double p99 = snapshot.Quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 1000.0);
  // Power-of-two buckets: every estimate is within a factor of two.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 495.0);
}

TEST(HistogramTest, ConcurrentRecordingFoldsLikeSerial) {
  // The same multiset of values must fold to the same snapshot at every
  // thread count: sharding may split the samples differently, but the
  // fold is a sum. This is the thread-count-invariance acceptance
  // criterion, and the test is the TSan workload for the histogram.
  constexpr uint64_t kPerThread = 2000;
  Histogram serial;
  for (int t = 0; t < 8; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      serial.Record(t * 131 + i * 7);
    }
  }
  const HistogramSnapshot expected = serial.Snapshot();

  for (int num_threads : {1, 2, 4, 8}) {
    Histogram concurrent;
    std::vector<std::thread> threads;
    // Partition the same 8 "logical" streams over num_threads workers.
    for (int w = 0; w < num_threads; ++w) {
      threads.emplace_back([&concurrent, w, num_threads] {
        for (int t = w; t < 8; t += num_threads) {
          for (uint64_t i = 0; i < kPerThread; ++i) {
            concurrent.Record(t * 131 + i * 7);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    const HistogramSnapshot folded = concurrent.Snapshot();
    EXPECT_EQ(folded.total_count, expected.total_count)
        << num_threads << " threads";
    EXPECT_EQ(folded.sum, expected.sum) << num_threads << " threads";
    EXPECT_EQ(folded.max, expected.max) << num_threads << " threads";
    EXPECT_EQ(folded.counts, expected.counts) << num_threads << " threads";
    EXPECT_DOUBLE_EQ(folded.Quantile(0.99), expected.Quantile(0.99))
        << num_threads << " threads";
  }
}

TEST(HistogramTest, SnapshotAndResetLosesNoSamplesUnderConcurrency) {
  // The SHOW METRICS RESET bug this guards against: a separate
  // Snapshot() followed by Reset() drops every sample recorded between
  // the two calls. SnapshotAndReset drains each shard with one atomic
  // exchange, so across any interleaving every Record lands in exactly
  // one drain.
  Histogram histogram;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> recorded{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&histogram, &stop, &recorded] {
      while (!stop.load(std::memory_order_relaxed)) {
        histogram.Record(7);
        recorded.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  uint64_t drained = 0;
  for (int i = 0; i < 200; ++i) {
    drained += histogram.SnapshotAndReset().total_count;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : writers) thread.join();
  drained += histogram.SnapshotAndReset().total_count;
  EXPECT_EQ(drained, recorded.load());
  EXPECT_EQ(histogram.Snapshot().total_count, 0u);
}

TEST(CounterTest, ValueAndResetDrainsExactlyOnce) {
  Counter counter;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> added{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&counter, &stop, &added] {
      while (!stop.load(std::memory_order_relaxed)) {
        counter.Add();
        added.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  uint64_t drained = 0;
  for (int i = 0; i < 200; ++i) drained += counter.ValueAndReset();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : writers) thread.join();
  drained += counter.ValueAndReset();
  EXPECT_EQ(drained, added.load());
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(HistogramTest, ResetZeroesEveryShard) {
  Histogram histogram;
  for (uint64_t v = 0; v < 100; ++v) histogram.Record(v);
  histogram.Reset();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.total_count, 0u);
  EXPECT_EQ(snapshot.max, 0u);
}

// ---------------------------------------------------------------------
// Counter / Gauge / MemoryTracker
// ---------------------------------------------------------------------

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), 80000u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(MemoryTrackerTest, PeakHoldsTheHighWaterMark) {
  MemoryTracker tracker;
  tracker.Charge(100);
  tracker.Charge(50);
  EXPECT_EQ(tracker.Current(), 150);
  EXPECT_EQ(tracker.Peak(), 150);
  tracker.Release(120);
  tracker.Charge(20);
  EXPECT_EQ(tracker.Current(), 50);
  EXPECT_EQ(tracker.Peak(), 150);  // releases never lower the peak
  tracker.Reset();
  EXPECT_EQ(tracker.Peak(), tracker.Current());
}

TEST(MemoryTrackerTest, ScopedChargeReleasesOnExit) {
  MemoryTracker tracker;
  {
    ScopedMemoryCharge charge(&tracker);
    charge.Charge(64);
    charge.Charge(64);
    EXPECT_EQ(tracker.Current(), 128);
  }
  EXPECT_EQ(tracker.Current(), 0);
  EXPECT_EQ(tracker.Peak(), 128);
  ScopedMemoryCharge null_charge(nullptr);  // must not crash
  null_charge.Charge(1);
}

// ---------------------------------------------------------------------
// Registry: identity, rendering agreement, reset
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* a = registry.GetCounter("test_registry_identity_total");
  Counter* b = registry.GetCounter("test_registry_identity_total");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.GetHistogram("test_registry_identity_us"),
            registry.GetHistogram("test_registry_identity_us"));
}

TEST(MetricsRegistryTest, TextJsonAndRelationAgree) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test_agree_total")->Add(41);
  registry.GetHistogram("test_agree_us")->Record(12);

  const std::string text = registry.ToText();
  EXPECT_NE(text.find("test_agree_total 41\n"), std::string::npos);
  EXPECT_NE(text.find("test_agree_us_count"), std::string::npos);

  const std::string json = registry.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"test_agree_total\":41"), std::string::npos);

  // sys.metrics mirrors ToText() value for value: same series count and,
  // for every row, the same rendered number as the text line.
  const Relation relation = registry.ToRelation();
  size_t text_lines = 0;
  for (char c : text) text_lines += (c == '\n');
  ASSERT_EQ(relation.NumTuples(), text_lines);
  for (const Tuple& row : relation.tuples()) {
    ASSERT_EQ(row.NumValues(), 2u);
    const std::string& name = row.ValueAt(0).AsString();
    const double value = row.ValueAt(1).AsFuzzy().a();  // crisp trapezoid
    if (name == "test_agree_total") {
      EXPECT_DOUBLE_EQ(value, 41.0);
    }
    // Every relation row must appear as a text line verbatim.
    const size_t at = text.find(name + " ");
    ASSERT_NE(at, std::string::npos) << name;
    const size_t end = text.find('\n', at);
    const std::string rendered =
        text.substr(at + name.size() + 1, end - at - name.size() - 1);
    EXPECT_DOUBLE_EQ(std::stod(rendered), value) << name;
  }

  registry.GetCounter("test_agree_total")->Reset();
  registry.GetHistogram("test_agree_us")->Reset();
}

TEST(MetricsRegistryTest, PrometheusTextNamesEverySeries) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test_prom_total")->Add(3);
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE test_prom_total counter"), std::string::npos);
  EXPECT_NE(prom.find("test_prom_total 3"), std::string::npos);
  registry.GetCounter("test_prom_total")->Reset();
}

TEST(MetricsRegistryTest, ResetAllZeroesRegisteredMetrics) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test_resetall_total");
  Histogram* histogram = registry.GetHistogram("test_resetall_us");
  counter->Add(5);
  histogram->Record(9);
  registry.ResetAll();
  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(histogram->Snapshot().total_count, 0u);
}

// ---------------------------------------------------------------------
// Engine integration: counters move when queries run, stand still when
// disabled, and the slow-query log captures over-threshold queries.
// ---------------------------------------------------------------------

constexpr const char* kTypeJaQuery =
    "SELECT R.C0 FROM R WHERE R.C1 > "
    "(SELECT MAX(S.C0) FROM S WHERE S.C1 = R.C2)";

Catalog MakeWorkloadCatalog() {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.AddRelation(GenerateRandomRelation(901, "R", 3, 150)).ok());
  EXPECT_TRUE(
      catalog.AddRelation(GenerateRandomRelation(902, "S", 2, 150)).ok());
  return catalog;
}

TEST(EngineMetricsTest, QueryExecutionMovesTheCounters) {
  Catalog catalog = MakeWorkloadCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kTypeJaQuery, catalog));
  // An IN-family query with a fuzzy equality link takes the merge-window
  // path, so |Rng(r)| samples land in the window histogram.
  ASSERT_OK_AND_ASSIGN(
      auto bound_in,
      sql::ParseAndBind("SELECT R.C0 FROM R WHERE R.C1 IN "
                        "(SELECT S.C0 FROM S)",
                        catalog));

  EngineMetrics* metrics = EngineMetrics::Instance();
  ASSERT_NE(metrics, nullptr);
  const uint64_t queries_before = metrics->queries_total->Value();
  const uint64_t latencies_before =
      metrics->query_latency_us->Snapshot().total_count;
  const uint64_t filter_in_before = metrics->filter_rows_in->Value();
  const uint64_t windows_before =
      metrics->merge_window_length->Snapshot().total_count;

  UnnestingEvaluator evaluator{ExecOptions{}};
  ASSERT_OK_AND_ASSIGN(Relation answer, evaluator.Evaluate(*bound));
  ASSERT_TRUE(evaluator.last_was_unnested());
  ASSERT_OK_AND_ASSIGN(Relation in_answer, evaluator.Evaluate(*bound_in));
  (void)answer;
  (void)in_answer;

  EXPECT_EQ(metrics->queries_total->Value(), queries_before + 2);
  EXPECT_EQ(metrics->query_latency_us->Snapshot().total_count,
            latencies_before + 2);
  EXPECT_GT(metrics->filter_rows_in->Value(), filter_in_before);
  // One |Rng(r)| sample per outer tuple of the IN query.
  EXPECT_GT(metrics->merge_window_length->Snapshot().total_count,
            windows_before);
}

TEST(EngineMetricsTest, DisabledPathRecordsNothing) {
  Catalog catalog = MakeWorkloadCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kTypeJaQuery, catalog));

  MetricsRegistry::Global().SetEnabled(false);
  EXPECT_EQ(EngineMetrics::IfEnabled(), nullptr);
  EngineMetrics* metrics = EngineMetrics::Instance();
  const uint64_t queries_before = metrics->queries_total->Value();

  UnnestingEvaluator evaluator{ExecOptions{}};
  ASSERT_OK_AND_ASSIGN(Relation answer, evaluator.Evaluate(*bound));
  (void)answer;

  EXPECT_EQ(metrics->queries_total->Value(), queries_before);
  MetricsRegistry::Global().SetEnabled(true);
  EXPECT_NE(EngineMetrics::IfEnabled(), nullptr);
}

TEST(SlowQueryLogTest, CapturesOverThresholdQueriesWithTraces) {
  Catalog catalog = MakeWorkloadCatalog();
  ASSERT_OK_AND_ASSIGN(auto bound, sql::ParseAndBind(kTypeJaQuery, catalog));

  SlowQueryLog::Global().Clear();
  ExecOptions options;
  options.slow_query_ms = 1e-9;  // everything is slow
  options.query_text = kTypeJaQuery;
  UnnestingEvaluator evaluator(options);
  ASSERT_OK_AND_ASSIGN(Relation answer, evaluator.Evaluate(*bound));
  (void)answer;

  const auto entries = SlowQueryLog::Global().Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].query_text, kTypeJaQuery);
  EXPECT_GT(entries[0].elapsed_ms, 0.0);
  // The log retains the rendered EXPLAIN ANALYZE tree even though the
  // caller attached no trace of its own.
  EXPECT_NE(entries[0].trace_text.find("evaluate"), std::string::npos);
  SlowQueryLog::Global().Clear();
}

TEST(SlowQueryLogTest, RingKeepsOnlyTheMostRecentEntries) {
  SlowQueryLog::Global().Clear();
  for (int i = 0; i < 40; ++i) {
    SlowQueryLog::Global().Add(
        {"q" + std::to_string(i), static_cast<double>(i), ""});
  }
  const auto entries = SlowQueryLog::Global().Entries();
  ASSERT_EQ(entries.size(), 32u);  // kCapacity
  EXPECT_EQ(entries.front().query_text, "q8");  // oldest surviving
  EXPECT_EQ(entries.back().query_text, "q39");
  SlowQueryLog::Global().Clear();
}

// ---------------------------------------------------------------------
// Shell surfaces: SHOW METRICS and sys.metrics expose the same values.
// ---------------------------------------------------------------------

TEST(ShellMetricsTest, ShowMetricsAndSysMetricsAgree) {
  Shell shell;
  std::ostringstream setup;
  shell.FeedLine("CREATE TABLE t (name STRING, score FUZZY);", setup);
  shell.FeedLine("INSERT INTO t VALUES ('a', ABOUT(10, 2)) DEGREE 0.8;",
                 setup);
  shell.FeedLine("SELECT name FROM t WITH D >= 0.1;", setup);

  std::ostringstream show;
  shell.FeedLine("SHOW METRICS;", show);
  EXPECT_NE(show.str().find("fuzzydb_queries_total"), std::string::npos);

  std::ostringstream select;
  shell.FeedLine("SELECT name, value FROM sys.metrics WITH D >= 0.0;",
                 select);
  // Every text line's series appears in the relation output with the
  // same rendered value (the relation prints crisp numbers plainly).
  size_t series = 0;
  std::istringstream lines(show.str());
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.find(' ');
    if (space == std::string::npos || line.rfind("fuzzydb_", 0) != 0) {
      continue;
    }
    ++series;
    const std::string name = line.substr(0, space);
    EXPECT_NE(select.str().find("'" + name + "'"), std::string::npos)
        << name;
  }
  EXPECT_GT(series, 20u);  // the whole engine family is present
}

TEST(ShellMetricsTest, ShowMetricsResetZeroes) {
  Shell shell;
  std::ostringstream setup;
  shell.FeedLine("CREATE TABLE t2 (name STRING);", setup);
  shell.FeedLine("SELECT name FROM t2 WITH D >= 0.0;", setup);
  ASSERT_GT(EngineMetrics::Instance()->queries_total->Value(), 0u);

  std::ostringstream reset;
  shell.FeedLine("SHOW METRICS RESET;", reset);
  EXPECT_NE(reset.str().find("-- metrics reset"), std::string::npos);
  EXPECT_EQ(EngineMetrics::Instance()->queries_total->Value(), 0u);
}

}  // namespace
}  // namespace fuzzydb
