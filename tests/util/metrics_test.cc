#include "util/metrics.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/json.h"

namespace tps {
namespace {

TEST(CounterTest, IncrementsAndReads) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.count");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same instrument.
  EXPECT_EQ(&registry.counter("test.count"), &c);
}

TEST(GaugeTest, SetAndSetMax) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test.depth");
  g.Set(3.0);
  g.SetMax(3.0);
  g.Set(1.0);
  g.SetMax(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  EXPECT_DOUBLE_EQ(g.max_value(), 3.0);
}

TEST(HistogramTest, BucketsCountSumMinMax) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.lat", {1.0, 10.0, 100.0});
  h.Record(0.5);
  h.Record(5.0);
  h.Record(50.0);
  h.Record(500.0);  // Overflow bucket.
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.empty");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(DisabledRegistryTest, EveryRecordingIsANoOp) {
  MetricsRegistry registry(/*enabled=*/false);
  EXPECT_FALSE(registry.enabled());
  Counter& c = registry.counter("noop.count");
  c.Increment(100);
  EXPECT_EQ(c.value(), 0u);
  Gauge& g = registry.gauge("noop.gauge");
  g.Set(7.0);
  g.SetMax(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.max_value(), 0.0);
  Histogram& h = registry.histogram("noop.hist");
  h.Record(3.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ScopedLatencyTimerTest, RecordsOnDestructionAndNullIsSafe) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("timer.us");
  {
    ScopedLatencyTimer timer(&h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 0.0);
  {
    ScopedLatencyTimer null_timer(nullptr);  // Must not crash.
  }
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsExact) {
  MetricsRegistry registry;
  Counter& c = registry.counter("mt.count");
  Histogram& h = registry.histogram("mt.hist", {1e9});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Record(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket_count(0), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, ToJsonIsValidAndSorted) {
  MetricsRegistry registry;
  registry.counter("b.count").Increment(2);
  registry.counter("a.count").Increment(1);
  registry.gauge("g.depth").Set(4.0);
  registry.histogram("h.lat", {10.0}).Record(3.0);
  auto parsed = json::Parse(registry.ToJson());
  ASSERT_TRUE(parsed.ok());
  const json::Value* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Dump(), R"({"a.count":1,"b.count":2})");
  const json::Value* hists = parsed->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* h = hists->Find("h.lat");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->Find("count")->number(), 1.0);
}

TEST(MetricsRegistryTest, PipelineInstrumentsResolveOnceToTheNamedOnes) {
  MetricsRegistry registry;
  const PipelineInstruments& pipeline = registry.pipeline();
  EXPECT_EQ(&registry.pipeline(), &pipeline);
  EXPECT_EQ(&pipeline.recall_runs, &registry.counter("recall.runs"));
  EXPECT_EQ(&pipeline.recall_wall_us, &registry.histogram("recall.wall_us"));
  EXPECT_EQ(&pipeline.fine_halving_drops,
            &registry.counter("fine.halving_drops"));
  EXPECT_EQ(&pipeline.two_phase_runs, &registry.counter("two_phase.runs"));
  pipeline.fine_runs.Increment(3);
  EXPECT_EQ(registry.counter("fine.runs").value(), 3u);
}

TEST(MetricsRegistryTest, DefaultIsEnabledSingleton) {
  ASSERT_NE(MetricsRegistry::Default(), nullptr);
  EXPECT_TRUE(MetricsRegistry::Default()->enabled());
  EXPECT_EQ(MetricsRegistry::Default(), MetricsRegistry::Default());
}

}  // namespace
}  // namespace tps
