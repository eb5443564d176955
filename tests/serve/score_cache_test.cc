#include "transfer/score_cache.h"

#include <gtest/gtest.h>

#include "data/registry.h"
#include "model/paper_zoo.h"
#include "model/zoo.h"
#include "transfer/proxy_flight.h"
#include "transfer/proxy_scorer.h"

namespace tps {
namespace {

ProxyCacheKey Key(uint64_t fp, const std::string& model,
                  const std::string& scorer = "leep") {
  ProxyCacheKey key;
  key.dataset_fingerprint = fp;
  key.model = model;
  key.scorer = scorer;
  return key;
}

TEST(DatasetFingerprintTest, DeterministicAcrossCalls) {
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  const Dataset* mnli = *registry.Find("mnli");
  EXPECT_EQ(DatasetFingerprint(*mnli), DatasetFingerprint(*mnli));
  // A second registry instance produces the same dataset, hence the same
  // fingerprint — no pointer identity or ASLR leaks into the key.
  DatasetRegistry again = *DatasetRegistry::CreatePaperInventory();
  EXPECT_EQ(DatasetFingerprint(*mnli),
            DatasetFingerprint(**again.Find("mnli")));
}

TEST(DatasetFingerprintTest, DistinctDatasetsDistinctFingerprints) {
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  const Dataset* mnli = *registry.Find("mnli");
  const Dataset* boolq = *registry.Find("boolq");
  EXPECT_NE(DatasetFingerprint(*mnli), DatasetFingerprint(*boolq));
}

TEST(ProxyScoreCacheTest, MissThenHit) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(8, &metrics);
  const ProxyCacheKey key = Key(1, "bert");
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, 0.25);
  auto cached = cache.Lookup(key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(*cached, 0.25);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(metrics.counter("proxy_cache.hits").value(), 1u);
  EXPECT_EQ(metrics.counter("proxy_cache.misses").value(), 1u);
}

TEST(ProxyScoreCacheTest, KeyDistinguishesAllThreeComponents) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(8, &metrics);
  cache.Insert(Key(1, "bert", "leep"), 1.0);
  EXPECT_FALSE(cache.Lookup(Key(2, "bert", "leep")).has_value());
  EXPECT_FALSE(cache.Lookup(Key(1, "gpt", "leep")).has_value());
  EXPECT_FALSE(cache.Lookup(Key(1, "bert", "nce")).has_value());
  EXPECT_TRUE(cache.Lookup(Key(1, "bert", "leep")).has_value());
}

TEST(ProxyScoreCacheTest, EvictionOrderIsDeterministicLru) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(3, &metrics);
  cache.Insert(Key(1, "a"), 0.1);
  cache.Insert(Key(2, "b"), 0.2);
  cache.Insert(Key(3, "c"), 0.3);
  // Touch "a": it becomes most-recent, "b" becomes least-recent.
  EXPECT_TRUE(cache.Lookup(Key(1, "a")).has_value());
  cache.Insert(Key(4, "d"), 0.4);  // Evicts "b", the strict LRU victim.
  EXPECT_FALSE(cache.Lookup(Key(2, "b")).has_value());
  EXPECT_TRUE(cache.Lookup(Key(3, "c")).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(metrics.counter("proxy_cache.evictions").value(), 1u);

  // MRU -> LRU after the lookups above: c (just touched), d, a. Each new
  // key evicts the least recent; a missed Lookup touches nothing.
  cache.Insert(Key(5, "e"), 0.5);
  EXPECT_FALSE(cache.Lookup(Key(1, "a")).has_value());
  cache.Insert(Key(6, "f"), 0.6);
  EXPECT_FALSE(cache.Lookup(Key(4, "d")).has_value());
  cache.Insert(Key(7, "g"), 0.7);
  EXPECT_FALSE(cache.Lookup(Key(3, "c")).has_value());
  EXPECT_EQ(cache.evictions(), 4u);
}

TEST(ProxyScoreCacheTest, SameAccessSequenceSameEvictionOrder) {
  // The eviction order is a pure function of the access sequence: two
  // caches fed identically agree on every victim.
  MetricsRegistry metrics;
  ProxyScoreCache a(4, &metrics), b(4, &metrics);
  const auto feed = [](ProxyScoreCache& cache) {
    for (int round = 0; round < 3; ++round) {
      for (uint64_t i = 0; i < 9; ++i) {
        const ProxyCacheKey key = Key(i % 6, std::string("m") + std::to_string(i % 5));
        if (!cache.Lookup(key).has_value()) {
          cache.Insert(key, static_cast<double>(i));
        }
      }
    }
  };
  feed(a);
  feed(b);
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.evictions(), b.evictions());
  // The same survivors: every key of the sequence is held by both or by
  // neither (identical lookups keep the two recency orders in step).
  for (uint64_t i = 0; i < 30; ++i) {
    const ProxyCacheKey key =
        Key(i % 6, std::string("m") + std::to_string(i % 5));
    EXPECT_EQ(a.Lookup(key).has_value(), b.Lookup(key).has_value()) << i;
  }
}

TEST(ProxyScoreCacheTest, ZeroCapacityDisablesStorage) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(0, &metrics);
  cache.Insert(Key(1, "a"), 0.5);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(Key(1, "a")).has_value());
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ProxyScoreCacheTest, InsertRefreshesExistingEntry) {
  MetricsRegistry metrics;
  ProxyScoreCache cache(2, &metrics);
  cache.Insert(Key(1, "a"), 0.1);
  cache.Insert(Key(2, "b"), 0.2);
  cache.Insert(Key(1, "a"), 0.9);  // Overwrite, no eviction.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(*cache.Lookup(Key(1, "a")), 0.9);
  // "a" was refreshed by the overwrite, so "b" is now the LRU victim.
  cache.Insert(Key(3, "c"), 0.3);
  EXPECT_FALSE(cache.Lookup(Key(2, "b")).has_value());
}

// The cache is filled only through its one writer, the flight group: a
// leader's successful score is cached bit for bit, and the next arrival
// hits it without computing.
TEST(ProxyScoreCacheTest, GetOrComputeCachesBitIdenticalScores) {
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  ModelZoo zoo = *ModelZoo::Create(NlpPaperZooSpecs());
  const Dataset* target = *registry.Find("mnli");
  auto scorer = MakeProxyScorer("leep").value();
  const ProxyCacheKey key =
      Key(DatasetFingerprint(*target), zoo.model(0).name());
  const auto compute = [&]() { return scorer->Score(zoo.model(0), *target); };

  MetricsRegistry metrics;
  ProxyScoreCache cache(8, &metrics);
  ProxyFlightGroup flight(&metrics);
  bool hit = true;
  auto first = flight.GetOrCompute(&cache, key, nullptr, compute, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  auto direct = scorer->Score(zoo.model(0), *target);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*first, *direct);  // Bit-identical, not approximately equal.
  EXPECT_EQ(*cache.Lookup(key), *direct);

  auto second = flight.GetOrCompute(&cache, key, nullptr, compute, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(flight.computes(), 1u);
  EXPECT_EQ(cache.hits(), 2u);  // The second fetch and the Lookup above.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProxyScoreCacheTest, GetOrComputeDoesNotCacheErrors) {
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  // CV model x NLP dataset: Score fails with a domain mismatch.
  ModelZoo zoo = *ModelZoo::Create(CvPaperZooSpecs());
  const Dataset* target = *registry.Find("mnli");
  auto scorer = MakeProxyScorer("leep").value();
  const ProxyCacheKey key =
      Key(DatasetFingerprint(*target), zoo.model(0).name());
  size_t calls = 0;
  const auto compute = [&]() {
    ++calls;
    return scorer->Score(zoo.model(0), *target);
  };

  MetricsRegistry metrics;
  ProxyScoreCache cache(8, &metrics);
  ProxyFlightGroup flight(&metrics);
  EXPECT_FALSE(flight.GetOrCompute(&cache, key, nullptr, compute).ok());
  EXPECT_EQ(cache.size(), 0u);
  // The failure stays live: a later call computes and fails again instead
  // of serving a stale cached error.
  EXPECT_FALSE(flight.GetOrCompute(&cache, key, nullptr, compute).ok());
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(flight.computes(), 0u);
}

}  // namespace
}  // namespace tps
