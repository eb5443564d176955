// Proof that the proxy-score cache is inert: a selection served from the
// cache is bit-identical to one that recomputes every proxy, serially and
// on a thread pool, cold and warm. Every run uses the served configuration,
// the cache behind a flight group (its one writer). This is what makes it
// safe to leave the cache on in production — it can only change latency,
// never answers.

#include <gtest/gtest.h>

#include "core/two_phase.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "transfer/proxy_flight.h"
#include "transfer/score_cache.h"
#include "util/thread_pool.h"

namespace tps {
namespace {

class CacheInertnessTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), *simulator_,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
    clustering_ = new ModelClustering(
        *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions()));
  }

  static void ExpectIdentical(const TwoPhaseReport& a,
                              const TwoPhaseReport& b) {
    ASSERT_EQ(a.recall.ranked.size(), b.recall.ranked.size());
    for (size_t i = 0; i < a.recall.ranked.size(); ++i) {
      EXPECT_EQ(a.recall.ranked[i].model_index,
                b.recall.ranked[i].model_index);
      // EXPECT_EQ on doubles is exact — bit-identical, not approximate.
      EXPECT_EQ(a.recall.ranked[i].recall_score,
                b.recall.ranked[i].recall_score);
      EXPECT_EQ(a.recall.ranked[i].proxy_component,
                b.recall.ranked[i].proxy_component);
      EXPECT_EQ(a.recall.ranked[i].via_propagation,
                b.recall.ranked[i].via_propagation);
    }
    EXPECT_EQ(a.recall.proxies_computed, b.recall.proxies_computed);
    EXPECT_EQ(a.selection.selected_model, b.selection.selected_model);
    EXPECT_EQ(a.selection.selected_accuracy, b.selection.selected_accuracy);
    EXPECT_EQ(a.selection.survivors_per_stage,
              b.selection.survivors_per_stage);
    EXPECT_EQ(a.budget.training_epochs(), b.budget.training_epochs());
    EXPECT_EQ(a.budget.inference_epochs(), b.budget.inference_epochs());
  }

  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static ModelZoo* zoo_;
  static PerformanceMatrix* matrix_;
  static ModelClustering* clustering_;
};

DatasetRegistry* CacheInertnessTest::registry_ = nullptr;
FineTuneSimulator* CacheInertnessTest::simulator_ = nullptr;
ModelZoo* CacheInertnessTest::zoo_ = nullptr;
PerformanceMatrix* CacheInertnessTest::matrix_ = nullptr;
ModelClustering* CacheInertnessTest::clustering_ = nullptr;

TEST_F(CacheInertnessTest, CacheOnEqualsCacheOffSerial) {
  TwoPhaseSelector selector(zoo_, matrix_, clustering_, simulator_);
  MetricsRegistry metrics;
  ProxyScoreCache cache(4096, &metrics);
  ProxyFlightGroup flight(&metrics);
  for (const char* name : {"mnli", "boolq", "tweet_eval"}) {
    const Dataset& target = **registry_->Find(name);
    TwoPhaseOptions off;
    TwoPhaseOptions on;
    on.recall.score_cache = &cache;
    on.recall.flight_group = &flight;
    const TwoPhaseReport baseline = *selector.Select(target, off);
    // Cold pass fills the cache, warm pass serves from it; both must match
    // the uncached baseline exactly.
    ExpectIdentical(baseline, *selector.Select(target, on));
    const uint64_t hits_before = cache.hits();
    ExpectIdentical(baseline, *selector.Select(target, on));
    EXPECT_GT(cache.hits(), hits_before) << name;
  }
}

TEST_F(CacheInertnessTest, CacheOnEqualsCacheOffParallel) {
  TwoPhaseSelector selector(zoo_, matrix_, clustering_, simulator_);
  MetricsRegistry metrics;
  ProxyScoreCache cache(4096, &metrics);
  ProxyFlightGroup flight(&metrics);
  ThreadPool pool(3);
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  const Dataset& target = **registry_->Find("mnli");

  TwoPhaseOptions off;
  TwoPhaseOptions on;
  on.recall.score_cache = &cache;
  on.recall.flight_group = &flight;
  const TwoPhaseReport baseline = *selector.Select(target, off, hp, &pool);
  // Cold and warm parallel passes: the cache is shared by every pool
  // thread and still cannot perturb the ranking.
  ExpectIdentical(baseline, *selector.Select(target, on, hp, &pool));
  ExpectIdentical(baseline, *selector.Select(target, on, hp, &pool));
  // And parallel-with-cache equals serial-without: the full cross charge.
  ExpectIdentical(baseline, *selector.Select(target, off));
}

TEST_F(CacheInertnessTest, BudgetChargesEveryProxyEvenOnCacheHit) {
  TwoPhaseSelector selector(zoo_, matrix_, clustering_, simulator_);
  MetricsRegistry metrics;
  ProxyScoreCache cache(4096, &metrics);
  ProxyFlightGroup flight(&metrics);
  TwoPhaseOptions on;
  on.recall.score_cache = &cache;
  on.recall.flight_group = &flight;
  const Dataset& target = **registry_->Find("mnli");

  const TwoPhaseReport cold = *selector.Select(target, on);
  const uint64_t misses_after_cold = cache.misses();
  // With no concurrent arrivals every miss leads a flight that computes.
  EXPECT_EQ(flight.computes(), misses_after_cold);
  const TwoPhaseReport warm = *selector.Select(target, on);
  // The warm run computed nothing new...
  EXPECT_EQ(cache.misses(), misses_after_cold);
  EXPECT_EQ(flight.computes(), misses_after_cold);
  EXPECT_GT(cache.hits(), 0u);
  // ...but the ledger still charges the same logical inference cost (the
  // paper's cost model counts proxies, and a cache-independent ledger is
  // what lets these reports be compared at all).
  EXPECT_EQ(warm.budget.inference_epochs(), cold.budget.inference_epochs());
  EXPECT_EQ(warm.recall.proxies_computed, cold.recall.proxies_computed);
}

TEST_F(CacheInertnessTest, TinyCacheThrashingIsStillInert) {
  // Capacity 2 forces constant eviction: correctness must not depend on
  // hit rate.
  TwoPhaseSelector selector(zoo_, matrix_, clustering_, simulator_);
  MetricsRegistry metrics;
  ProxyScoreCache cache(2, &metrics);
  ProxyFlightGroup flight(&metrics);
  TwoPhaseOptions off;
  TwoPhaseOptions on;
  on.recall.score_cache = &cache;
  on.recall.flight_group = &flight;
  for (const char* name : {"mnli", "boolq"}) {
    const Dataset& target = **registry_->Find(name);
    const TwoPhaseReport baseline = *selector.Select(target, off);
    ExpectIdentical(baseline, *selector.Select(target, on));
    ExpectIdentical(baseline, *selector.Select(target, on));
  }
  EXPECT_GT(cache.evictions(), 0u);
}

}  // namespace
}  // namespace tps
