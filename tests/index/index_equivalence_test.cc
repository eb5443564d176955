#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/coarse_recall.h"
#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "data/registry.h"
#include "index/ivf_index.h"
#include "index/recall_index.h"
#include "index/reference_recall.h"
#include "model/zoo.h"
#include "model/zoo_gen.h"
#include "sim/epoch_budget.h"
#include "sim/finetune_simulator.h"
#include "util/thread_pool.h"

namespace tps {
namespace {

// The equivalence theorems pinned here (DESIGN.md "Sub-linear recall
// index"):
//  A. An IvfIndex built with exact propagation (propagation_neighbors = 0)
//     and probed in full reproduces the paper's clustering sweep
//     (ReferenceRecall, a serial test-only oracle) over its own
//     partitioning bit for bit — scores, recalled set, tie order and the
//     epoch ledger.
//  B. CoarseRecall's exact index — a BruteForceRecallIndex lifted from a
//     ModelClustering — reproduces the reference sweep over that
//     clustering bit for bit, for a real clustering and for the
//     all-singleton one.
//  C. Incremental Insert against a frozen quantizer equals the
//     from-scratch BuildWithCentroids rebuild over the grown inputs.
// Each theorem is fuzzed over zoo sizes and seeds and run serial and on a
// pool (the parallel label routes this file through the TSan sweep).

struct World {
  std::unique_ptr<ModelZoo> zoo;
  std::unique_ptr<DatasetRegistry> registry;
  std::unique_ptr<FineTuneSimulator> simulator;
  std::unique_ptr<PerformanceMatrix> matrix;
  const Dataset* target = nullptr;
};

World MakeWorld(size_t num_models, uint64_t seed) {
  World world;
  ZooGenSpec spec;
  spec.domain = TaskDomain::kNLP;
  spec.num_models = num_models;
  spec.seed = seed;
  auto specs = GenerateZooSpecs(spec);
  EXPECT_TRUE(specs.ok()) << specs.status().message();
  auto zoo = ModelZoo::Create(*specs);
  EXPECT_TRUE(zoo.ok()) << zoo.status().message();
  world.zoo = std::make_unique<ModelZoo>(*std::move(zoo));
  world.registry = std::make_unique<DatasetRegistry>(
      *DatasetRegistry::CreatePaperInventory());
  world.simulator = std::make_unique<FineTuneSimulator>();
  auto matrix = PerformanceMatrix::Build(
      *world.zoo, world.registry->Benchmarks(TaskDomain::kNLP),
      *world.simulator, Hyperparams::DefaultsFor(TaskDomain::kNLP));
  EXPECT_TRUE(matrix.ok()) << matrix.status().message();
  world.matrix = std::make_unique<PerformanceMatrix>(*std::move(matrix));
  world.target = *world.registry->Find("mnli");
  return world;
}

// Bit-for-bit: EXPECT_EQ on doubles is exact equality, which is the
// contract — the indexed path must run the same arithmetic in the same
// order, not merely land close.
void ExpectIdentical(const RecallResult& a, const RecallResult& b) {
  EXPECT_EQ(a.proxies_computed, b.proxies_computed);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].model_index, b.ranked[i].model_index) << i;
    EXPECT_EQ(a.ranked[i].recall_score, b.ranked[i].recall_score) << i;
    EXPECT_EQ(a.ranked[i].prior_accuracy, b.ranked[i].prior_accuracy) << i;
    EXPECT_EQ(a.ranked[i].proxy_component, b.ranked[i].proxy_component) << i;
    EXPECT_EQ(a.ranked[i].via_propagation, b.ranked[i].via_propagation) << i;
  }
}

TEST(IndexEquivalenceTest, FullProbeIvfEqualsLegacySweep) {
  for (const auto& [num_models, seed] :
       std::vector<std::pair<size_t, uint64_t>>{{60, 3}, {150, 11}}) {
    SCOPED_TRACE("zoo " + std::to_string(num_models) + " seed " +
                 std::to_string(seed));
    const World world = MakeWorld(num_models, seed);

    IvfIndexOptions options;
    options.propagation_neighbors = 0;  // Exact propagation.
    auto index = IvfIndex::Build(world.matrix->ModelVectors(),
                                 world.matrix->ModelAverageAccuracies(),
                                 options);
    ASSERT_TRUE(index.ok()) << index.status().message();
    auto clustering = ClusteringFromIndexStructure(index->structure());
    ASSERT_TRUE(clustering.ok()) << clustering.status().message();

    EpochBudget reference_budget;
    auto reference =
        ReferenceRecall(*world.zoo, *world.matrix, *clustering,
                        *world.target, RecallOptions(), &reference_budget);
    ASSERT_TRUE(reference.ok()) << reference.status().message();

    CoarseRecall recall(world.zoo.get(), world.matrix.get(),
                        &*clustering);
    RecallOptions indexed_options;
    indexed_options.index = &*index;
    indexed_options.nprobe = index->num_partitions();  // Full probe.
    EpochBudget indexed_budget;
    auto indexed =
        recall.Recall(*world.target, indexed_options, &indexed_budget);
    ASSERT_TRUE(indexed.ok()) << indexed.status().message();

    ExpectIdentical(*reference, *indexed);
    EXPECT_EQ(indexed_budget.inference_epochs(),
              reference_budget.inference_epochs());
    EXPECT_EQ(indexed_budget.training_epochs(),
              reference_budget.training_epochs());

    // Same theorem on a pool: the fan-out must not perturb a single bit.
    ThreadPool pool(4);
    auto pooled =
        recall.Recall(*world.target, indexed_options, nullptr, &pool);
    ASSERT_TRUE(pooled.ok()) << pooled.status().message();
    ExpectIdentical(*reference, *pooled);
  }
}

TEST(IndexEquivalenceTest, BruteForceFromClusteringEqualsLegacySweep) {
  for (uint64_t seed : {5u, 23u}) {
    const World world = MakeWorld(80, seed);
    auto clustered = ClusterModels(*world.matrix, *world.zoo,
                                   ModelClusteringOptions());
    ASSERT_TRUE(clustered.ok()) << clustered.status().message();
    // The all-singleton clustering covers the "no partition qualifies ->
    // score every non-empty partition" fallback: the direct-scoring
    // ablation.
    const std::vector<std::pair<std::string, ModelClustering>> inputs = {
        {"clustered", *clustered},
        {"singletons", SingletonClustering(world.zoo->size())}};
    for (const auto& [name, clustering] : inputs) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + name);
      EpochBudget reference_budget;
      auto reference =
          ReferenceRecall(*world.zoo, *world.matrix, clustering,
                          *world.target, RecallOptions(), &reference_budget);
      ASSERT_TRUE(reference.ok()) << reference.status().message();

      // The production default: CoarseRecall's own exact index.
      CoarseRecall recall(world.zoo.get(), world.matrix.get(), &clustering);
      EpochBudget exact_budget;
      auto exact = recall.Recall(*world.target, RecallOptions(),
                                 &exact_budget);
      ASSERT_TRUE(exact.ok()) << exact.status().message();
      ExpectIdentical(*reference, *exact);
      EXPECT_EQ(exact_budget.inference_epochs(),
                reference_budget.inference_epochs());

      // The same exact index, passed in explicitly.
      auto index = IndexFromClustering(*world.matrix, clustering);
      ASSERT_TRUE(index.ok()) << index.status().message();
      RecallOptions indexed_options;
      indexed_options.index = &*index;
      EpochBudget indexed_budget;
      auto indexed =
          recall.Recall(*world.target, indexed_options, &indexed_budget);
      ASSERT_TRUE(indexed.ok()) << indexed.status().message();
      ExpectIdentical(*reference, *indexed);
      EXPECT_EQ(indexed_budget.inference_epochs(),
                reference_budget.inference_epochs());

      ThreadPool pool(3);
      auto pooled =
          recall.Recall(*world.target, RecallOptions(), nullptr, &pool);
      ASSERT_TRUE(pooled.ok()) << pooled.status().message();
      ExpectIdentical(*reference, *pooled);
    }
  }
}

TEST(IndexEquivalenceTest, InsertEqualsRebuildWithFrozenQuantizer) {
  for (const auto& [num_models, seed] :
       std::vector<std::pair<size_t, uint64_t>>{{60, 7}, {120, 31}}) {
    SCOPED_TRACE("zoo " + std::to_string(num_models) + " seed " +
                 std::to_string(seed));
    const World world = MakeWorld(num_models, seed);
    const std::vector<std::vector<double>> vectors =
        world.matrix->ModelVectors();
    const std::vector<double> prior =
        world.matrix->ModelAverageAccuracies();
    const size_t held_out = 5;
    const size_t base_count = vectors.size() - held_out;

    IvfIndexOptions options;
    options.propagation_neighbors = 4;
    std::vector<std::vector<double>> base_vectors(
        vectors.begin(), vectors.begin() + static_cast<long>(base_count));
    std::vector<double> base_prior(
        prior.begin(), prior.begin() + static_cast<long>(base_count));
    auto grown = IvfIndex::Build(base_vectors, base_prior, options);
    ASSERT_TRUE(grown.ok()) << grown.status().message();

    for (size_t m = base_count; m < vectors.size(); ++m) {
      ASSERT_TRUE(grown->Insert(vectors[m], prior[m]).ok());
    }
    auto rebuilt = IvfIndex::BuildWithCentroids(grown->centroids(), vectors,
                                                prior, options);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();

    // Serialize covers every primary field (options, priors, assignments,
    // centroids, vectors); the derived fields are compared directly.
    EXPECT_EQ(grown->Serialize(), rebuilt->Serialize());
    const IndexStructure& a = grown->structure();
    const IndexStructure& b = rebuilt->structure();
    EXPECT_EQ(a.members, b.members);
    EXPECT_EQ(a.representatives, b.representatives);
    EXPECT_EQ(a.scored_partitions, b.scored_partitions);
    EXPECT_EQ(a.slot_of_partition, b.slot_of_partition);
    EXPECT_EQ(a.neighbors, b.neighbors);
    EXPECT_EQ(a.probe_priority, b.probe_priority);
    EXPECT_EQ(a.pilot_order, b.pilot_order);
  }
}

TEST(IndexEquivalenceTest, PartialProbeChargesExactlyNprobe) {
  const World world = MakeWorld(120, 13);
  auto index = IvfIndex::Build(world.matrix->ModelVectors(),
                               world.matrix->ModelAverageAccuracies(),
                               IvfIndexOptions());
  ASSERT_TRUE(index.ok()) << index.status().message();
  auto clustering = ClusteringFromIndexStructure(index->structure());
  ASSERT_TRUE(clustering.ok()) << clustering.status().message();
  CoarseRecall recall(world.zoo.get(), world.matrix.get(), &*clustering);
  const size_t scored = index->structure().scored_partitions.size();
  ASSERT_GE(scored, 6u);

  const size_t nprobe = scored / 2;
  RecallOptions options;
  options.index = &*index;
  options.nprobe = nprobe;
  EpochBudget budget;
  auto result = recall.Recall(*world.target, options, &budget);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // The adaptive pilot-and-route probe splits the budget into two waves
  // but never exceeds it: exactly nprobe representatives are scored and
  // charged.
  EXPECT_EQ(result->proxies_computed, nprobe);
  EXPECT_EQ(budget.inference_epochs(), 0.5 * static_cast<double>(nprobe));
  for (size_t i = 1; i < result->ranked.size(); ++i) {
    EXPECT_GE(result->ranked[i - 1].recall_score,
              result->ranked[i].recall_score);
  }

  // The two-wave schedule is deterministic: serial and pooled runs agree
  // bit for bit.
  ThreadPool pool(4);
  auto pooled = recall.Recall(*world.target, options, nullptr, &pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status().message();
  ExpectIdentical(*result, *pooled);
}

}  // namespace
}  // namespace tps
