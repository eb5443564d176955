// Serial-vs-parallel determinism suite for the online two-phase pipeline
// and the offline performance-matrix build.
//
// Every simulator run, proxy forward pass and trend prediction is a pure
// function of its index, and all parallel reductions in the library are
// index-ordered, so for ANY thread count the full TwoPhaseReport — recall
// ranking (every entry, every field), selection outcome, and the epoch
// budget ledger — must be BIT-identical to the serial run. These tests
// enforce that on randomized zoo/benchmark configurations across thread
// counts {1, 2, 7, 2 x hardware}. All comparisons are exact (==), never
// within-epsilon.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/coarse_recall.h"
#include "core/convergence_trend.h"
#include "core/fine_selection.h"
#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "core/two_phase.h"
#include "data/dataset.h"
#include "data/registry.h"
#include "index/reference_recall.h"
#include "model/paper_zoo.h"
#include "model/zoo.h"
#include "sim/finetune_simulator.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tps {
namespace {

std::vector<int> ThreadCounts() {
  return {1, 2, 7, 2 * ThreadPool::DefaultThreads()};
}

/// One randomized end-to-end configuration: a zoo of models with random
/// families/tags/capabilities, a random benchmark suite, one target task,
/// and randomized pipeline options.
struct RandomConfig {
  ModelZoo zoo;
  std::vector<Dataset> benchmarks;
  Dataset target;
  PerformanceMatrix matrix;
  ModelClustering clustering;
  TwoPhaseOptions options;
  Hyperparams hp;

  std::vector<const Dataset*> BenchmarkPtrs() const {
    std::vector<const Dataset*> ptrs;
    for (const Dataset& d : benchmarks) ptrs.push_back(&d);
    return ptrs;
  }
};

RandomConfig MakeRandomConfig(uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> families = {"bert", "roberta", "albert",
                                             "electra", "deberta"};
  const std::vector<std::string> tag_pool = {
      "english", "news",    "books",  "social", "finance",
      "medical", "reviews", "forums", "nli",    "qa"};
  const auto pick_tags = [&](size_t count) {
    std::vector<std::string> tags;
    for (size_t idx : rng.SampleWithoutReplacement(tag_pool.size(), count)) {
      tags.push_back(tag_pool[idx]);
    }
    return tags;
  };

  const size_t num_models = 10 + rng.UniformInt(uint64_t{9});   // 10..18
  const size_t num_benchmarks = 5 + rng.UniformInt(uint64_t{4});  // 5..8
  std::vector<ModelSpec> model_specs;
  for (size_t m = 0; m < num_models; ++m) {
    ModelSpec spec;
    spec.name = std::string("rzoo") + std::to_string(seed) + std::string("-m") + std::to_string(m);
    spec.domain = TaskDomain::kNLP;
    spec.family = families[rng.UniformInt(families.size())];
    spec.scale_millions = rng.Uniform(20.0, 350.0);
    spec.capability = rng.Uniform(0.35, 0.9);
    spec.pretrain_tags = pick_tags(2 + rng.UniformInt(uint64_t{2}));
    if (rng.Bernoulli(0.6)) {  // Mix of fine-tuned and pre-train-only.
      spec.finetune_tags = pick_tags(1 + rng.UniformInt(uint64_t{2}));
      spec.finetune_strength = rng.Uniform(0.15, 0.5);
    }
    spec.num_source_labels = 2 + static_cast<int>(rng.UniformInt(uint64_t{14}));
    model_specs.push_back(std::move(spec));
  }

  std::vector<DatasetSpec> bench_specs;
  for (size_t d = 0; d < num_benchmarks; ++d) {
    DatasetSpec spec;
    spec.name = std::string("rbench") + std::to_string(seed) + std::string("-d") + std::to_string(d);
    spec.domain = TaskDomain::kNLP;
    spec.role = DatasetRole::kBenchmark;
    spec.num_labels = 2 + static_cast<int>(rng.UniformInt(uint64_t{5}));
    spec.difficulty = rng.Uniform(0.2, 0.8);
    spec.tags = pick_tags(2 + rng.UniformInt(uint64_t{2}));
    spec.num_examples = 64;
    bench_specs.push_back(std::move(spec));
  }
  DatasetSpec target_spec;
  target_spec.name = std::string("rtarget") + std::to_string(seed);
  target_spec.domain = TaskDomain::kNLP;
  target_spec.role = DatasetRole::kTarget;
  target_spec.num_labels = 2 + static_cast<int>(rng.UniformInt(uint64_t{4}));
  target_spec.difficulty = rng.Uniform(0.3, 0.7);
  target_spec.tags = pick_tags(3);
  target_spec.num_examples = 96;

  ModelZoo zoo = *ModelZoo::Create(model_specs);
  std::vector<Dataset> benchmarks;
  for (const DatasetSpec& spec : bench_specs) {
    benchmarks.push_back(*Dataset::Create(spec));
  }
  Dataset target = *Dataset::Create(target_spec);

  FineTuneSimulator simulator;
  Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  hp.seed = rng.Next();

  std::vector<const Dataset*> bench_ptrs;
  for (const Dataset& d : benchmarks) bench_ptrs.push_back(&d);
  PerformanceMatrix matrix =
      *PerformanceMatrix::Build(zoo, bench_ptrs, simulator, hp);
  ModelClustering clustering =
      *ClusterModels(matrix, zoo, ModelClusteringOptions());

  TwoPhaseOptions options;
  options.recall.top_k_models = 4 + rng.UniformInt(uint64_t{5});  // 4..8
  // Exercise the different recall inputs across configurations:
  // single-proxy via representatives, multi-proxy, and direct scoring
  // (the singleton clustering: every model its own representative).
  switch (rng.UniformInt(uint64_t{3})) {
    case 0:
      options.recall.proxy = "leep";
      break;
    case 1:
      options.recall.proxies = {"leep", "nce"};
      break;
    default:
      clustering = SingletonClustering(zoo.size());
      break;
  }
  options.fine_selection.threshold = rng.Bernoulli(0.5) ? 0.0 : 0.02;

  return RandomConfig{std::move(zoo),        std::move(benchmarks),
                      std::move(target),     std::move(matrix),
                      std::move(clustering), options,
                      hp};
}

void ExpectBitIdentical(const TwoPhaseReport& serial,
                        const TwoPhaseReport& parallel,
                        const std::string& context) {
  SCOPED_TRACE(context);
  // Recall ranking: every entry, every field, exact.
  ASSERT_EQ(serial.recall.ranked.size(), parallel.recall.ranked.size());
  for (size_t i = 0; i < serial.recall.ranked.size(); ++i) {
    const RecallEntry& s = serial.recall.ranked[i];
    const RecallEntry& p = parallel.recall.ranked[i];
    EXPECT_EQ(s.model_index, p.model_index) << "rank " << i;
    EXPECT_EQ(s.recall_score, p.recall_score) << "rank " << i;
    EXPECT_EQ(s.prior_accuracy, p.prior_accuracy) << "rank " << i;
    EXPECT_EQ(s.proxy_component, p.proxy_component) << "rank " << i;
    EXPECT_EQ(s.via_propagation, p.via_propagation) << "rank " << i;
  }
  EXPECT_EQ(serial.recall.proxies_computed, parallel.recall.proxies_computed);

  // Selection outcome.
  EXPECT_EQ(serial.selection.selected_model,
            parallel.selection.selected_model);
  EXPECT_EQ(serial.selection.selected_accuracy,
            parallel.selection.selected_accuracy);
  EXPECT_EQ(serial.selection.training_epochs,
            parallel.selection.training_epochs);
  EXPECT_EQ(serial.selection.survivors_per_stage,
            parallel.selection.survivors_per_stage);

  // Budget ledger: no lost or double-counted charges under concurrency.
  EXPECT_EQ(serial.budget.training_epochs(),
            parallel.budget.training_epochs());
  EXPECT_EQ(serial.budget.inference_epochs(),
            parallel.budget.inference_epochs());
  EXPECT_EQ(serial.budget.total_epochs(), parallel.budget.total_epochs());
}

class ParallelEquivalenceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEquivalenceTest, TwoPhaseReportBitIdenticalAcrossThreadCounts) {
  const RandomConfig config = MakeRandomConfig(GetParam());
  FineTuneSimulator simulator;
  TwoPhaseSelector selector(&config.zoo, &config.matrix, &config.clustering,
                            &simulator);

  const TwoPhaseReport serial =
      *selector.Select(config.target, config.options, config.hp, nullptr);
  for (int threads : ThreadCounts()) {
    ThreadPool pool(threads);
    const TwoPhaseReport parallel =
        *selector.Select(config.target, config.options, config.hp, &pool);
    ExpectBitIdentical(serial, parallel,
                       "config " + std::to_string(GetParam()) + ", " +
                           std::to_string(threads) + " threads");
  }
}

TEST_P(ParallelEquivalenceTest, NumThreadsOptionMatchesExplicitPool) {
  // The default overload (no pool: serial) against one caller-owned
  // 7-worker pool, the way a server shares its pool across requests.
  const RandomConfig config = MakeRandomConfig(GetParam());
  FineTuneSimulator simulator;
  TwoPhaseSelector selector(&config.zoo, &config.matrix, &config.clustering,
                            &simulator);

  const TwoPhaseReport serial =
      *selector.Select(config.target, config.options, config.hp);
  ThreadPool pool(7);
  const TwoPhaseReport parallel =
      *selector.Select(config.target, config.options, config.hp, &pool);
  ExpectBitIdentical(serial, parallel,
                     "7-worker caller pool, config " +
                         std::to_string(GetParam()));
}

TEST_P(ParallelEquivalenceTest, PerformanceMatrixBuildBitIdentical) {
  const RandomConfig config = MakeRandomConfig(GetParam());
  FineTuneSimulator simulator;
  const std::vector<const Dataset*> benchmarks = config.BenchmarkPtrs();

  const PerformanceMatrix serial =
      *PerformanceMatrix::Build(config.zoo, benchmarks, simulator, config.hp);
  for (int threads : ThreadCounts()) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const PerformanceMatrix parallel = *PerformanceMatrix::BuildParallel(
        config.zoo, benchmarks, simulator, config.hp, threads);
    ASSERT_EQ(parallel.num_models(), serial.num_models());
    ASSERT_EQ(parallel.num_datasets(), serial.num_datasets());
    for (size_t di = 0; di < serial.num_datasets(); ++di) {
      for (size_t mi = 0; mi < serial.num_models(); ++mi) {
        EXPECT_EQ(parallel.accuracy()(di, mi), serial.accuracy()(di, mi));
        EXPECT_EQ(parallel.run(di, mi).val_accuracy,
                  serial.run(di, mi).val_accuracy);
        EXPECT_EQ(parallel.run(di, mi).test_accuracy,
                  serial.run(di, mi).test_accuracy);
      }
    }
    // Strongest form: the serialized artifacts are byte-identical.
    EXPECT_EQ(parallel.Serialize(), serial.Serialize());
  }
}

TEST_P(ParallelEquivalenceTest, RecallLedgerAndRankingMatchSerial) {
  const RandomConfig config = MakeRandomConfig(GetParam());
  CoarseRecall recall(&config.zoo, &config.matrix, &config.clustering);

  EpochBudget serial_budget;
  const RecallResult serial =
      *recall.Recall(config.target, config.options.recall, &serial_budget);
  for (int threads : ThreadCounts()) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    EpochBudget parallel_budget;
    const RecallResult parallel = *recall.Recall(
        config.target, config.options.recall, &parallel_budget, &pool);
    ASSERT_EQ(parallel.ranked.size(), serial.ranked.size());
    for (size_t i = 0; i < serial.ranked.size(); ++i) {
      EXPECT_EQ(parallel.ranked[i].model_index,
                serial.ranked[i].model_index);
      EXPECT_EQ(parallel.ranked[i].recall_score,
                serial.ranked[i].recall_score);
    }
    EXPECT_EQ(parallel.proxies_computed, serial.proxies_computed);
    EXPECT_EQ(parallel_budget.inference_epochs(),
              serial_budget.inference_epochs());
    EXPECT_EQ(parallel_budget.training_epochs(),
              serial_budget.training_epochs());
  }
}

TEST_P(ParallelEquivalenceTest, FineSelectionLedgerMatchesSerialExactly) {
  // Guards the 0.5-epoch proxy charges and per-stage training charges
  // against lost or double-counted updates when survivors step in
  // parallel: the ledger after a parallel Select equals the serial ledger
  // exactly.
  const RandomConfig config = MakeRandomConfig(GetParam());
  FineTuneSimulator simulator;
  ConvergenceTrendMiner miner(&config.matrix);
  FineSelectionSelector fine(&config.zoo, &simulator, &miner,
                             config.options.fine_selection);
  std::vector<size_t> candidates(config.zoo.size());
  for (size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;

  EpochBudget serial_budget;
  const SelectionOutcome serial = *fine.Select(
      candidates, config.target, config.hp, &serial_budget);
  for (int threads : ThreadCounts()) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    EpochBudget parallel_budget;
    const SelectionOutcome parallel = *fine.Select(
        candidates, config.target, config.hp, &parallel_budget, &pool);
    EXPECT_EQ(parallel.selected_model, serial.selected_model);
    EXPECT_EQ(parallel.selected_accuracy, serial.selected_accuracy);
    EXPECT_EQ(parallel.survivors_per_stage, serial.survivors_per_stage);
    EXPECT_EQ(parallel_budget.training_epochs(),
              serial_budget.training_epochs());
    EXPECT_EQ(parallel_budget.inference_epochs(),
              serial_budget.inference_epochs());
    EXPECT_EQ(parallel_budget.total_epochs(), serial_budget.total_epochs());
  }
}

TEST_P(ParallelEquivalenceTest, MetricsAndTraceOnStaysBitIdentical) {
  // Observability cross-check (see tests/core/metrics_inertness_test.cc for
  // the full suite): the determinism contract holds with a live metrics
  // registry and trace collection enabled on the parallel runs while the
  // serial reference runs uninstrumented.
  const RandomConfig config = MakeRandomConfig(GetParam());
  FineTuneSimulator simulator;
  TwoPhaseSelector selector(&config.zoo, &config.matrix, &config.clustering,
                            &simulator);

  MetricsRegistry disabled(/*enabled=*/false);
  TwoPhaseOptions serial_options = config.options;
  serial_options.metrics = &disabled;
  const TwoPhaseReport serial =
      *selector.Select(config.target, serial_options, config.hp, nullptr);

  for (int threads : ThreadCounts()) {
    ThreadPool pool(threads);
    MetricsRegistry live;
    SelectionTrace trace;
    TwoPhaseOptions instrumented = config.options;
    instrumented.metrics = &live;
    instrumented.trace = &trace;
    const TwoPhaseReport parallel =
        *selector.Select(config.target, instrumented, config.hp, &pool);
    ExpectBitIdentical(serial, parallel,
                       "instrumented, config " + std::to_string(GetParam()) +
                           ", " + std::to_string(threads) + " threads");
    // Live instrumentation, not a vacuous pass.
    EXPECT_EQ(live.counter("two_phase.runs").value(), 1u);
    EXPECT_EQ(trace.selected_model, serial.selection.selected_model);
  }
}

TEST_P(ParallelEquivalenceTest, RepeatedParallelRunsOnOnePoolAreStable) {
  // One shared pool serving several consecutive selections (the server
  // scenario) must not leak state between calls.
  const RandomConfig config = MakeRandomConfig(GetParam());
  FineTuneSimulator simulator;
  TwoPhaseSelector selector(&config.zoo, &config.matrix, &config.clustering,
                            &simulator);
  ThreadPool pool(7);
  const TwoPhaseReport first =
      *selector.Select(config.target, config.options, config.hp, &pool);
  for (int round = 0; round < 3; ++round) {
    const TwoPhaseReport again =
        *selector.Select(config.target, config.options, config.hp, &pool);
    ExpectBitIdentical(first, again, "round " + std::to_string(round));
  }
}

// >= 3 randomized configurations (5 seeds), each swept over all thread
// counts — the acceptance bar of this test suite.
INSTANTIATE_TEST_SUITE_P(RandomZoos, ParallelEquivalenceTest,
                         testing::Values(11, 29, 47, 83, 131));

TEST(ParallelEquivalenceEdgeTest, PaperInventoryMatchesSerialToo) {
  // Spot-check the real paper zoo (40 NLP models), not just random ones.
  ModelZoo zoo = *ModelZoo::Create(NlpPaperZooSpecs());
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  FineTuneSimulator simulator;
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  PerformanceMatrix matrix = *PerformanceMatrix::Build(
      zoo, registry.Benchmarks(TaskDomain::kNLP), simulator, hp);
  ModelClustering clustering =
      *ClusterModels(matrix, zoo, ModelClusteringOptions());
  TwoPhaseSelector selector(&zoo, &matrix, &clustering, &simulator);
  const Dataset& target = **registry.Find("mnli");

  const TwoPhaseReport serial =
      *selector.Select(target, TwoPhaseOptions(), hp, nullptr);
  for (int threads : ThreadCounts()) {
    ThreadPool pool(threads);
    const TwoPhaseReport parallel =
        *selector.Select(target, TwoPhaseOptions(), hp, &pool);
    ExpectBitIdentical(serial, parallel,
                       "paper zoo, " + std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace tps
