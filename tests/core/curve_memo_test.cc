// Curve-memo inertness: a fine-tune curve is a pure function of (model,
// target, hyperparams), so reading it from TwoPhaseSelector's memo must
// leave every answer unchanged. Whole TwoPhaseReports with the memo are
// compared with == against the same pipeline run with no memo (a null
// pointer), on all 8 paper targets, serial and on a 4-thread pool, cold
// and warm. Seeded generated targets then drive more distinct keys than the
// memo's cap, so its clear-when-full path runs under the same check. The
// counters obey their conservation laws throughout: every curve is a hit
// or a miss, and every miss is exactly one simulator run.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "core/two_phase.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "sim/finetune_simulator.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tps {
namespace {

struct PaperWorld {
  ModelZoo zoo;
  DatasetRegistry registry;
  PerformanceMatrix matrix;
  ModelClustering clustering;
  Hyperparams hp;
};

PaperWorld MakePaperWorld(TaskDomain domain) {
  ModelZoo zoo = *ModelZoo::Create(domain == TaskDomain::kNLP
                                       ? NlpPaperZooSpecs()
                                       : CvPaperZooSpecs());
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  FineTuneSimulator simulator;
  const Hyperparams hp = Hyperparams::DefaultsFor(domain);
  PerformanceMatrix matrix = *PerformanceMatrix::Build(
      zoo, registry.Benchmarks(domain), simulator, hp);
  ModelClustering clustering =
      *ClusterModels(matrix, zoo, ModelClusteringOptions());
  return PaperWorld{std::move(zoo), std::move(registry), std::move(matrix),
                    std::move(clustering), hp};
}

/// Random NLP targets (2-5 labels, difficulty in [0.25, 0.7), 2-4 tags
/// from the benchmark vocabulary), each a distinct memo key.
std::vector<Dataset> GeneratedTargets(size_t count, uint64_t seed) {
  std::set<std::string> vocabulary_set;
  for (const DatasetSpec& spec : NlpBenchmarkSpecs()) {
    vocabulary_set.insert(spec.tags.begin(), spec.tags.end());
  }
  const std::vector<std::string> vocabulary(vocabulary_set.begin(),
                                            vocabulary_set.end());
  Rng rng(seed);
  std::vector<Dataset> targets;
  for (size_t i = 0; i < count; ++i) {
    DatasetSpec spec;
    spec.name = "generated_" + std::to_string(i);
    spec.role = DatasetRole::kTarget;
    spec.num_labels = static_cast<int>(rng.UniformInt(int64_t{2}, 5));
    spec.difficulty = rng.Uniform(0.25, 0.7);
    const size_t tags = static_cast<size_t>(rng.UniformInt(int64_t{2}, 4));
    for (size_t j : rng.SampleWithoutReplacement(vocabulary.size(), tags)) {
      spec.tags.push_back(vocabulary[j]);
    }
    targets.push_back(*Dataset::Create(spec));
  }
  return targets;
}

uint64_t SimRuns() {
  return MetricsRegistry::Default()->counter("sim.runs").value();
}

class CurveMemoTest : public testing::TestWithParam<TaskDomain> {};

TEST_P(CurveMemoTest, ReportsMatchMemoLessRunsColdAndWarm) {
  const PaperWorld world = MakePaperWorld(GetParam());
  FineTuneSimulator simulator;
  const std::vector<const Dataset*> targets =
      Targets(world.registry, GetParam());
  ASSERT_EQ(targets.size(), 4u);
  ThreadPool four(4);

  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    SCOPED_TRACE(pool == nullptr ? "serial" : "4-thread pool");
    // A fresh selector per mode, so the first pass runs on a cold memo.
    TwoPhaseSelector selector(&world.zoo, &world.matrix, &world.clustering,
                              &simulator);
    // The reference: the same two phases with no curve memo.
    const ConvergenceTrendMiner miner(&world.matrix);
    const FineSelectionSelector memo_less(&world.zoo, &simulator, &miner);

    for (const char* pass : {"cold", "warm"}) {
      for (const Dataset* target : targets) {
        SCOPED_TRACE(std::string(pass) + " " + target->name());
        MetricsRegistry live;
        TwoPhaseOptions options;
        options.metrics = &live;
        const uint64_t runs_before = SimRuns();
        const TwoPhaseReport memoized =
            *selector.Select(*target, options, world.hp, pool);
        const uint64_t runs = SimRuns() - runs_before;

        MetricsRegistry quiet(/*enabled=*/false);
        TwoPhaseReport reference;
        reference.recall = *selector.coarse_recall().Recall(
            *target, options.recall, &reference.budget, pool, &quiet);
        reference.selection = *memo_less.Select(
            reference.recall.TopModels(options.recall.top_k_models),
            *target, world.hp, &reference.budget, pool, &quiet);
        EXPECT_EQ(memoized, reference);

        const uint64_t hits = live.counter("fine.curve_hits").value();
        const uint64_t misses = live.counter("fine.curve_misses").value();
        EXPECT_EQ(runs, misses);
        EXPECT_EQ(hits + misses, memoized.selection.survivors_per_stage[0]);
        if (std::string(pass) == "cold") {
          EXPECT_EQ(hits, 0u);
        } else {
          EXPECT_EQ(misses, 0u);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, CurveMemoTest,
                         testing::Values(TaskDomain::kNLP, TaskDomain::kCV),
                         [](const testing::TestParamInfo<TaskDomain>& info) {
                           return ToString(info.param);
                         });

TEST(CurveMemoCapTest, ClearWhenFullKeepsAnswers) {
  const PaperWorld world = MakePaperWorld(TaskDomain::kNLP);
  FineTuneSimulator simulator;
  const ConvergenceTrendMiner miner(&world.matrix);
  FineTuneCurveMemo memo;
  const FineSelectionSelector memoized(&world.zoo, &simulator, &miner,
                                       FineSelectionOptions(), &memo);
  const FineSelectionSelector memo_less(&world.zoo, &simulator, &miner);
  // Every model is a candidate, so each target adds one key per model.
  std::vector<size_t> candidates(world.zoo.size());
  for (size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
  const size_t needed = FineTuneCurveMemo::kMaxEntries / candidates.size();
  const std::vector<Dataset> targets = GeneratedTargets(needed + 8, 2024);
  ThreadPool pool(4);

  MetricsRegistry live;
  MetricsRegistry quiet(/*enabled=*/false);
  const uint64_t runs_before = SimRuns();
  size_t reference_runs = 0;
  size_t selects = 0;
  // Warm repeats that missed: a repeat reads exactly the keys its cold run
  // stored, so each such miss means the memo was cleared in between.
  size_t clears = 0;
  for (const Dataset& target : targets) {
    SCOPED_TRACE(target.name());
    for (int repeat = 0; repeat < 2; ++repeat) {  // Cold, then warm.
      const uint64_t misses_before = live.counter("fine.curve_misses").value();
      EpochBudget budget;
      const SelectionOutcome outcome = *memoized.Select(
          candidates, target, world.hp, &budget, &pool, &live);
      if (repeat == 1 &&
          live.counter("fine.curve_misses").value() > misses_before) {
        ++clears;
      }
      ++selects;

      EpochBudget reference_budget;
      const SelectionOutcome reference = *memo_less.Select(
          candidates, target, world.hp, &reference_budget, nullptr, &quiet);
      reference_runs += candidates.size();
      EXPECT_EQ(outcome, reference);
      EXPECT_EQ(budget, reference_budget);
    }
  }
  EXPECT_GE(clears, 1u);
  // The memo clears only once full and never grows past its cap, so its
  // peak is the cap exactly.
  EXPECT_EQ(live.gauge("fine.curve_memo_entries").max_value(),
            static_cast<double>(FineTuneCurveMemo::kMaxEntries));

  const uint64_t hits = live.counter("fine.curve_hits").value();
  const uint64_t misses = live.counter("fine.curve_misses").value();
  EXPECT_EQ(SimRuns() - runs_before, misses + reference_runs);
  EXPECT_EQ(hits + misses, selects * candidates.size());
  // Each target's warm repeat reads at least the curves its cold run
  // stored after any clear.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, FineTuneCurveMemo::kMaxEntries);
}

}  // namespace
}  // namespace tps
