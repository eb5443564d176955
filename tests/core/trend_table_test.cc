// The memoized convergence-trend table against its serial oracle
// (tests/core/reference_trends.*): every (model, stage) cell of both paper
// matrices equals a fresh KMeans mine bit for bit whatever order the cells
// are first touched in, errors are unchanged, concurrent first use of a
// cell yields the oracle's trends, and a warm Select (every cell already
// mined) returns the cold Select's report exactly. Labelled `parallel`, so
// the Release flake gate and the TSan sweep repeat it.

#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "core/reference_trends.h"
#include "core/two_phase.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "sim/finetune_simulator.h"
#include "util/metrics.h"
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

void ExpectSameTrends(const std::vector<ConvergenceTrend>& got,
                      const std::vector<ConvergenceTrend>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t x = 0; x < got.size(); ++x) {
    EXPECT_EQ(got[x].mean_val, want[x].mean_val);
    EXPECT_EQ(got[x].mean_final_test, want[x].mean_final_test);
    EXPECT_EQ(got[x].dataset_indices, want[x].dataset_indices);
  }
}

/// Every (model, stage) cell, stage-major or model-major; the stages run
/// two past the last epoch so clamped cells are read too.
std::vector<std::pair<size_t, int>> Cells(const PaperWorld& world,
                                          bool model_major) {
  const int stages = world.hp.epochs + 2;
  std::vector<std::pair<size_t, int>> cells;
  if (model_major) {
    for (size_t m = 0; m < world.matrix.num_models(); ++m) {
      for (int s = 0; s < stages; ++s) cells.emplace_back(m, s);
    }
  } else {
    for (int s = stages - 1; s >= 0; --s) {
      for (size_t m = world.matrix.num_models(); m-- > 0;) {
        cells.emplace_back(m, s);
      }
    }
  }
  return cells;
}

class TrendTableTest : public testing::TestWithParam<TaskDomain> {
 protected:
  static void SetUpTestSuite() {
    nlp_ = new PaperWorld(MakePaperWorld(TaskDomain::kNLP));
    cv_ = new PaperWorld(MakePaperWorld(TaskDomain::kCV));
  }

  static const PaperWorld& world() {
    return GetParam() == TaskDomain::kNLP ? *nlp_ : *cv_;
  }

  static PaperWorld* nlp_;
  static PaperWorld* cv_;
};

PaperWorld* TrendTableTest::nlp_ = nullptr;
PaperWorld* TrendTableTest::cv_ = nullptr;

TEST_P(TrendTableTest, EveryCellMatchesOracleInAnyAccessOrder) {
  const PaperWorld& w = world();
  for (bool model_major : {true, false}) {
    SCOPED_TRACE(model_major ? "model-major" : "stage-major, reversed");
    const ConvergenceTrendMiner miner(&w.matrix);
    for (const auto& [model, stage] : Cells(w, model_major)) {
      SCOPED_TRACE("model " + std::to_string(model) + " stage " +
                   std::to_string(stage));
      const std::vector<ConvergenceTrend> want =
          *ReferenceMineTrends(w.matrix, miner.options(), model, stage);
      ExpectSameTrends(*miner.MineTrends(model, stage), want);
      const double observed = w.matrix.ValAtStage(0, model, stage);
      EXPECT_EQ(*miner.Predict(model, stage, observed),
                ConvergenceTrendMiner::PredictFinal(want, observed));
    }
  }
}

TEST_P(TrendTableTest, CustomOptionsMatchOracle) {
  const PaperWorld& w = world();
  TrendMinerOptions options;
  options.num_trends = 2;
  options.seed = 99;
  const ConvergenceTrendMiner miner(&w.matrix, options);
  for (const auto& [model, stage] : Cells(w, /*model_major=*/true)) {
    ExpectSameTrends(*miner.MineTrends(model, stage),
                     *ReferenceMineTrends(w.matrix, options, model, stage));
  }
}

TEST_P(TrendTableTest, ErrorsMatchOracle) {
  const PaperWorld& w = world();
  const ConvergenceTrendMiner miner(&w.matrix);
  const size_t past_last_model = w.matrix.num_models();
  for (const auto& [model, stage] :
       std::vector<std::pair<size_t, int>>{
           {past_last_model, 0}, {past_last_model, -1}, {0, -1}}) {
    const Status want =
        ReferenceMineTrends(w.matrix, miner.options(), model, stage).status();
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(miner.MineTrends(model, stage).status(), want);
    EXPECT_EQ(miner.Predict(model, stage, 0.5).status(), want);
  }
  EXPECT_TRUE(miner.MineTrends(past_last_model, 0).status().IsOutOfRange());
  EXPECT_TRUE(miner.MineTrends(0, -1).status().IsInvalidArgument());

  // A matrix with no datasets (the public API yields one only as the
  // moved-from husk, which has no models either) builds an empty table and
  // fails exactly as the oracle does.
  PerformanceMatrix donor = w.matrix;
  const PerformanceMatrix taken = std::move(donor);
  ASSERT_EQ(donor.num_datasets(), 0u);  // NOLINT(bugprone-use-after-move)
  const ConvergenceTrendMiner empty(&donor);
  const TrendMinerOptions options;
  for (size_t model : {size_t{0}, size_t{3}}) {
    const Status want =
        ReferenceMineTrends(donor, options, model, 0).status();
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(empty.MineTrends(model, 0).status(), want);
    EXPECT_EQ(empty.Predict(model, 0, 0.5).status(), want);
  }
}

TEST_P(TrendTableTest, ConcurrentFirstUseMatchesOracle) {
  // Eight threads released together by one latch race for the same cells
  // of a fresh table, so every cell's first use is contended; each
  // thread's copies must equal the serial oracle.
  const PaperWorld& w = world();
  const ConvergenceTrendMiner miner(&w.matrix);
  const std::vector<std::pair<size_t, int>> cells =
      Cells(w, /*model_major=*/true);
  constexpr int kThreads = 8;
  std::vector<std::vector<std::vector<ConvergenceTrend>>> got(kThreads);
  std::vector<std::vector<double>> predicted(kThreads);
  std::vector<Status> failures(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (const auto& [model, stage] : cells) {
        StatusOr<double> p = miner.Predict(model, stage, 0.7);
        StatusOr<std::vector<ConvergenceTrend>> trends =
            miner.MineTrends(model, stage);
        if (!p.ok() || !trends.ok()) {
          failures[t] = !p.ok() ? p.status() : trends.status();
          return;
        }
        predicted[t].push_back(*p);
        got[t].push_back(std::move(*trends));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    ASSERT_TRUE(failures[t].ok()) << failures[t].ToString();
    ASSERT_EQ(got[t].size(), cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      const std::vector<ConvergenceTrend> want = *ReferenceMineTrends(
          w.matrix, miner.options(), cells[c].first, cells[c].second);
      ExpectSameTrends(got[t][c], want);
      EXPECT_EQ(predicted[t][c],
                ConvergenceTrendMiner::PredictFinal(want, 0.7));
    }
  }
}

TEST_P(TrendTableTest, WarmSelectMatchesColdSelectBitForBit) {
  // The first Select on a selector mines the cells it reads; the second
  // reads them from the table. Both must give the same report and trace,
  // serial and on a 4-worker pool.
  const PaperWorld& w = world();
  FineTuneSimulator simulator;
  MetricsRegistry quiet(/*enabled=*/false);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const TwoPhaseSelector selector(&w.zoo, &w.matrix, &w.clustering,
                                    &simulator);
    ThreadPool workers(threads);
    ThreadPool* pool = threads > 1 ? &workers : nullptr;
    TwoPhaseOptions options;
    options.metrics = &quiet;
    for (const Dataset* target : Targets(w.registry, GetParam())) {
      SCOPED_TRACE(target->name());
      SelectionTrace cold_trace;
      options.trace = &cold_trace;
      const TwoPhaseReport cold =
          *selector.Select(*target, options, w.hp, pool);
      SelectionTrace warm_trace;
      options.trace = &warm_trace;
      const TwoPhaseReport warm =
          *selector.Select(*target, options, w.hp, pool);

      EXPECT_EQ(warm.selection.selected_model, cold.selection.selected_model);
      EXPECT_EQ(warm.selection.selected_accuracy,
                cold.selection.selected_accuracy);
      EXPECT_EQ(warm.selection.training_epochs,
                cold.selection.training_epochs);
      EXPECT_EQ(warm.selection.survivors_per_stage,
                cold.selection.survivors_per_stage);
      EXPECT_EQ(warm.budget.total_epochs(), cold.budget.total_epochs());
      EXPECT_EQ(warm_trace.recall.ranked, cold_trace.recall.ranked);
      // Rung by rung, including every prune's predicted finals.
      EXPECT_EQ(warm_trace.stages, cold_trace.stages);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, TrendTableTest,
                         testing::Values(TaskDomain::kNLP, TaskDomain::kCV),
                         [](const testing::TestParamInfo<TaskDomain>& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace tps
