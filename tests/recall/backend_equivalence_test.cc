#include "recall/recall_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/two_phase.h"
#include "data/registry.h"
#include "index/ivf_index.h"
#include "model/paper_zoo.h"
#include "recall/embed_trainer.h"
#include "util/thread_pool.h"

namespace tps {
namespace recall {
namespace {

// The interchangeability contracts of the pluggable recall backends:
// "representative" is a CoarseRecall (bit-identical ranking AND epoch
// ledger to any other over the same artifacts, serial or pooled, exact or
// IVF-indexed), handing it to a TwoPhaseSelector changes nothing,
// "embedding" ranks with dot products only (zero proxies, zero budget),
// and "hybrid" charges exactly what its representative leg charged.

void ExpectSameRanking(const RecallResult& a, const RecallResult& b) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].model_index, b.ranked[i].model_index) << "rank " << i;
    EXPECT_EQ(a.ranked[i].recall_score, b.ranked[i].recall_score) << "rank " << i;
    EXPECT_EQ(a.ranked[i].prior_accuracy, b.ranked[i].prior_accuracy)
        << "rank " << i;
    EXPECT_EQ(a.ranked[i].proxy_component, b.ranked[i].proxy_component)
        << "rank " << i;
    EXPECT_EQ(a.ranked[i].via_propagation, b.ranked[i].via_propagation)
        << "rank " << i;
  }
  EXPECT_EQ(a.proxies_computed, b.proxies_computed);
}

void ExpectSameLedger(const EpochBudget& a, const EpochBudget& b) {
  EXPECT_EQ(a.training_epochs(), b.training_epochs());
  EXPECT_EQ(a.inference_epochs(), b.inference_epochs());
}

class BackendEquivalenceTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    zoo_ = new ModelZoo(*ModelZoo::Create(NlpPaperZooSpecs()));
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    simulator_ = new FineTuneSimulator();
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), *simulator_,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
    clustering_ = new ModelClustering(
        *ClusterModels(*matrix_, *zoo_, ModelClusteringOptions()));
    EmbeddingConfig config;
    config.epochs = 60;  // Rankings just need a trained artifact, not the
                         // full 300-epoch production curve.
    embeddings_ = new RecallEmbeddings(
        std::move(TrainRecallEmbeddings(*matrix_,
                                        registry_->Benchmarks(TaskDomain::kNLP),
                                        config)
                      ->embeddings));
    embedding_index_ = new IvfIndex(*IvfIndex::Build(
        embeddings_->model_embeddings(), embeddings_->prior(),
        IvfIndexOptions()));
    target_ = *registry_->Find("mnli");
  }

  static RecallBackendContext FullContext() {
    RecallBackendContext context;
    context.zoo = zoo_;
    context.matrix = matrix_;
    context.clustering = clustering_;
    context.embeddings = embeddings_;
    context.embedding_index = embedding_index_;
    return context;
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static PerformanceMatrix* matrix_;
  static ModelClustering* clustering_;
  static RecallEmbeddings* embeddings_;
  static IvfIndex* embedding_index_;
  static const Dataset* target_;
};

ModelZoo* BackendEquivalenceTest::zoo_ = nullptr;
DatasetRegistry* BackendEquivalenceTest::registry_ = nullptr;
FineTuneSimulator* BackendEquivalenceTest::simulator_ = nullptr;
PerformanceMatrix* BackendEquivalenceTest::matrix_ = nullptr;
ModelClustering* BackendEquivalenceTest::clustering_ = nullptr;
RecallEmbeddings* BackendEquivalenceTest::embeddings_ = nullptr;
IvfIndex* BackendEquivalenceTest::embedding_index_ = nullptr;
const Dataset* BackendEquivalenceTest::target_ = nullptr;

TEST_F(BackendEquivalenceTest, RepresentativeIsBitIdenticalToCoarseRecall) {
  auto backend = CreateRecallBackend("representative", FullContext());
  ASSERT_TRUE(backend.ok()) << backend.status().message();
  CoarseRecall direct(zoo_, matrix_, clustering_);
  const RecallOptions options;
  for (int threads : {0, 4}) {
    ThreadPool pool(threads == 0 ? 1 : threads);
    ThreadPool* p = threads == 0 ? nullptr : &pool;
    EpochBudget direct_budget;
    EpochBudget backend_budget;
    auto want = direct.Recall(*target_, options, &direct_budget, p);
    auto got = (*backend)->Recall(*target_, options, &backend_budget, p);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().message();
    ExpectSameRanking(*want, *got);
    ExpectSameLedger(direct_budget, backend_budget);
  }
}

TEST_F(BackendEquivalenceTest, RepresentativeDelegatesIndexModeUnchanged) {
  // An accuracy-vector IVF in options.index must pass straight through the
  // backend: the indexed delegation is bit-identical to calling
  // CoarseRecall with the same index, ledger included.
  IvfIndexOptions index_options;
  index_options.propagation_neighbors = 0;  // Exact propagation.
  auto index = IvfIndex::Build(matrix_->ModelVectors(),
                               matrix_->ModelAverageAccuracies(),
                               index_options);
  ASSERT_TRUE(index.ok()) << index.status().message();
  RecallOptions options;
  options.index = &*index;
  auto backend = CreateRecallBackend("representative", FullContext());
  ASSERT_TRUE(backend.ok());
  CoarseRecall direct(zoo_, matrix_, clustering_);
  EpochBudget direct_budget;
  EpochBudget backend_budget;
  auto want = direct.Recall(*target_, options, &direct_budget);
  auto got = (*backend)->Recall(*target_, options, &backend_budget);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().message();
  ExpectSameRanking(*want, *got);
  ExpectSameLedger(direct_budget, backend_budget);
}

TEST_F(BackendEquivalenceTest, RoutedSelectorMatchesUnroutedBitForBit) {
  auto backend = CreateRecallBackend("representative", FullContext());
  ASSERT_TRUE(backend.ok());
  TwoPhaseSelector selector(zoo_, matrix_, clustering_, simulator_);
  const TwoPhaseOptions options;
  auto want = selector.Select(*target_, options);
  auto got = selector.Select(*target_, options,
                             Hyperparams::DefaultsFor(TaskDomain::kNLP),
                             /*pool=*/nullptr, **backend);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().message();
  ExpectSameRanking(want->recall, got->recall);
  ExpectSameLedger(want->budget, got->budget);
  EXPECT_EQ(want->selection.selected_model, got->selection.selected_model);
  EXPECT_EQ(want->selection.selected_accuracy, got->selection.selected_accuracy);
  EXPECT_EQ(want->selection.training_epochs, got->selection.training_epochs);
  EXPECT_EQ(want->selection.survivors_per_stage,
            got->selection.survivors_per_stage);
}

TEST_F(BackendEquivalenceTest, EmbeddingRanksWithoutChargingTheBudget) {
  auto backend = CreateRecallBackend("embedding", FullContext());
  ASSERT_TRUE(backend.ok()) << backend.status().message();
  EpochBudget budget;
  auto result = (*backend)->Recall(*target_, RecallOptions(), &budget);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->proxies_computed, 0u);
  EXPECT_EQ(budget.training_epochs(), 0.0);
  EXPECT_EQ(budget.inference_epochs(), 0.0);
  EXPECT_FALSE(result->ranked.empty());
  for (size_t i = 1; i < result->ranked.size(); ++i) {
    EXPECT_GE(result->ranked[i - 1].recall_score,
              result->ranked[i].recall_score);
  }
  // Deterministic: a second run is bit-identical.
  auto again = (*backend)->Recall(*target_, RecallOptions(), nullptr);
  ASSERT_TRUE(again.ok());
  ExpectSameRanking(*result, *again);
}

TEST_F(BackendEquivalenceTest, EmbeddingWithoutIndexRanksTheWholeZoo) {
  RecallBackendContext context = FullContext();
  context.embedding_index = nullptr;
  auto backend = CreateRecallBackend("embedding", context);
  ASSERT_TRUE(backend.ok());
  auto result = (*backend)->Recall(*target_, RecallOptions(), nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ranked.size(), zoo_->size());
}

TEST_F(BackendEquivalenceTest, EmbeddingIndexNprobeBoundsTheCandidates) {
  auto backend = CreateRecallBackend("embedding", FullContext());
  ASSERT_TRUE(backend.ok());
  RecallOptions narrow;
  narrow.nprobe = 1;
  auto narrowed = (*backend)->Recall(*target_, narrow, nullptr);
  ASSERT_TRUE(narrowed.ok());
  // One probed partition -> exactly that posting list, a strict subset of
  // the zoo, and every candidate really lives in the probed partition.
  auto query = embeddings_->EmbedDataset(*target_);
  ASSERT_TRUE(query.ok());
  const std::vector<size_t> probed =
      embedding_index_->ProbePartitionsNearQuery(*query, 1);
  ASSERT_EQ(probed.size(), 1u);
  const std::vector<size_t>& members =
      embedding_index_->structure().members[probed[0]];
  EXPECT_EQ(narrowed->ranked.size(), members.size());
  EXPECT_LT(narrowed->ranked.size(), zoo_->size());
  for (const RecallEntry& entry : narrowed->ranked) {
    EXPECT_NE(std::find(members.begin(), members.end(), entry.model_index),
              members.end())
        << "model " << entry.model_index << " is not in probed partition";
  }
}

TEST_F(BackendEquivalenceTest, HybridChargesOnlyTheRepresentativeLeg) {
  auto hybrid = CreateRecallBackend("hybrid", FullContext());
  auto representative = CreateRecallBackend("representative", FullContext());
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().message();
  ASSERT_TRUE(representative.ok());
  EpochBudget hybrid_budget;
  EpochBudget representative_budget;
  auto fused = (*hybrid)->Recall(*target_, RecallOptions(), &hybrid_budget);
  auto rep =
      (*representative)->Recall(*target_, RecallOptions(), &representative_budget);
  ASSERT_TRUE(fused.ok()) << fused.status().message();
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(fused->proxies_computed, rep->proxies_computed);
  ExpectSameLedger(hybrid_budget, representative_budget);
  // Union of the two candidate sets, sorted by fused score.
  EXPECT_GE(fused->ranked.size(), rep->ranked.size());
  for (size_t i = 1; i < fused->ranked.size(); ++i) {
    EXPECT_GE(fused->ranked[i - 1].recall_score,
              fused->ranked[i].recall_score);
  }
  // Deterministic: a second run is bit-identical.
  auto again = (*hybrid)->Recall(*target_, RecallOptions(), nullptr);
  ASSERT_TRUE(again.ok());
  ExpectSameRanking(*fused, *again);
}

TEST_F(BackendEquivalenceTest, RegistryResolvesAndRejects) {
  const std::vector<std::string> names = RecallBackendNames();
  for (const char* expected : {"embedding", "hybrid", "representative"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected << " is not registered";
  }
  EXPECT_TRUE(
      CreateRecallBackend("bogus", FullContext()).status().IsNotFound());

  // Without trained embeddings, only the representative backend survives.
  RecallBackendContext bare = FullContext();
  bare.embeddings = nullptr;
  bare.embedding_index = nullptr;
  EXPECT_TRUE(
      CreateRecallBackend("embedding", bare).status().IsFailedPrecondition());
  EXPECT_TRUE(
      CreateRecallBackend("hybrid", bare).status().IsFailedPrecondition());
  const CoarseRecall representative(zoo_, matrix_, clustering_);
  const RecallBackendSet set(representative, bare);
  EXPECT_TRUE(set.Find("embedding").status().IsFailedPrecondition());
  EXPECT_TRUE(set.Find("hybrid").status().IsFailedPrecondition());
  EXPECT_TRUE(set.Find("no-such-backend").status().IsNotFound());
  auto found = set.Find("representative");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->name(), "representative");
  EXPECT_EQ(*found, &representative);

  // With embeddings, all three serve.
  const RecallBackendSet full(representative, FullContext());
  for (const std::string& name : RecallBackendNames()) {
    EXPECT_TRUE(full.Find(name).ok()) << name;
  }

  // The paper's ranking needs the clustering: a context without it is
  // rejected up front rather than failing every request.
  RecallBackendContext unclustered = FullContext();
  unclustered.clustering = nullptr;
  for (const char* name : {"representative", "hybrid"}) {
    EXPECT_TRUE(
        CreateRecallBackend(name, unclustered).status().IsInvalidArgument())
        << name;
  }
}

}  // namespace
}  // namespace recall
}  // namespace tps
