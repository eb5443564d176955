#include "recall/embed_trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "data/registry.h"
#include "model/paper_zoo.h"
#include "sim/finetune_simulator.h"
#include "store/model_store.h"
#include "util/thread_pool.h"

namespace tps {
namespace recall {
namespace {

// The two-tower trainer's contracts: deterministic for any thread count
// (bit-identical artifacts), a decreasing training curve, a lossless text
// codec, and loud rejection of inconsistent inputs.

class EmbedTrainerTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    registry_ =
        new DatasetRegistry(*DatasetRegistry::CreatePaperInventory());
    ModelZoo zoo = *ModelZoo::Create(NlpPaperZooSpecs());
    FineTuneSimulator simulator;
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        zoo, registry_->Benchmarks(TaskDomain::kNLP), simulator,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
    benchmarks_ = new std::vector<const Dataset*>(
        registry_->Benchmarks(TaskDomain::kNLP));
  }

  static EmbeddingConfig FastConfig() {
    EmbeddingConfig config;
    config.epochs = 40;  // Enough to see the curve move; fast in ctest.
    return config;
  }

  static DatasetRegistry* registry_;
  static PerformanceMatrix* matrix_;
  static std::vector<const Dataset*>* benchmarks_;
};

DatasetRegistry* EmbedTrainerTest::registry_ = nullptr;
PerformanceMatrix* EmbedTrainerTest::matrix_ = nullptr;
std::vector<const Dataset*>* EmbedTrainerTest::benchmarks_ = nullptr;

TEST_F(EmbedTrainerTest, TrainsAnArtifactWithTheRightShape) {
  const EmbeddingConfig config = FastConfig();
  auto result = TrainRecallEmbeddings(*matrix_, *benchmarks_, config);
  ASSERT_TRUE(result.ok()) << result.status().message();
  const RecallEmbeddings& emb = result->embeddings;
  EXPECT_EQ(emb.num_models(), matrix_->num_models());
  EXPECT_EQ(emb.dim(), config.dim);
  EXPECT_EQ(emb.feature_dim(),
            (*benchmarks_)[0]->domain_vector().size() + 1);
  EXPECT_EQ(emb.model_names(), matrix_->model_names());
  EXPECT_EQ(emb.prior(), matrix_->ModelAverageAccuracies());
  EXPECT_EQ(result->epoch_losses.size(),
            static_cast<size_t>(config.epochs));
}

TEST_F(EmbedTrainerTest, TrainingLossDecreases) {
  auto result = TrainRecallEmbeddings(*matrix_, *benchmarks_, FastConfig());
  ASSERT_TRUE(result.ok());
  const std::vector<double>& losses = result->epoch_losses;
  EXPECT_LT(losses.back(), losses.front());
  for (double loss : losses) EXPECT_TRUE(std::isfinite(loss));
}

TEST_F(EmbedTrainerTest, BitIdenticalForAnyThreadCount) {
  const EmbeddingConfig config = FastConfig();
  auto serial = TrainRecallEmbeddings(*matrix_, *benchmarks_, config);
  ASSERT_TRUE(serial.ok());
  const std::string golden = serial->embeddings.Serialize();
  for (int threads : {3, 7}) {
    ThreadPool pool(threads);
    auto pooled =
        TrainRecallEmbeddings(*matrix_, *benchmarks_, config, &pool);
    ASSERT_TRUE(pooled.ok());
    // The artifact AND the whole training curve, bit for bit.
    EXPECT_EQ(pooled->embeddings.Serialize(), golden)
        << "artifact diverged at " << threads << " threads";
    EXPECT_EQ(pooled->epoch_losses, serial->epoch_losses)
        << "loss curve diverged at " << threads << " threads";
  }
}

TEST_F(EmbedTrainerTest, CodecRoundTripIsLossless) {
  auto result = TrainRecallEmbeddings(*matrix_, *benchmarks_, FastConfig());
  ASSERT_TRUE(result.ok());
  const RecallEmbeddings& emb = result->embeddings;
  const std::string text = emb.Serialize();
  auto restored = RecallEmbeddings::Deserialize(text);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->Serialize(), text);
  EXPECT_EQ(restored->model_names(), emb.model_names());
  EXPECT_EQ(restored->prior(), emb.prior());
  EXPECT_EQ(restored->model_embeddings(), emb.model_embeddings());
  EXPECT_EQ(restored->config().weight_decay, emb.config().weight_decay);
  EXPECT_EQ(restored->config().seed, emb.config().seed);
}

TEST_F(EmbedTrainerTest, FileRoundTripIsLossless) {
  // Trained embeddings persist through the model store: Put serializes
  // them into the log, and a read-only reopen deserializes them back.
  auto result = TrainRecallEmbeddings(*matrix_, *benchmarks_, FastConfig());
  ASSERT_TRUE(result.ok());
  const std::string path = testing::TempDir() + "/embeddings.log";
  std::remove(path.c_str());
  {
    auto writer = ModelStore::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(writer->PutRecallEmbeddings("nlp", result->embeddings).ok());
  }
  auto store = ModelStore::OpenReadOnly(path);
  ASSERT_TRUE(store.ok()) << store.status().message();
  auto loaded = store->GetRecallEmbeddings("nlp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->Serialize(), result->embeddings.Serialize());
}

TEST_F(EmbedTrainerTest, RejectsBenchmarksOutOfOrder) {
  std::vector<const Dataset*> shuffled = *benchmarks_;
  ASSERT_GE(shuffled.size(), 2u);
  std::swap(shuffled[0], shuffled[1]);
  auto result = TrainRecallEmbeddings(*matrix_, shuffled, FastConfig());
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(EmbedTrainerTest, RejectsBenchmarkCountMismatch) {
  std::vector<const Dataset*> truncated = *benchmarks_;
  truncated.pop_back();
  auto result = TrainRecallEmbeddings(*matrix_, truncated, FastConfig());
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(EmbedTrainerTest, RejectsInvalidConfigs) {
  EmbeddingConfig bad_dim = FastConfig();
  bad_dim.dim = 0;
  EXPECT_TRUE(TrainRecallEmbeddings(*matrix_, *benchmarks_, bad_dim)
                  .status()
                  .IsInvalidArgument());
  EmbeddingConfig bad_lr = FastConfig();
  bad_lr.learning_rate = 0.0;
  EXPECT_TRUE(TrainRecallEmbeddings(*matrix_, *benchmarks_, bad_lr)
                  .status()
                  .IsInvalidArgument());
  EmbeddingConfig bad_temp = FastConfig();
  bad_temp.temperature = -1.0;
  EXPECT_TRUE(TrainRecallEmbeddings(*matrix_, *benchmarks_, bad_temp)
                  .status()
                  .IsInvalidArgument());
  EmbeddingConfig bad_decay = FastConfig();
  bad_decay.weight_decay = -0.1;
  EXPECT_TRUE(TrainRecallEmbeddings(*matrix_, *benchmarks_, bad_decay)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EmbedTrainerTest, SeedChangesTheArtifact) {
  EmbeddingConfig config = FastConfig();
  auto a = TrainRecallEmbeddings(*matrix_, *benchmarks_, config);
  config.seed = 99;
  auto b = TrainRecallEmbeddings(*matrix_, *benchmarks_, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->embeddings.Serialize(), b->embeddings.Serialize());
}

}  // namespace
}  // namespace recall
}  // namespace tps
