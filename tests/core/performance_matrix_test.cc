#include "core/performance_matrix.h"

#include <cstring>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/reference_matrix_text.h"
#include "data/registry.h"
#include "matrix/matrix_testing.h"
#include "model/paper_zoo.h"
#include "model/zoo_gen.h"

namespace tps {
namespace {

/// Small fixture world: 4 models, 5 benchmark datasets.
class PerformanceMatrixTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::vector<ModelSpec> all_models = NlpPaperZooSpecs();
    const std::vector<ModelSpec> model_specs(all_models.begin(),
                                             all_models.begin() + 4);
    zoo_ = new ModelZoo(*ModelZoo::Create(model_specs));
    const std::vector<DatasetSpec> all_datasets = NlpBenchmarkSpecs();
    const std::vector<DatasetSpec> dataset_specs(all_datasets.begin(),
                                                 all_datasets.begin() + 5);
    registry_ = new DatasetRegistry(*DatasetRegistry::Create(dataset_specs));
    simulator_ = new FineTuneSimulator();
    matrix_ = new PerformanceMatrix(*PerformanceMatrix::Build(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), *simulator_,
        Hyperparams::DefaultsFor(TaskDomain::kNLP)));
  }

  static ModelZoo* zoo_;
  static DatasetRegistry* registry_;
  static FineTuneSimulator* simulator_;
  static PerformanceMatrix* matrix_;
};

ModelZoo* PerformanceMatrixTest::zoo_ = nullptr;
DatasetRegistry* PerformanceMatrixTest::registry_ = nullptr;
FineTuneSimulator* PerformanceMatrixTest::simulator_ = nullptr;
PerformanceMatrix* PerformanceMatrixTest::matrix_ = nullptr;

TEST_F(PerformanceMatrixTest, DimensionsAndNames) {
  EXPECT_EQ(matrix_->num_models(), 4u);
  EXPECT_EQ(matrix_->num_datasets(), 5u);
  EXPECT_EQ(matrix_->accuracy().rows(), 5u);
  EXPECT_EQ(matrix_->accuracy().cols(), 4u);
  EXPECT_EQ(matrix_->model_names()[0], zoo_->model(0).name());
  EXPECT_EQ(matrix_->dataset_names()[0], "cola");
}

TEST_F(PerformanceMatrixTest, AccuracyEqualsRunFinalTest) {
  for (size_t d = 0; d < matrix_->num_datasets(); ++d) {
    for (size_t m = 0; m < matrix_->num_models(); ++m) {
      EXPECT_DOUBLE_EQ(matrix_->accuracy().At(d, m),
                       matrix_->run(d, m).final_test());
    }
  }
}

TEST_F(PerformanceMatrixTest, ModelVectorIsColumn) {
  const std::vector<double> vec = matrix_->ModelVector(2);
  ASSERT_EQ(vec.size(), 5u);
  for (size_t d = 0; d < 5; ++d) {
    EXPECT_DOUBLE_EQ(vec[d], matrix_->accuracy().At(d, 2));
  }
}

TEST_F(PerformanceMatrixTest, ModelAverageAccuracyIsColumnMean) {
  const std::vector<double> vec = matrix_->ModelVector(1);
  double sum = 0.0;
  for (double v : vec) sum += v;
  EXPECT_DOUBLE_EQ(matrix_->ModelAverageAccuracy(1), sum / 5.0);
}

TEST_F(PerformanceMatrixTest, ValAtStageClampsToCurveLength) {
  const TrainingRun& run = matrix_->run(0, 0);
  EXPECT_DOUBLE_EQ(matrix_->ValAtStage(0, 0, 0), run.val_accuracy.front());
  EXPECT_DOUBLE_EQ(matrix_->ValAtStage(0, 0, 100), run.val_accuracy.back());
  EXPECT_DOUBLE_EQ(matrix_->ValAtStage(0, 0, -5), run.val_accuracy.front());
}

TEST_F(PerformanceMatrixTest, MatchesDirectSimulation) {
  auto direct = *simulator_->Run(
      zoo_->model(3), **registry_->Find("qnli"),
      Hyperparams::DefaultsFor(TaskDomain::kNLP));
  // qnli is the third NLP benchmark spec (cola, mrpc, qnli, ...).
  EXPECT_EQ(matrix_->run(2, 3).val_accuracy, direct.val_accuracy);
}

TEST_F(PerformanceMatrixTest, SaveLoadRoundTrips) {
  auto loaded = PerformanceMatrix::Deserialize(matrix_->Serialize());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_models(), matrix_->num_models());
  EXPECT_EQ(loaded->num_datasets(), matrix_->num_datasets());
  EXPECT_EQ(loaded->model_names(), matrix_->model_names());
  EXPECT_EQ(loaded->dataset_names(), matrix_->dataset_names());
  EXPECT_TRUE(ApproxEquals(loaded->accuracy(), matrix_->accuracy()));
  for (size_t d = 0; d < matrix_->num_datasets(); ++d) {
    for (size_t m = 0; m < matrix_->num_models(); ++m) {
      EXPECT_EQ(loaded->run(d, m).val_accuracy,
                matrix_->run(d, m).val_accuracy);
    }
  }
}

TEST_F(PerformanceMatrixTest, LoadRejectsCorruptFiles) {
  EXPECT_TRUE(PerformanceMatrix::Deserialize("not a matrix header\n")
                  .status()
                  .IsInvalidArgument());
}

// Serialize writes 17 significant digits and Deserialize parses with
// correct rounding, so every curve value survives the text round trip bit
// for bit.
TEST_F(PerformanceMatrixTest, TextRoundTripIsBitExact) {
  const std::string text = matrix_->Serialize();
  auto parsed = PerformanceMatrix::Deserialize(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), text);
  for (size_t d = 0; d < matrix_->num_datasets(); ++d) {
    for (size_t m = 0; m < matrix_->num_models(); ++m) {
      const TrainingRun& a = parsed->run(d, m);
      const TrainingRun& b = matrix_->run(d, m);
      ASSERT_EQ(a.val_accuracy.size(), b.val_accuracy.size());
      ASSERT_EQ(a.test_accuracy.size(), b.test_accuracy.size());
      EXPECT_EQ(std::memcmp(a.val_accuracy.data(), b.val_accuracy.data(),
                            a.val_accuracy.size() * sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(a.test_accuracy.data(), b.test_accuracy.data(),
                            a.test_accuracy.size() * sizeof(double)),
                0);
    }
  }
}

// Every prefix of a serialized matrix that drops at least its last value,
// and each malformed shape, fails with InvalidArgument and its specific
// message, never a crash or a huge allocation. (A prefix that only shortens
// the last value's digits is still a well-formed matrix.)
TEST_F(PerformanceMatrixTest, DeserializeRejectsTruncatedAndMalformedText) {
  const std::string text = matrix_->Serialize();
  const size_t last_value = text.rfind(' ') + 1;
  const std::set<std::string> messages = {
      "bad performance-matrix header", "bad performance-matrix dimensions",
      "truncated dataset names",       "truncated model names",
      "truncated run record",          "truncated curves"};
  for (size_t cut = 0; cut < last_value; ++cut) {
    auto parsed = PerformanceMatrix::Deserialize(text.substr(0, cut));
    ASSERT_FALSE(parsed.ok()) << "prefix " << cut;
    ASSERT_TRUE(parsed.status().IsInvalidArgument()) << "prefix " << cut;
    ASSERT_EQ(messages.count(parsed.status().message()), 1u)
        << parsed.status().message();
  }

  auto message = [](const std::string& body) {
    return PerformanceMatrix::Deserialize("tps-performance-matrix v1\n" + body)
        .status()
        .message();
  };
  EXPECT_EQ(message("0 2\n"), "bad performance-matrix dimensions");
  EXPECT_EQ(message("-1 2\n"), "bad performance-matrix dimensions");
  EXPECT_EQ(message("x 2\n"), "bad performance-matrix dimensions");
  EXPECT_EQ(message("99999999999 99999999999\na\nb\n"),
            "bad performance-matrix dimensions");
  EXPECT_EQ(message("1 1\na\n\n"), "truncated model names");
  EXPECT_EQ(message("1 1\na\nm\n0 1 0\n"), "truncated run record");
  EXPECT_EQ(message("1 1\na\nm\n0 0 2000000000 0.5 0.5\n"),
            "truncated curves");
  EXPECT_EQ(message("1 1\na\nm\n0 0 1 0.5 x\n"), "truncated curves");
  EXPECT_TRUE(PerformanceMatrix::Deserialize(
                  "tps-performance-matrix v1\n1 1\na\nm\n0 0 1 0.5 0.25")
                  .ok());
}

TEST_F(PerformanceMatrixTest, ParallelBuildIsBitIdenticalToSerial) {
  for (int threads : {1, 2, 4, 7}) {
    auto parallel = PerformanceMatrix::BuildParallel(
        *zoo_, registry_->Benchmarks(TaskDomain::kNLP), *simulator_,
        Hyperparams::DefaultsFor(TaskDomain::kNLP), threads);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    EXPECT_TRUE(ApproxEquals(parallel->accuracy(), matrix_->accuracy(), 0.0))
        << "threads=" << threads;
    for (size_t d = 0; d < matrix_->num_datasets(); ++d) {
      for (size_t m = 0; m < matrix_->num_models(); ++m) {
        ASSERT_EQ(parallel->run(d, m).val_accuracy,
                  matrix_->run(d, m).val_accuracy)
            << "threads=" << threads;
      }
    }
  }
}

TEST_F(PerformanceMatrixTest, ParallelBuildValidatesThreadCount) {
  EXPECT_TRUE(PerformanceMatrix::BuildParallel(
                  *zoo_, registry_->Benchmarks(TaskDomain::kNLP),
                  *simulator_, Hyperparams::DefaultsFor(TaskDomain::kNLP),
                  0)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PerformanceMatrixTest, ParallelBuildClampsThreadsToWorkItems) {
  // 64 requested workers against a 5x4 = 20-item grid: the pool is clamped
  // to the work-item count, and the result is still bit-identical to the
  // serial build rather than hanging or over-spawning.
  auto parallel = PerformanceMatrix::BuildParallel(
      *zoo_, registry_->Benchmarks(TaskDomain::kNLP), *simulator_,
      Hyperparams::DefaultsFor(TaskDomain::kNLP), 64);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->Serialize(), matrix_->Serialize());
}

TEST_F(PerformanceMatrixTest, ParallelBuildSingleWorkItem) {
  // Degenerate 1x1 grid with more threads than items.
  auto tiny_zoo = *ModelZoo::Create({NlpPaperZooSpecs()[0]});
  DatasetRegistry tiny_registry =
      *DatasetRegistry::Create({NlpBenchmarkSpecs()[0]});
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  auto serial = PerformanceMatrix::Build(
      tiny_zoo, tiny_registry.Benchmarks(TaskDomain::kNLP), *simulator_, hp);
  auto parallel = PerformanceMatrix::BuildParallel(
      tiny_zoo, tiny_registry.Benchmarks(TaskDomain::kNLP), *simulator_, hp,
      16);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->Serialize(), serial->Serialize());
}

TEST(PerformanceMatrixBuildTest, ParallelBuildRejectsEmptyBenchmarks) {
  // The empty-input validation fires before any pool is created, for every
  // thread count — a 0-benchmark build must not spin up workers.
  auto zoo = *ModelZoo::Create({NlpPaperZooSpecs()[0]});
  FineTuneSimulator simulator;
  for (int threads : {1, 4, 64}) {
    EXPECT_TRUE(PerformanceMatrix::BuildParallel(zoo, {}, simulator,
                                                 Hyperparams(), threads)
                    .status()
                    .IsInvalidArgument())
        << "threads=" << threads;
  }
}

TEST(PerformanceMatrixBuildTest, RejectsEmptyInputs) {
  auto zoo = *ModelZoo::Create({});
  DatasetRegistry registry = *DatasetRegistry::Create(
      {NlpBenchmarkSpecs()[0]});
  FineTuneSimulator simulator;
  EXPECT_TRUE(PerformanceMatrix::Build(
                  zoo, registry.Benchmarks(TaskDomain::kNLP), simulator,
                  Hyperparams())
                  .status()
                  .IsInvalidArgument());

  auto zoo2 = *ModelZoo::Create(
      {NlpPaperZooSpecs()[0]});
  EXPECT_TRUE(PerformanceMatrix::Build(zoo2, {}, simulator, Hyperparams())
                  .status()
                  .IsInvalidArgument());
}

TEST(PerformanceMatrixSerializeTest, MatchesTheStreamWriterByteForByte) {
  const DatasetRegistry inventory = *DatasetRegistry::CreatePaperInventory();
  FineTuneSimulator simulator;
  auto check = [&](const std::vector<ModelSpec>& specs, TaskDomain domain) {
    const ModelZoo zoo = *ModelZoo::Create(specs);
    const PerformanceMatrix matrix = *PerformanceMatrix::Build(
        zoo, inventory.Benchmarks(domain), simulator,
        Hyperparams::DefaultsFor(domain));
    EXPECT_EQ(matrix.Serialize(), ReferenceSerializeMatrix(matrix));
  };
  check(NlpPaperZooSpecs(), TaskDomain::kNLP);
  check(CvPaperZooSpecs(), TaskDomain::kCV);
  ZooGenSpec spec;
  spec.num_models = 300;
  check(*GenerateZooSpecs(spec), TaskDomain::kNLP);

  // Values no simulator produces: signed zero, subnormals, extremes, the
  // %g fixed/exponent switch points and integral values.
  const std::string text =
      "tps-performance-matrix v1\n1 2\nd\nm0\nm1\n"
      "0 0 3 -0 4.9406564584124654e-324 1e+300 0.0001 1e-05 "
      "1.7976931348623157e+308\n"
      "0 1 2 1e+16 1e+17 0.33333333333333331 2\n";
  const PerformanceMatrix edge = *PerformanceMatrix::Deserialize(text);
  EXPECT_EQ(edge.Serialize(), ReferenceSerializeMatrix(edge));
}

TEST(PerformanceMatrixBuildTest, RejectsDomainMismatch) {
  auto zoo = *ModelZoo::Create({NlpPaperZooSpecs()[0]});
  DatasetRegistry registry = *DatasetRegistry::Create({CvBenchmarkSpecs()[2]});
  FineTuneSimulator simulator;
  EXPECT_TRUE(PerformanceMatrix::Build(
                  zoo, registry.Benchmarks(TaskDomain::kCV), simulator,
                  Hyperparams::DefaultsFor(TaskDomain::kCV))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace tps
