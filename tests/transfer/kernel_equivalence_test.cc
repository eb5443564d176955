// Differential kernel harness: every production proxy function on the
// scoring hot path (validation + vectorized SoA kernel) is pitted against
// the scalar oracle in reference_kernels.* over randomized shapes and
// adversarial edge cases, and the results must be BIT-IDENTICAL (EXPECT_EQ
// on doubles, not NEAR). Inputs the production functions reject must fail
// with the expected status code. This is the contract that lets the
// batched kernels be the only production path without touching a single
// golden snapshot. Runs the comparisons serially and under a ThreadPool
// (the `kernels` label joins the sanitizer matrix, so TSan sweeps the
// concurrent section).

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clustering/distance.h"
#include "data/dataset.h"
#include "matrix/matrix.h"
#include "matrix/vector_ops.h"
#include "model/pretrained_model.h"
#include "transfer/proxy_scorer.h"
#include "transfer/reference_kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

// --- Shared randomized-input generator -------------------------------------

struct ProxyInputs {
  Matrix predictions;       // Row-stochastic n x Z.
  Matrix features;          // The pre-softmax logits, n x Z.
  std::vector<int> labels;  // In [0, num_target).
  int num_target = 2;
};

/// Randomized proxy inputs. `logit_scale` stretches the logits before the
/// softmax: at ~40 the off-max probabilities land many orders of magnitude
/// below 1 (denormal-adjacent), stressing the accumulation-order proofs
/// exactly where floating point is least forgiving. Degenerate shapes
/// (n == 0, Z == 1, num_target == 1) are legal inputs here; the
/// production functions decide what is an error, and the harness asserts
/// the status code they return.
ProxyInputs MakeInputs(Rng& rng, size_t n, size_t z, int num_target,
                       double logit_scale) {
  ProxyInputs inputs;
  inputs.num_target = num_target;
  inputs.predictions = Matrix(n, z);
  inputs.features = Matrix(n, z);
  inputs.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> logits(z);
    for (size_t j = 0; j < z; ++j) {
      logits[j] = logit_scale * rng.Normal();
      inputs.features.At(i, j) = logits[j];
    }
    const std::vector<double> probs = vec::Softmax(logits);
    for (size_t j = 0; j < z; ++j) inputs.predictions.At(i, j) = probs[j];
    inputs.labels[i] =
        num_target > 0 ? static_cast<int>(rng.UniformInt(
                             static_cast<uint64_t>(num_target)))
                       : 0;
  }
  return inputs;
}

/// The shape sweep every differential case runs: small primes, powers of
/// two, single example, single source class, and a shape where
/// num_target > n so some target labels never occur.
struct Shape {
  size_t n;
  size_t z;
  int num_target;
};

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape>* shapes = new std::vector<Shape>{
      {1, 1, 2},  {1, 4, 2},  {2, 2, 2},   {3, 5, 2},   {7, 3, 4},
      {16, 8, 3}, {17, 1, 2}, {31, 16, 7}, {64, 12, 5}, {5, 6, 11},
  };
  return *shapes;
}

/// The production function must succeed and match the oracle bit for
/// bit.
void ExpectMatchesOracle(const StatusOr<double>& production,
                         const StatusOr<double>& oracle,
                         const std::string& what) {
  ASSERT_TRUE(production.ok())
      << what << ": " << production.status().ToString();
  ASSERT_TRUE(oracle.ok()) << what << ": " << oracle.status().ToString();
  EXPECT_EQ(*production, *oracle) << what;
}

/// The production function must reject the input with `code`.
void ExpectFails(const StatusOr<double>& production, StatusCode code,
                 const std::string& what) {
  ASSERT_FALSE(production.ok()) << what;
  EXPECT_EQ(production.status().code(), code)
      << what << ": " << production.status().ToString();
}

size_t Target(const ProxyInputs& in) {
  return static_cast<size_t>(in.num_target);
}

std::string ShapeName(const Shape& shape, double scale, uint64_t seed) {
  return "n=" + std::to_string(shape.n) + " z=" + std::to_string(shape.z) +
         " L=" + std::to_string(shape.num_target) +
         " scale=" + std::to_string(scale) + " seed=" + std::to_string(seed);
}

// --- Proxy-score kernels ----------------------------------------------------

class KernelEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(KernelEquivalenceTest, LeepBatchedIsBitIdentical) {
  const double scale = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const Shape& shape : Shapes()) {
      Rng rng(seed * 7919 + shape.n);
      const ProxyInputs in =
          MakeInputs(rng, shape.n, shape.z, shape.num_target, scale);
      ExpectMatchesOracle(
          LeepFromPredictions(in.predictions, in.labels, in.num_target),
          kernels::LeepReference(in.predictions, in.labels, Target(in)),
          "LEEP " + ShapeName(shape, scale, seed));
    }
  }
}

TEST_P(KernelEquivalenceTest, NceBatchedIsBitIdentical) {
  const double scale = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const Shape& shape : Shapes()) {
      Rng rng(seed * 104729 + shape.z);
      const ProxyInputs in =
          MakeInputs(rng, shape.n, shape.z, shape.num_target, scale);
      ExpectMatchesOracle(
          NceFromPredictions(in.predictions, in.labels, in.num_target),
          kernels::NceReference(in.predictions, in.labels, Target(in)),
          "NCE " + ShapeName(shape, scale, seed));
    }
  }
}

TEST_P(KernelEquivalenceTest, LogMeBatchedIsBitIdentical) {
  const double scale = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const Shape& shape : Shapes()) {
      Rng rng(seed * 1299709 + shape.n * 31 + shape.z);
      const ProxyInputs in =
          MakeInputs(rng, shape.n, shape.z, shape.num_target, scale);
      ExpectMatchesOracle(
          LogMeFromFeatures(in.features, in.labels, in.num_target),
          kernels::LogMeReference(in.features, in.labels, Target(in)),
          "LogME " + ShapeName(shape, scale, seed));
    }
  }
}

TEST_P(KernelEquivalenceTest, KnnBatchedIsBitIdentical) {
  const double scale = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (const Shape& shape : Shapes()) {
      for (int k : {1, 3, 5, 100}) {  // 100 > n exercises the clamp.
        Rng rng(seed * 15485863 + shape.n + static_cast<uint64_t>(k));
        const ProxyInputs in =
            MakeInputs(rng, shape.n, shape.z, shape.num_target, scale);
        const std::string what =
            "kNN k=" + std::to_string(k) + " " + ShapeName(shape, scale, seed);
        const StatusOr<double> production =
            KnnLeaveOneOutAccuracy(in.features, in.labels, k);
        if (shape.n < 2) {  // No neighbour to vote.
          ExpectFails(production, StatusCode::kInvalidArgument, what);
          continue;
        }
        const size_t kk = std::min<size_t>(static_cast<size_t>(k), shape.n - 1);
        ExpectMatchesOracle(production,
                            kernels::KnnReference(in.features, in.labels, kk),
                            what);
      }
    }
  }
}

// Moderate logits, and extreme logits whose softmax probabilities are
// denormal-adjacent.
INSTANTIATE_TEST_SUITE_P(LogitScales, KernelEquivalenceTest,
                         ::testing::Values(2.0, 40.0));

// --- Error paths -----------------------------------------------------------

TEST(KernelEquivalenceEdgeTest, DegenerateInputsFailIdenticallyInBothModes) {
  // Each degenerate input is either rejected with the production status
  // code or, where it is still valid for a proxy, scored bit-identically
  // to the oracle.
  Rng rng(42);
  // Empty batch: every proxy rejects it.
  const ProxyInputs empty = MakeInputs(rng, 0, 3, 2, 2.0);
  // Target class count of 1: LEEP/NCE/LogME reject it; kNN ignores the
  // class count and still scores.
  const ProxyInputs one_class = MakeInputs(rng, 8, 3, 1, 2.0);
  // Single example: only kNN, which needs a neighbour, rejects it.
  const ProxyInputs lonely = MakeInputs(rng, 1, 3, 2, 2.0);
  // Mismatched label vector: every proxy rejects it.
  const ProxyInputs ragged = [&] {
    ProxyInputs in = MakeInputs(rng, 6, 3, 2, 2.0);
    in.labels.pop_back();
    return in;
  }();
  constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;

  for (const ProxyInputs* in : {&empty, &one_class, &ragged}) {
    ExpectFails(LeepFromPredictions(in->predictions, in->labels,
                                    in->num_target),
                kInvalid, "LEEP edge");
    ExpectFails(NceFromPredictions(in->predictions, in->labels,
                                   in->num_target),
                kInvalid, "NCE edge");
    ExpectFails(LogMeFromFeatures(in->features, in->labels, in->num_target),
                kInvalid, "LogME edge");
  }
  for (const ProxyInputs* in : {&empty, &lonely, &ragged}) {
    ExpectFails(KnnLeaveOneOutAccuracy(in->features, in->labels, 3),
                kInvalid, "kNN edge");
  }
  ExpectMatchesOracle(
      LeepFromPredictions(lonely.predictions, lonely.labels,
                          lonely.num_target),
      kernels::LeepReference(lonely.predictions, lonely.labels,
                             Target(lonely)),
      "LEEP single example");
  ExpectMatchesOracle(
      NceFromPredictions(lonely.predictions, lonely.labels, lonely.num_target),
      kernels::NceReference(lonely.predictions, lonely.labels,
                            Target(lonely)),
      "NCE single example");
  ExpectMatchesOracle(
      LogMeFromFeatures(lonely.features, lonely.labels, lonely.num_target),
      kernels::LogMeReference(lonely.features, lonely.labels,
                              Target(lonely)),
      "LogME single example");
  ExpectMatchesOracle(
      KnnLeaveOneOutAccuracy(one_class.features, one_class.labels, 3),
      kernels::KnnReference(one_class.features, one_class.labels, 3),
      "kNN one class");
  // Labels outside [0, num_target) are out of range, not invalid.
  ProxyInputs stray = MakeInputs(rng, 6, 3, 2, 2.0);
  stray.labels[2] = 2;
  ExpectFails(LeepFromPredictions(stray.predictions, stray.labels, 2),
              StatusCode::kOutOfRange, "LEEP stray label");
  ExpectFails(NceFromPredictions(stray.predictions, stray.labels, 2),
              StatusCode::kOutOfRange, "NCE stray label");
  ExpectFails(LogMeFromFeatures(stray.features, stray.labels, 2),
              StatusCode::kOutOfRange, "LogME stray label");
  ExpectFails(KnnLeaveOneOutAccuracy(stray.features, stray.labels, 0),
              kInvalid, "kNN k = 0");
}

TEST(KernelEquivalenceEdgeTest, TiedAndDuplicateRowsAgree) {
  // Exact duplicates and perfect argmax ties are where an accidental
  // reordering of comparisons would first change a result (NCE's first-max
  // rule, kNN's distance-then-index tie break).
  auto predictions = *Matrix::FromRows({{0.25, 0.25, 0.25, 0.25},
                                        {0.25, 0.25, 0.25, 0.25},
                                        {0.4, 0.4, 0.1, 0.1},
                                        {0.4, 0.4, 0.1, 0.1},
                                        {0.1, 0.4, 0.4, 0.1}});
  const std::vector<int> labels = {0, 1, 0, 1, 1};
  ExpectMatchesOracle(NceFromPredictions(predictions, labels, 2),
                      kernels::NceReference(predictions, labels, 2),
                      "NCE ties");
  ExpectMatchesOracle(LeepFromPredictions(predictions, labels, 2),
                      kernels::LeepReference(predictions, labels, 2),
                      "LEEP ties");
  ExpectMatchesOracle(KnnLeaveOneOutAccuracy(predictions, labels, 2),
                      kernels::KnnReference(predictions, labels, 2),
                      "kNN duplicate rows");
}

// --- Forward-pass (SoA) and vector-helper pairs -----------------------------

StatusOr<Dataset> MakeTarget(int num_labels, int num_examples) {
  DatasetSpec spec;
  spec.name = "kernel-diff-target";
  spec.num_labels = num_labels;
  spec.num_examples = num_examples;
  spec.tags = {"news", "reviews"};
  return Dataset::Create(spec);
}

StatusOr<PretrainedModel> MakeModel(int num_source_labels) {
  ModelSpec spec;
  spec.name = "kernel-diff-model";
  spec.capability = 0.7;
  spec.num_source_labels = num_source_labels;
  spec.pretrain_tags = {"english", "news"};
  return PretrainedModel::Create(spec);
}

void ExpectMatricesBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a.At(i, j), b.At(i, j)) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(ForwardPassEquivalenceTest, SoAForwardPassMatchesReference) {
  for (int num_labels : {2, 3, 7}) {
    for (int source_labels : {2, 5, 16}) {
      auto target = MakeTarget(num_labels, 64);
      ASSERT_TRUE(target.ok());
      auto model = MakeModel(source_labels);
      ASSERT_TRUE(model.ok());

      auto features = model->ExtractFeatures(*target);
      auto features_ref = ExtractFeaturesReference(*model, *target);
      ASSERT_TRUE(features.ok());
      ASSERT_TRUE(features_ref.ok());
      ExpectMatricesBitIdentical(*features, *features_ref);

      auto predictions = model->PredictDistributions(*target);
      auto predictions_ref = PredictDistributionsReference(*model, *target);
      ASSERT_TRUE(predictions.ok());
      ASSERT_TRUE(predictions_ref.ok());
      ExpectMatricesBitIdentical(*predictions, *predictions_ref);
    }
  }
  // Both passes refuse a dataset from another domain.
  DatasetSpec cv_spec;
  cv_spec.name = "kernel-diff-cv-target";
  cv_spec.domain = TaskDomain::kCV;
  cv_spec.tags = {"natural"};
  auto cv_target = Dataset::Create(cv_spec);
  ASSERT_TRUE(cv_target.ok());
  auto model = MakeModel(5);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->ExtractFeatures(*cv_target).status().IsInvalidArgument());
  EXPECT_TRUE(ExtractFeaturesReference(*model, *cv_target)
                  .status()
                  .IsInvalidArgument());
}

TEST(VectorHelperEquivalenceTest, InPlaceHelpersMatchAllocatingOnes) {
  Rng rng(7);
  for (size_t n : {size_t{1}, size_t{2}, size_t{5}, size_t{64}}) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Normal() * 3.0;
      b[i] = rng.Normal() * 3.0;
    }

    // MeanOfTopKInPlace vs MeanOfTopK.
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, n, n + 5}) {
      std::vector<double> scratch = a;
      EXPECT_EQ(vec::MeanOfTopKInPlace(scratch.data(), scratch.size(), k),
                vec::MeanOfTopK(a, k));
    }

    // AbsDiffInto vs AbsDiff.
    std::vector<double> out(n);
    vec::AbsDiffInto(a.data(), b.data(), n, out.data());
    EXPECT_EQ(out, vec::AbsDiff(a, b));

    // Scratch-based PerformanceSimilarity vs the vector overload.
    std::vector<double> scratch;
    for (size_t top_k : {size_t{1}, size_t{3}, n}) {
      EXPECT_EQ(
          PerformanceSimilarity(a.data(), b.data(), n, top_k, scratch),
          PerformanceSimilarity(a, b, top_k));
    }
  }
  // Empty input.
  std::vector<double> scratch;
  EXPECT_EQ(vec::MeanOfTopKInPlace(scratch.data(), 0, 3), 0.0);
  vec::SoftmaxInPlace(scratch.data(), 0);  // Must not crash.
}

// --- Parallel execution ----------------------------------------------------

TEST(ParallelKernelEquivalenceTest, ConcurrentBatchedRunsStayBitIdentical) {
  // The batched kernels keep no shared mutable state; N threads computing
  // the same scores must agree bit-for-bit with the serial answer (and
  // TSan must stay quiet — this test rides the sanitizer matrix).
  Rng rng(1234);
  const ProxyInputs in = MakeInputs(rng, 48, 9, 4, 2.0);

  const StatusOr<double> leep_serial =
      LeepFromPredictions(in.predictions, in.labels, in.num_target);
  const StatusOr<double> nce_serial =
      NceFromPredictions(in.predictions, in.labels, in.num_target);
  const StatusOr<double> logme_serial =
      LogMeFromFeatures(in.features, in.labels, in.num_target);
  const StatusOr<double> knn_serial =
      KnnLeaveOneOutAccuracy(in.features, in.labels, 5);
  ASSERT_TRUE(leep_serial.ok() && nce_serial.ok() && logme_serial.ok() &&
              knn_serial.ok());
  ExpectMatchesOracle(
      leep_serial,
      kernels::LeepReference(in.predictions, in.labels, Target(in)), "LEEP");
  ExpectMatchesOracle(
      nce_serial, kernels::NceReference(in.predictions, in.labels, Target(in)),
      "NCE");
  ExpectMatchesOracle(
      logme_serial,
      kernels::LogMeReference(in.features, in.labels, Target(in)), "LogME");
  ExpectMatchesOracle(knn_serial,
                      kernels::KnnReference(in.features, in.labels, 5), "kNN");

  constexpr size_t kTrials = 32;
  std::vector<double> leep(kTrials), nce(kTrials), logme(kTrials),
      knn(kTrials);
  ThreadPool pool(4);
  pool.ParallelFor(kTrials, [&](size_t t) {
    leep[t] = *LeepFromPredictions(in.predictions, in.labels, in.num_target);
    nce[t] = *NceFromPredictions(in.predictions, in.labels, in.num_target);
    logme[t] = *LogMeFromFeatures(in.features, in.labels, in.num_target);
    knn[t] = *KnnLeaveOneOutAccuracy(in.features, in.labels, 5);
  });
  for (size_t t = 0; t < kTrials; ++t) {
    EXPECT_EQ(leep[t], *leep_serial);
    EXPECT_EQ(nce[t], *nce_serial);
    EXPECT_EQ(logme[t], *logme_serial);
    EXPECT_EQ(knn[t], *knn_serial);
  }
}

}  // namespace
}  // namespace tps
