#ifndef TPS_TESTS_TRANSFER_REFERENCE_KERNELS_H_
#define TPS_TESTS_TRANSFER_REFERENCE_KERNELS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "matrix/matrix.h"
#include "model/pretrained_model.h"
#include "transfer/proxy_scorer.h"
#include "util/statusor.h"

namespace tps {
namespace kernels {

// Test-only oracle: the straightforward scalar proxy-scoring loops the
// production kernels (src/transfer/kernels.*) were derived from, reading
// every element through Matrix::At. Each production kernel must match its
// oracle bit for bit. Like the production kernels, they assume validated
// input: labels in [0, num_target), n >= 1, and for kNN n >= 2 with `kk`
// already clamped to [1, n - 1].

double LeepReference(const Matrix& predictions,
                     const std::vector<int>& labels, size_t num_target);

double NceReference(const Matrix& predictions,
                    const std::vector<int>& labels, size_t num_target);

StatusOr<double> LogMeReference(const Matrix& features,
                                const std::vector<int>& labels,
                                size_t num_target);

double KnnReference(const Matrix& features, const std::vector<int>& labels,
                    size_t kk);

}  // namespace kernels

/// Test-only oracle of PretrainedModel::ExtractFeatures: the scalar
/// forward pass the SoA one was derived from. Each prototype row is
/// gathered from the model's dimension-major layout, and every logit is
/// beta * vec::Dot(example features, prototype) plus the routed
/// separation, one example at a time. InvalidArgument when the domains
/// differ, as the model.
StatusOr<Matrix> ExtractFeaturesReference(const PretrainedModel& model,
                                          const Dataset& dataset);

/// Oracle of PretrainedModel::PredictDistributions:
/// ExtractFeaturesReference and an allocating vec::Softmax per row.
StatusOr<Matrix> PredictDistributionsReference(const PretrainedModel& model,
                                               const Dataset& dataset);

/// A fully scalar scorer for `name` ("leep", "nce", "logme", "knn"; kNN
/// with k = 5, as MakeProxyScorer): the PredictDistributionsReference /
/// ExtractFeaturesReference forward pass feeding the oracle kernel above.
/// InvalidArgument for unknown names.
StatusOr<std::unique_ptr<ProxyScorer>> MakeReferenceProxyScorer(
    const std::string& name);

}  // namespace tps

#endif  // TPS_TESTS_TRANSFER_REFERENCE_KERNELS_H_
