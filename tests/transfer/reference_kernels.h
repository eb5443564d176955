#ifndef TPS_TESTS_TRANSFER_REFERENCE_KERNELS_H_
#define TPS_TESTS_TRANSFER_REFERENCE_KERNELS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "matrix/matrix.h"
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

/// A fully scalar scorer for `name` ("leep", "nce", "logme", "knn"; kNN
/// with k = 5, as MakeProxyScorer): the model's
/// PredictDistributionsReference / ExtractFeaturesReference forward pass
/// feeding the oracle kernel above. InvalidArgument for unknown names.
StatusOr<std::unique_ptr<ProxyScorer>> MakeReferenceProxyScorer(
    const std::string& name);

}  // namespace tps

#endif  // TPS_TESTS_TRANSFER_REFERENCE_KERNELS_H_
