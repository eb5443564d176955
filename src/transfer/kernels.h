#ifndef TPS_TRANSFER_KERNELS_H_
#define TPS_TRANSFER_KERNELS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "matrix/matrix.h"
#include "util/statusor.h"

namespace tps {
namespace kernels {

// The proxy-scoring kernels: SoA, auto-vectorization friendly loops over
// contiguous rows and columns. Every kernel assumes the validating
// function in proxy_scorer.cc already checked shapes and label ranges;
// kernels are pure functions of their arguments (thread-safe by
// construction).
//
// Each kernel keeps the exact per-output floating-point accumulation order
// of the straightforward scalar loops it was derived from (loop
// interchange only moves *independent* outputs into the inner loop), so
// it is bit-identical to them. Those loops are the test oracle in
// tests/transfer/reference_kernels.*, and
// tests/transfer/kernel_equivalence_test.cc pins the contract with ==
// over randomized shapes, serial and parallel.

/// LEEP (Nguyen et al., ICML 2020) from row-stochastic predictions
/// (n x Z) and target labels in [0, num_target).
double LeepBatched(const Matrix& predictions, const std::vector<int>& labels,
                   size_t num_target);

/// NCE (Tran et al., ICCV 2019): -H(Y | argmax-Z) from predictions.
double NceBatched(const Matrix& predictions, const std::vector<int>& labels,
                  size_t num_target);

/// LogME (You et al., ICML 2021) from features (n x D). StatusOr because
/// the shared Gram eigendecomposition can fail on pathological input.
StatusOr<double> LogMeBatched(const Matrix& features,
                              const std::vector<int>& labels,
                              size_t num_target);

/// Leave-one-out kNN accuracy from features. `kk` is the already-clamped
/// neighbour count in [1, n - 1].
double KnnBatched(const Matrix& features, const std::vector<int>& labels,
                  size_t kk);

// The two steps the kernels share with the oracle, so both compute them
// with the same code.

/// The LogME fixed-point iteration over (alpha, beta) given the Gram
/// spectrum `lambda` and the projection of F^T y onto the eigenbasis;
/// returns the per-sample log evidence of one one-vs-rest class.
double EvidenceGivenProjection(size_t n, size_t dims,
                               const std::vector<double>& lambda,
                               const std::vector<double>& projected,
                               double yty);

/// The kNN voting rule for query `i`: the `kk` nearest by (distance,
/// index) pair order (partially sorts `distances`), majority vote,
/// smallest label wins ties. True when the vote is `labels[i]`.
bool KnnVoteCorrect(std::vector<std::pair<double, size_t>>& distances,
                    const std::vector<int>& labels, size_t kk, size_t i);

}  // namespace kernels
}  // namespace tps

#endif  // TPS_TRANSFER_KERNELS_H_
