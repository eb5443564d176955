#ifndef TPS_MATRIX_VECTOR_OPS_H_
#define TPS_MATRIX_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

namespace tps {

/// Small dense vector kernels shared by the clustering, embedding and
/// transferability modules. All pairwise functions require equal sizes
/// (checked) unless documented otherwise.
namespace vec {

double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean (L2) norm.
double Norm(const std::vector<double>& a);

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Cosine similarity in [-1, 1]; 0.0 if either vector has zero norm.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);

/// a + b elementwise.
std::vector<double> Add(const std::vector<double>& a,
                        const std::vector<double>& b);

/// a * s elementwise.
std::vector<double> Scale(const std::vector<double>& a, double s);

/// Elementwise absolute differences |a[i] - b[i]|.
std::vector<double> AbsDiff(const std::vector<double>& a,
                            const std::vector<double>& b);

/// Mean of the k largest entries of `values`. k is clamped to
/// [1, values.size()]; returns 0.0 on empty input. Used by the paper's
/// Eq. 1 model similarity (top-k largest accuracy differences).
double MeanOfTopK(std::vector<double> values, size_t k);

/// In-place scaling to unit L2 norm; no-op on a zero vector.
void NormalizeInPlace(std::vector<double>& a);

/// Softmax (numerically stabilized by max subtraction).
std::vector<double> Softmax(const std::vector<double>& logits);

/// Min-max normalizes `values` into [0, 1] (the paper normalizes LEEP
/// before combining it with the prior accuracy in the recall score; the
/// learned recall backends normalize their scores the same way). A
/// constant vector maps to all 0.5. NaN propagates: a NaN entry maps to
/// NaN, and a NaN first entry, which then bounds the range, maps every
/// entry to NaN.
std::vector<double> MinMaxNormalize(const std::vector<double>& values);

// --- Batch kernels (SoA hot path; see DESIGN.md "Hot-path kernels") ---
//
// Raw-pointer variants of the allocating helpers above, for inner loops
// that reuse caller-owned scratch. Each is bit-identical to its allocating
// counterpart (same operations, same order); the differential kernel
// harness (tests/transfer/kernel_equivalence_test.cc) pins this.

/// Softmax over `values[0, n)` in place: identical max-subtraction, exp
/// and normalization order as Softmax(). No-op when n == 0.
void SoftmaxInPlace(double* values, size_t n);

/// MeanOfTopK over caller-owned scratch (partially sorts `values`). Same
/// clamp, partial_sort and summation order as MeanOfTopK. Returns 0.0 when
/// n == 0.
double MeanOfTopKInPlace(double* values, size_t n, size_t k);

/// out[i] = |a[i] - b[i]| for i in [0, n). `out` may alias `a` or `b`.
void AbsDiffInto(const double* a, const double* b, size_t n, double* out);

}  // namespace vec
}  // namespace tps

#endif  // TPS_MATRIX_VECTOR_OPS_H_
