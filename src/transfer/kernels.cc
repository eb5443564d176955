// The proxy-scoring kernels (see kernels.h).
//
// Each kernel restructures the scalar oracle loops
// (tests/transfer/reference_kernels.cc) for contiguous SoA access and
// auto-vectorization without ever reassociating a sum: each output element
// accumulates its contributions in exactly the oracle's order, and only
// *independent* outputs move into the inner loop (loop interchange), so
// results match the oracle bit for bit. Transcendental calls (exp/log)
// stay scalar libm — vector polynomials would change bits.

#include "transfer/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>

#include "matrix/eigen.h"

namespace tps {
namespace kernels {

// ---------------------------------------------------------------------------
// LEEP
// ---------------------------------------------------------------------------

double LeepBatched(const Matrix& predictions, const std::vector<int>& labels,
                   size_t num_target) {
  const size_t n = predictions.rows();
  const size_t num_source = predictions.cols();
  const double* pred = predictions.data().data();

  // Joint P(y, z) by row-axpy in original example order. Per (y, z) only
  // examples with label y contribute, in ascending i — the same
  // accumulation order as the reference i-outer loop.
  std::vector<double> joint(num_target * num_source, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double* jrow = joint.data() + static_cast<size_t>(labels[i]) * num_source;
    const double* prow = pred + i * num_source;
    for (size_t z = 0; z < num_source; ++z) jrow[z] += prow[z];
  }
  for (size_t e = 0; e < joint.size(); ++e) {
    joint[e] /= static_cast<double>(n);
  }
  // Marginal, interchanged y-outer / z-inner: per z the sum still runs
  // over y ascending.
  std::vector<double> marginal(num_source, 0.0);
  for (size_t y = 0; y < num_target; ++y) {
    const double* jrow = joint.data() + y * num_source;
    for (size_t z = 0; z < num_source; ++z) marginal[z] += jrow[z];
  }
  std::vector<double> conditional(num_target * num_source, 0.0);
  for (size_t y = 0; y < num_target; ++y) {
    const double* jrow = joint.data() + y * num_source;
    double* crow = conditional.data() + y * num_source;
    for (size_t z = 0; z < num_source; ++z) {
      if (marginal[z] > 0.0) crow[z] = jrow[z] / marginal[z];
    }
  }

  // Group examples by label (stable counting sort) and gather predictions
  // into label-grouped columns: gcols[z * n + gi] = pred(grouped[gi], z).
  std::vector<size_t> group_begin(num_target + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    ++group_begin[static_cast<size_t>(labels[i]) + 1];
  }
  for (size_t y = 0; y < num_target; ++y) group_begin[y + 1] += group_begin[y];
  std::vector<size_t> grouped(n);
  {
    std::vector<size_t> cursor(group_begin.begin(), group_begin.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      grouped[cursor[static_cast<size_t>(labels[i])]++] = i;
    }
  }
  std::vector<double> gcols(n * num_source);
  for (size_t gi = 0; gi < n; ++gi) {
    const double* prow = pred + grouped[gi] * num_source;
    for (size_t z = 0; z < num_source; ++z) gcols[z * n + gi] = prow[z];
  }

  // EEP as broadcast-scalar axpy over each label group: per grouped
  // position the sum over z runs in ascending z, exactly the reference
  // per-example dot order, but the inner loop is a contiguous independent
  // stream the compiler vectorizes.
  std::vector<double> eep(n, 0.0);
  for (size_t y = 0; y < num_target; ++y) {
    const double* crow = conditional.data() + y * num_source;
    const size_t begin = group_begin[y];
    const size_t end = group_begin[y + 1];
    for (size_t z = 0; z < num_source; ++z) {
      const double cond_yz = crow[z];
      const double* col = gcols.data() + z * n;
      for (size_t gi = begin; gi < end; ++gi) eep[gi] += cond_yz * col[gi];
    }
  }
  // Log-likelihood reduction in ORIGINAL example order (the reference sums
  // over i ascending; grouped order would reassociate).
  std::vector<size_t> position(n);
  for (size_t gi = 0; gi < n; ++gi) position[grouped[gi]] = gi;
  double total_log_likelihood = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total_log_likelihood += std::log(std::max(eep[position[i]], 1e-12));
  }
  return total_log_likelihood / static_cast<double>(n);
}

// ---------------------------------------------------------------------------
// NCE
// ---------------------------------------------------------------------------

double NceBatched(const Matrix& predictions, const std::vector<int>& labels,
                  size_t num_target) {
  const size_t n = predictions.rows();
  const size_t num_source = predictions.cols();
  const double* pred = predictions.data().data();

  // Transpose to SoA columns, then argmax as a column sweep: per example
  // the strict > over ascending z is exactly the reference first-max tie
  // rule, but each sweep touches a contiguous column over all examples.
  std::vector<double> cols(n * num_source);
  for (size_t i = 0; i < n; ++i) {
    const double* prow = pred + i * num_source;
    for (size_t z = 0; z < num_source; ++z) cols[z * n + i] = prow[z];
  }
  std::vector<double> best(cols.begin(), cols.begin() + static_cast<ptrdiff_t>(n));
  std::vector<size_t> best_z(n, 0);
  for (size_t z = 1; z < num_source; ++z) {
    const double* col = cols.data() + z * n;
    for (size_t i = 0; i < n; ++i) {
      if (col[i] > best[i]) {
        best[i] = col[i];
        best_z[i] = z;
      }
    }
  }
  std::vector<double> counts(num_target * num_source, 0.0);
  for (size_t i = 0; i < n; ++i) {
    counts[static_cast<size_t>(labels[i]) * num_source + best_z[i]] += 1.0;
  }

  // Column sums nz for all z at once (per z: y ascending, as reference).
  std::vector<double> nz(num_source, 0.0);
  for (size_t y = 0; y < num_target; ++y) {
    const double* crow = counts.data() + y * num_source;
    for (size_t z = 0; z < num_source; ++z) nz[z] += crow[z];
  }
  double conditional_entropy = 0.0;
  for (size_t z = 0; z < num_source; ++z) {
    if (nz[z] <= 0.0) continue;
    double h = 0.0;
    for (size_t y = 0; y < num_target; ++y) {
      const double p = counts[y * num_source + z] / nz[z];
      if (p > 0.0) h -= p * std::log(p);
    }
    conditional_entropy += (nz[z] / static_cast<double>(n)) * h;
  }
  return -conditional_entropy;
}

// ---------------------------------------------------------------------------
// LogME
// ---------------------------------------------------------------------------

double EvidenceGivenProjection(size_t n, size_t dims,
                               const std::vector<double>& lambda,
                               const std::vector<double>& projected,
                               double yty) {
  double alpha = 1.0;
  double beta = 1.0;
  double m_squared = 0.0;
  double residual = yty;
  for (int iteration = 0; iteration < 100; ++iteration) {
    // In the eigenbasis, m_j = beta * p_j / (alpha + beta * lambda_j).
    double gamma = 0.0;
    m_squared = 0.0;
    double mt_gram_m = 0.0;  // m^T (F^T F) m
    double mt_fty = 0.0;     // m^T F^T y
    for (size_t j = 0; j < dims; ++j) {
      const double lj = std::max(lambda[j], 0.0);
      const double denom = alpha + beta * lj;
      const double mj = beta * projected[j] / denom;
      gamma += beta * lj / denom;
      m_squared += mj * mj;
      mt_gram_m += mj * mj * lj;
      mt_fty += mj * projected[j];
    }
    residual = std::max(yty - 2.0 * mt_fty + mt_gram_m, 1e-12);
    const double new_alpha = gamma / std::max(m_squared, 1e-12);
    const double new_beta =
        (static_cast<double>(n) - gamma) / residual;
    const bool converged = std::fabs(new_alpha - alpha) <=
                               1e-4 * std::fabs(alpha) &&
                           std::fabs(new_beta - beta) <=
                               1e-4 * std::fabs(beta);
    alpha = std::max(new_alpha, 1e-10);
    beta = std::max(new_beta, 1e-10);
    if (converged) break;
  }

  // log|A| with A = alpha I + beta F^T F.
  double log_det = 0.0;
  for (size_t j = 0; j < dims; ++j) {
    log_det += std::log(alpha + beta * std::max(lambda[j], 0.0));
  }
  const double nd = static_cast<double>(n);
  const double dd = static_cast<double>(dims);
  const double evidence =
      0.5 * (nd * std::log(beta) + dd * std::log(alpha) - log_det -
             beta * residual - alpha * m_squared -
             nd * std::log(2.0 * std::numbers::pi));
  return evidence / nd;
}

StatusOr<double> LogMeBatched(const Matrix& features,
                              const std::vector<int>& labels,
                              size_t num_target) {
  const size_t n = features.rows();
  const size_t dims = features.cols();
  const double* feat = features.data().data();

  // Gram upper triangle by row-axpy: per (a, b) the accumulation runs over
  // i ascending with the reference's exact fa == 0.0 skip (skipping vs
  // adding a signed zero can differ bitwise), inner loop contiguous over b.
  Matrix gram(dims, dims, 0.0);
  double* gram_data = gram.data().data();
  for (size_t i = 0; i < n; ++i) {
    const double* frow = feat + i * dims;
    for (size_t a = 0; a < dims; ++a) {
      const double fa = frow[a];
      if (fa == 0.0) continue;
      double* grow = gram_data + a * dims;
      for (size_t b = a; b < dims; ++b) grow[b] += fa * frow[b];
    }
  }
  for (size_t a = 0; a < dims; ++a) {
    for (size_t b = 0; b < a; ++b) gram_data[a * dims + b] = gram_data[b * dims + a];
  }
  TPS_ASSIGN_OR_RETURN(SymmetricEigenResult gram_eigen,
                       SymmetricEigen(gram, /*symmetry_tolerance=*/1e-6));
  const double* eigvec = gram_eigen.vectors.data().data();

  std::vector<double> fty(dims);
  std::vector<double> projected(dims);
  double total_evidence = 0.0;
  for (size_t c = 0; c < num_target; ++c) {
    // yty = |{i : labels[i] == c}|, accumulated over all i in ascending
    // order exactly as the reference's sum of the one-vs-rest vector.
    double yty = 0.0;
    for (size_t i = 0; i < n; ++i) {
      yty += static_cast<size_t>(labels[i]) == c ? 1.0 : 0.0;
    }
    // F^T y: contiguous row-axpy over the class members only.
    std::fill(fty.begin(), fty.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<size_t>(labels[i]) != c) continue;
      const double* frow = feat + i * dims;
      for (size_t a = 0; a < dims; ++a) fty[a] += frow[a];
    }
    // Projection with the loops interchanged: p_j accumulates over i
    // ascending (reference order) but the inner loop streams eigenvector
    // ROWS contiguously instead of striding down columns.
    std::fill(projected.begin(), projected.end(), 0.0);
    for (size_t i = 0; i < dims; ++i) {
      const double* vrow = eigvec + i * dims;
      const double fi = fty[i];
      for (size_t j = 0; j < dims; ++j) projected[j] += vrow[j] * fi;
    }
    total_evidence +=
        EvidenceGivenProjection(n, dims, gram_eigen.values, projected, yty);
  }
  return total_evidence / static_cast<double>(num_target);
}

// ---------------------------------------------------------------------------
// kNN
// ---------------------------------------------------------------------------

bool KnnVoteCorrect(std::vector<std::pair<double, size_t>>& distances,
                    const std::vector<int>& labels, size_t kk, size_t i) {
  std::partial_sort(distances.begin(),
                    distances.begin() + static_cast<ptrdiff_t>(kk),
                    distances.end());
  std::map<int, size_t> votes;
  for (size_t r = 0; r < kk; ++r) {
    ++votes[labels[distances[r].second]];
  }
  int best_label = -1;
  size_t best_votes = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_votes) {
      best_votes = count;
      best_label = label;
    }
  }
  return best_label == labels[i];
}

double KnnBatched(const Matrix& features, const std::vector<int>& labels,
                  size_t kk) {
  const size_t n = features.rows();
  const size_t dims = features.cols();
  const double* feat = features.data().data();

  // Transpose once to dimension-major columns so the per-query distance
  // pass streams contiguous memory.
  std::vector<double> cols(n * dims);
  for (size_t j = 0; j < n; ++j) {
    const double* frow = feat + j * dims;
    for (size_t c = 0; c < dims; ++c) cols[c * n + j] = frow[c];
  }

  // Blocked accumulation: d2 for a block of candidates stays hot in cache
  // while the dimension loop streams over it. Per (i, j) the sum over c
  // still runs in ascending c — identical bits to the reference.
  constexpr size_t kBlock = 512;
  size_t correct = 0;
  std::vector<double> d2(n);
  std::vector<std::pair<double, size_t>> distances(n);
  for (size_t i = 0; i < n; ++i) {
    const double* frow = feat + i * dims;
    std::fill(d2.begin(), d2.end(), 0.0);
    for (size_t jb = 0; jb < n; jb += kBlock) {
      const size_t je = std::min(jb + kBlock, n);
      double* block = d2.data();
      for (size_t c = 0; c < dims; ++c) {
        const double fic = frow[c];
        const double* col = cols.data() + c * n;
        for (size_t j = jb; j < je; ++j) {
          const double diff = fic - col[j];
          block[j] += diff * diff;
        }
      }
    }
    for (size_t j = 0; j < n; ++j) {
      distances[j] = {j == i ? std::numeric_limits<double>::infinity() : d2[j],
                      j};
    }
    if (KnnVoteCorrect(distances, labels, kk, i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace kernels
}  // namespace tps
