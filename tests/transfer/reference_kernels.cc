#include "transfer/reference_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "data/latent.h"
#include "matrix/eigen.h"
#include "matrix/vector_ops.h"
#include "transfer/kernels.h"
#include "util/test_helpers.h"

namespace tps {
namespace kernels {

double LeepReference(const Matrix& predictions,
                     const std::vector<int>& labels, size_t num_target) {
  const size_t n = predictions.rows();
  const size_t num_source = predictions.cols();
  // Empirical joint P(y, z).
  Matrix joint(num_target, num_source, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const size_t y = static_cast<size_t>(labels[i]);
    for (size_t z = 0; z < num_source; ++z) {
      joint.At(y, z) += predictions.At(i, z);
    }
  }
  for (size_t y = 0; y < num_target; ++y) {
    for (size_t z = 0; z < num_source; ++z) {
      joint.At(y, z) /= static_cast<double>(n);
    }
  }
  // Marginal P(z) and conditional P(y | z).
  std::vector<double> marginal(num_source, 0.0);
  for (size_t z = 0; z < num_source; ++z) {
    for (size_t y = 0; y < num_target; ++y) marginal[z] += joint.At(y, z);
  }
  Matrix conditional(num_target, num_source, 0.0);
  for (size_t z = 0; z < num_source; ++z) {
    if (marginal[z] <= 0.0) continue;  // Unused source label.
    for (size_t y = 0; y < num_target; ++y) {
      conditional.At(y, z) = joint.At(y, z) / marginal[z];
    }
  }
  // Mean log-likelihood of the expected empirical predictor.
  double total_log_likelihood = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t y = static_cast<size_t>(labels[i]);
    double eep = 0.0;
    for (size_t z = 0; z < num_source; ++z) {
      eep += conditional.At(y, z) * predictions.At(i, z);
    }
    // Guard log(0): an EEP of exactly zero means the label never co-occurs
    // with any predicted source label, which only happens on degenerate
    // inputs; floor it far below any realistic likelihood.
    total_log_likelihood += std::log(std::max(eep, 1e-12));
  }
  return total_log_likelihood / static_cast<double>(n);
}


double NceReference(const Matrix& predictions,
                    const std::vector<int>& labels, size_t num_target) {
  const size_t n = predictions.rows();
  const size_t num_source = predictions.cols();
  // Empirical joint of (y, argmax-z) counts.
  Matrix counts(num_target, num_source, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const int y = labels[i];
    size_t best_z = 0;
    for (size_t z = 1; z < num_source; ++z) {
      if (predictions.At(i, z) > predictions.At(i, best_z)) best_z = z;
    }
    counts.At(static_cast<size_t>(y), best_z) += 1.0;
  }

  // H(Y | Z) = sum_z P(z) * H(Y | Z = z).
  double conditional_entropy = 0.0;
  for (size_t z = 0; z < num_source; ++z) {
    double nz = 0.0;
    for (size_t y = 0; y < num_target; ++y) nz += counts.At(y, z);
    if (nz <= 0.0) continue;
    double h = 0.0;
    for (size_t y = 0; y < num_target; ++y) {
      const double p = counts.At(y, z) / nz;
      if (p > 0.0) h -= p * std::log(p);
    }
    conditional_entropy += (nz / static_cast<double>(n)) * h;
  }
  return -conditional_entropy;
}


StatusOr<double> LogMeReference(const Matrix& features,
                                const std::vector<int>& labels,
                                size_t num_target) {
  const size_t n = features.rows();
  const size_t dims = features.cols();

  // Gram matrix F^T F (D x D) and its spectrum, shared by all classes.
  Matrix gram(dims, dims, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < dims; ++a) {
      const double fa = features.At(i, a);
      if (fa == 0.0) continue;
      for (size_t b = a; b < dims; ++b) {
        gram.At(a, b) += fa * features.At(i, b);
      }
    }
  }
  for (size_t a = 0; a < dims; ++a) {
    for (size_t b = 0; b < a; ++b) gram.At(a, b) = gram.At(b, a);
  }
  TPS_ASSIGN_OR_RETURN(SymmetricEigenResult gram_eigen,
                       SymmetricEigen(gram, /*symmetry_tolerance=*/1e-6));

  double total_evidence = 0.0;
  for (size_t c = 0; c < num_target; ++c) {
    // One-vs-rest target vector.
    std::vector<double> y(n, 0.0);
    double yty = 0.0;
    for (size_t i = 0; i < n; ++i) {
      y[i] = static_cast<size_t>(labels[i]) == c ? 1.0 : 0.0;
      yty += y[i];
    }
    // F^T y.
    std::vector<double> fty(dims, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (y[i] == 0.0) continue;
      for (size_t a = 0; a < dims; ++a) fty[a] += features.At(i, a);
    }
    // Project F^T y onto the Gram eigenbasis: p_j = v_j . (F^T y),
    // column-access dot products.
    std::vector<double> projected(dims, 0.0);
    for (size_t j = 0; j < dims; ++j) {
      double dot = 0.0;
      for (size_t i = 0; i < dims; ++i) {
        dot += gram_eigen.vectors.At(i, j) * fty[i];
      }
      projected[j] = dot;
    }
    total_evidence +=
        EvidenceGivenProjection(n, dims, gram_eigen.values, projected, yty);
  }
  return total_evidence / static_cast<double>(num_target);
}


double KnnReference(const Matrix& features, const std::vector<int>& labels,
                    size_t kk) {
  const size_t n = features.rows();
  size_t correct = 0;
  std::vector<std::pair<double, size_t>> distances(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (j == i) {
        distances[j] = {std::numeric_limits<double>::infinity(), j};
        continue;
      }
      double d2 = 0.0;
      for (size_t c = 0; c < features.cols(); ++c) {
        const double diff = features.At(i, c) - features.At(j, c);
        d2 += diff * diff;
      }
      distances[j] = {d2, j};
    }
    if (KnnVoteCorrect(distances, labels, kk, i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace kernels

StatusOr<Matrix> ExtractFeaturesReference(const PretrainedModel& model,
                                          const Dataset& dataset) {
  if (dataset.spec().domain != model.domain()) {
    return Status::InvalidArgument("model " + model.name() +
                                   " cannot embed dataset " + dataset.name());
  }
  const PretrainedModel::HeadParams params = model.ComputeHeadParams(dataset);
  const size_t num_labels =
      static_cast<size_t>(model.spec().num_source_labels);
  const std::vector<double>& soa = model.prototypes_soa();
  std::vector<std::vector<double>> prototypes(
      num_labels, std::vector<double>(latent::kDims));
  for (size_t z = 0; z < num_labels; ++z) {
    for (size_t d = 0; d < latent::kDims; ++d) {
      prototypes[z][d] = soa[d * num_labels + z];
    }
  }
  Matrix logits(dataset.size(), num_labels);
  for (size_t i = 0; i < dataset.size(); ++i) {
    const Example& ex = dataset.examples()[i];
    const size_t routed =
        (static_cast<size_t>(ex.label) + params.route_offset) % num_labels;
    for (size_t z = 0; z < num_labels; ++z) {
      logits.At(i, z) = params.beta * vec::Dot(ex.features, prototypes[z]) +
                        (z == routed ? params.separation : 0.0);
    }
  }
  return logits;
}

StatusOr<Matrix> PredictDistributionsReference(const PretrainedModel& model,
                                               const Dataset& dataset) {
  TPS_ASSIGN_OR_RETURN(Matrix logits, ExtractFeaturesReference(model, dataset));
  Matrix predictions(logits.rows(), logits.cols());
  for (size_t i = 0; i < logits.rows(); ++i) {
    const std::vector<double> probs = vec::Softmax(logits.Row(i));
    for (size_t z = 0; z < logits.cols(); ++z) {
      predictions.At(i, z) = probs[z];
    }
  }
  return predictions;
}

namespace {

class ReferenceScorer : public ProxyScorer {
 public:
  explicit ReferenceScorer(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }

  StatusOr<double> Score(const PretrainedModel& model,
                         const Dataset& target) const override {
    const std::vector<int> labels = TargetLabels(target);
    const int num_labels = target.spec().num_labels;
    if (labels.size() < 2 || num_labels < 2) {
      return Status::InvalidArgument("reference scorer needs n, labels >= 2");
    }
    const size_t num_target = static_cast<size_t>(num_labels);
    if (name_ == "leep" || name_ == "nce") {
      TPS_ASSIGN_OR_RETURN(Matrix predictions,
                           PredictDistributionsReference(model, target));
      return name_ == "leep"
                 ? kernels::LeepReference(predictions, labels, num_target)
                 : kernels::NceReference(predictions, labels, num_target);
    }
    TPS_ASSIGN_OR_RETURN(Matrix features,
                         ExtractFeaturesReference(model, target));
    if (name_ == "logme") {
      return kernels::LogMeReference(features, labels, num_target);
    }
    return kernels::KnnReference(features, labels,
                                 std::min<size_t>(5, labels.size() - 1));
  }

 private:
  std::string name_;
};

}  // namespace

StatusOr<std::unique_ptr<ProxyScorer>> MakeReferenceProxyScorer(
    const std::string& name) {
  if (name != "leep" && name != "nce" && name != "logme" && name != "knn") {
    return Status::InvalidArgument("unknown proxy scorer: " + name);
  }
  return std::unique_ptr<ProxyScorer>(new ReferenceScorer(name));
}

}  // namespace tps
