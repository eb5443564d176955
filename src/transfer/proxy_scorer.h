#ifndef TPS_TRANSFER_PROXY_SCORER_H_
#define TPS_TRANSFER_PROXY_SCORER_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "matrix/matrix.h"
#include "model/pretrained_model.h"
#include "util/statusor.h"

namespace tps {

/// A light-weight transferability proxy: predicts how well `model` would
/// perform after fine-tuning on `target`, *without* fine-tuning. Scores of
/// different models on the same target are comparable (higher is better);
/// scores across targets are not.
///
/// The paper uses LEEP in the coarse-recall phase and cites NCE, kNN and
/// LogME as interchangeable alternates; all four are implemented.
class ProxyScorer {
 public:
  virtual ~ProxyScorer() = default;

  /// Stable scorer identifier ("leep", "nce", "logme", "knn").
  virtual std::string name() const = 0;

  /// Computes the proxy score. Fails if the model and dataset domains
  /// differ.
  virtual StatusOr<double> Score(const PretrainedModel& model,
                                 const Dataset& target) const = 0;
};

/// Constructs a scorer by name; InvalidArgument for unknown names. "leep"
/// and "nce" score the model's predictive distributions on the target,
/// "logme" and "knn" (k = 5) its penultimate-layer features.
StatusOr<std::unique_ptr<ProxyScorer>> MakeProxyScorer(
    const std::string& name);

/// Log Expected Empirical Prediction (Nguyen et al., ICML 2020), computed
/// exactly from source-model predictions:
///
///   P(y, z) = (1/n) sum_i theta_z(x_i) * 1[y_i = y]     (empirical joint)
///   P(y | z) = P(y, z) / P(z)
///   LEEP    = (1/n) sum_i log( sum_z P(y_i | z) * theta_z(x_i) )
///
/// `predictions` is row-stochastic (n examples x Z source labels); `labels`
/// holds target labels in [0, num_target_labels). Returns a value in
/// (-inf, 0]; higher means better transferability.
StatusOr<double> LeepFromPredictions(const Matrix& predictions,
                                     const std::vector<int>& labels,
                                     int num_target_labels);

/// Negative Conditional Entropy (Tran et al., ICCV 2019): uses hard source
/// predictions z_i = argmax_z theta_z(x_i) and scores transferability as
/// -H(Y | Z) under the empirical joint of (y_i, z_i). In [-log|Y|, 0];
/// higher is better.
StatusOr<double> NceFromPredictions(const Matrix& predictions,
                                    const std::vector<int>& labels,
                                    int num_target_labels);

/// LogME (You et al., ICML 2021): the log marginal evidence of a Bayesian
/// linear regression from model features to (one-hot) target labels,
/// maximized over the prior/noise precisions (alpha, beta) by fixed-point
/// iteration, averaged over classes and normalized by the sample count.
/// Higher is better. `features` is n examples x D dimensions; `labels` in
/// [0, num_target_labels).
StatusOr<double> LogMeFromFeatures(const Matrix& features,
                                   const std::vector<int>& labels,
                                   int num_target_labels);

/// kNN proxy (Renggli et al., CVPR 2022): leave-one-out k-nearest-neighbour
/// classification accuracy over the model's features on the target dataset.
/// Approximates post-fine-tuning accuracy directly; in [0, 1], higher is
/// better. More faithful than LEEP but needs the pairwise distance pass the
/// paper calls out as "extra training".
StatusOr<double> KnnLeaveOneOutAccuracy(const Matrix& features,
                                        const std::vector<int>& labels,
                                        int k);

/// The per-example labels of `target`, in example order — the shared
/// second input of every proxy kernel.
std::vector<int> TargetLabels(const Dataset& target);

}  // namespace tps

#endif  // TPS_TRANSFER_PROXY_SCORER_H_
