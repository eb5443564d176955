#include "transfer/proxy_scorer.h"

#include <algorithm>

#include "transfer/kernels.h"

namespace tps {

namespace {

// The input checks LEEP, NCE and LogME share: a non-empty n x D `input`
// ("prediction" or "feature" matrix), one label per row, and labels in
// [0, num_target_labels) with at least two classes. The kernels assume
// all of it.
Status CheckLabeledMatrix(const std::string& proxy, const std::string& input,
                          const Matrix& m, const std::vector<int>& labels,
                          int num_target_labels) {
  if (m.rows() == 0 || m.cols() == 0) {
    return Status::InvalidArgument(proxy + " needs a non-empty " + input +
                                   " matrix");
  }
  if (labels.size() != m.rows()) {
    return Status::InvalidArgument(proxy + " labels/" + input +
                                   "s size mismatch");
  }
  if (num_target_labels < 2) {
    return Status::InvalidArgument(proxy + " needs at least 2 target labels");
  }
  for (int y : labels) {
    if (y < 0 || y >= num_target_labels) {
      return Status::OutOfRange(proxy + " label out of range");
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<double> LeepFromPredictions(const Matrix& predictions,
                                     const std::vector<int>& labels,
                                     int num_target_labels) {
  TPS_RETURN_NOT_OK(CheckLabeledMatrix("LEEP", "prediction", predictions,
                                       labels, num_target_labels));
  return kernels::LeepBatched(predictions, labels,
                              static_cast<size_t>(num_target_labels));
}

StatusOr<double> NceFromPredictions(const Matrix& predictions,
                                    const std::vector<int>& labels,
                                    int num_target_labels) {
  TPS_RETURN_NOT_OK(CheckLabeledMatrix("NCE", "prediction", predictions,
                                       labels, num_target_labels));
  return kernels::NceBatched(predictions, labels,
                             static_cast<size_t>(num_target_labels));
}

StatusOr<double> LogMeFromFeatures(const Matrix& features,
                                   const std::vector<int>& labels,
                                   int num_target_labels) {
  TPS_RETURN_NOT_OK(CheckLabeledMatrix("LogME", "feature", features, labels,
                                       num_target_labels));
  return kernels::LogMeBatched(features, labels,
                               static_cast<size_t>(num_target_labels));
}

StatusOr<double> KnnLeaveOneOutAccuracy(const Matrix& features,
                                        const std::vector<int>& labels,
                                        int k) {
  const size_t n = features.rows();
  if (n < 2) {
    return Status::InvalidArgument("kNN needs at least 2 examples");
  }
  if (labels.size() != n) {
    return Status::InvalidArgument("kNN labels/features size mismatch");
  }
  if (k < 1) {
    return Status::InvalidArgument("kNN needs k >= 1");
  }
  const size_t kk = std::min<size_t>(static_cast<size_t>(k), n - 1);
  return kernels::KnnBatched(features, labels, kk);
}

namespace {

// The scorers obtain the model's predictive distributions (LEEP, NCE) or
// penultimate-layer features (LogME, kNN) on the target from the
// simulated head and apply the matching validating function.

class LeepScorer : public ProxyScorer {
 public:
  std::string name() const override { return "leep"; }
  StatusOr<double> Score(const PretrainedModel& model,
                         const Dataset& target) const override {
    TPS_ASSIGN_OR_RETURN(Matrix predictions,
                         model.PredictDistributions(target));
    return LeepFromPredictions(predictions, TargetLabels(target),
                               target.spec().num_labels);
  }
};

class NceScorer : public ProxyScorer {
 public:
  std::string name() const override { return "nce"; }
  StatusOr<double> Score(const PretrainedModel& model,
                         const Dataset& target) const override {
    TPS_ASSIGN_OR_RETURN(Matrix predictions,
                         model.PredictDistributions(target));
    return NceFromPredictions(predictions, TargetLabels(target),
                              target.spec().num_labels);
  }
};

class LogMeScorer : public ProxyScorer {
 public:
  std::string name() const override { return "logme"; }
  StatusOr<double> Score(const PretrainedModel& model,
                         const Dataset& target) const override {
    TPS_ASSIGN_OR_RETURN(Matrix features, model.ExtractFeatures(target));
    return LogMeFromFeatures(features, TargetLabels(target),
                             target.spec().num_labels);
  }
};

// One k for every caller: the cache and flight key names the scorer
// "knn" whatever k is, so a second k would share entries with the first.
class KnnScorer : public ProxyScorer {
 public:
  static constexpr int kNeighbors = 5;
  std::string name() const override { return "knn"; }
  StatusOr<double> Score(const PretrainedModel& model,
                         const Dataset& target) const override {
    TPS_ASSIGN_OR_RETURN(Matrix features, model.ExtractFeatures(target));
    return KnnLeaveOneOutAccuracy(features, TargetLabels(target),
                                  kNeighbors);
  }
};

}  // namespace

StatusOr<std::unique_ptr<ProxyScorer>> MakeProxyScorer(
    const std::string& name) {
  if (name == "leep") return std::unique_ptr<ProxyScorer>(new LeepScorer());
  if (name == "nce") return std::unique_ptr<ProxyScorer>(new NceScorer());
  if (name == "logme") return std::unique_ptr<ProxyScorer>(new LogMeScorer());
  if (name == "knn") return std::unique_ptr<ProxyScorer>(new KnnScorer());
  return Status::InvalidArgument("unknown proxy scorer: " + name);
}

std::vector<int> TargetLabels(const Dataset& target) {
  const std::vector<Example>& examples = target.examples();
  std::vector<int> labels(examples.size());
  for (size_t i = 0; i < examples.size(); ++i) {
    labels[i] = examples[i].label;
  }
  return labels;
}

}  // namespace tps
