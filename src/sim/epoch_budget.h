#ifndef TPS_SIM_EPOCH_BUDGET_H_
#define TPS_SIM_EPOCH_BUDGET_H_

namespace tps {

/// Cost meter in fine-tuning *epochs*, the unit all the paper's runtime
/// tables (V, VI) are reported in.
///
/// Training charges whole epochs. Proxy-score computation (forward-only
/// inference over the target dataset) charges 0.5 epoch-equivalents per
/// scored model, matching the paper's accounting for the coarse-recall
/// phase ("we count the computation time as 0.5 * |MC| epochs because the
/// inference does not need to compute gradients").
class EpochBudget {
 public:
  /// Charges `epochs` of fine-tuning.
  void ChargeTraining(double epochs) { training_epochs_ += epochs; }

  /// Charges inference for one proxy-score computation (0.5 epochs).
  void ChargeProxyInference() { inference_epochs_ += 0.5; }

  double training_epochs() const { return training_epochs_; }
  double inference_epochs() const { return inference_epochs_; }
  double total_epochs() const { return training_epochs_ + inference_epochs_; }

  bool operator==(const EpochBudget&) const = default;

  void Reset() {
    training_epochs_ = 0.0;
    inference_epochs_ = 0.0;
  }

 private:
  double training_epochs_ = 0.0;
  double inference_epochs_ = 0.0;
};

}  // namespace tps

#endif  // TPS_SIM_EPOCH_BUDGET_H_
