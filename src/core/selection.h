#ifndef TPS_CORE_SELECTION_H_
#define TPS_CORE_SELECTION_H_

#include <cstddef>
#include <vector>

namespace tps {

/// Result of a model-selection run on a target dataset (any strategy).
struct SelectionOutcome {
  /// Zoo index of the selected model.
  size_t selected_model = 0;
  /// Final test accuracy of the selected model after its full fine-tune on
  /// the target.
  double selected_accuracy = 0.0;
  /// Training epochs charged by the selection (proxy inference is tracked
  /// separately in the EpochBudget).
  double training_epochs = 0.0;
  /// Candidate-set size at the start of each training stage (stage =
  /// epoch), e.g. {10, 5, 2, 1, 1} for successive halving of 10 models
  /// over 5 epochs.
  std::vector<size_t> survivors_per_stage;

  bool operator==(const SelectionOutcome&) const = default;
};

}  // namespace tps

#endif  // TPS_CORE_SELECTION_H_
