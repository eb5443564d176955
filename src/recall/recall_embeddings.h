#ifndef TPS_RECALL_RECALL_EMBEDDINGS_H_
#define TPS_RECALL_RECALL_EMBEDDINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "matrix/matrix.h"
#include "util/statusor.h"

namespace tps {
namespace recall {

/// Hyperparameters of the two-tower embedding trainer ("Recall backends"
/// in DESIGN.md). Persisted with the embeddings so a retrain from the same
/// matrix reproduces the artifact bit for bit.
struct EmbeddingConfig {
  /// Shared embedding dimensionality of both towers.
  size_t dim = 16;
  /// Full-batch gradient-descent epochs.
  int epochs = 300;
  double learning_rate = 0.5;
  /// Softmax temperature on the dot-product logits (Snippet-3 shape:
  /// in-batch softmax over all models).
  double temperature = 0.2;
  /// Temperature of the target distribution softmax(accuracy / tau): lower
  /// concentrates the training signal on each benchmark's best models.
  double accuracy_temperature = 0.05;
  /// L2 penalty on both towers, applied as decoupled decay each epoch.
  /// With only |benchmarks| listwise examples the towers overfit the
  /// simulator's per-pair noise without it (recall@10 on held-out targets
  /// drops ~25% at 0.0 on the CV zoo).
  double weight_decay = 0.03;
  uint64_t seed = 7;
};

/// The trained two-tower recall artifact: a linear dataset tower mapping
/// dataset features onto the shared embedding space, one free embedding
/// per model, and the acc(m) prior — everything the embedding recall
/// backend needs to rank a zoo with dot products instead of per-
/// representative proxy inference.
///
/// Dataset features are phi(d) = [domain_vector(d), 1.0] (the latent
/// domain vector plus a bias slot), so a *novel* target embeds with one
/// dim x (latent+1) matrix-vector product at serve time — no forward
/// passes, no performance-matrix column.
///
/// Immutable once created; shared read-only by every request a serving
/// snapshot answers. Text codec matches the other offline artifacts
/// (line-oriented, util/text_codec.h, lossless round-trip).
class RecallEmbeddings {
 public:
  /// Empty artifact (num_models() == 0); assign from Create / Deserialize.
  RecallEmbeddings() = default;

  /// Validates shapes: `dataset_map` is config.dim x feature_dim,
  /// `model_embeddings` one config.dim vector per model, `prior` and
  /// `model_names` matching the model count.
  static StatusOr<RecallEmbeddings> Create(
      const EmbeddingConfig& config, Matrix dataset_map,
      std::vector<std::vector<double>> model_embeddings,
      std::vector<double> prior, std::vector<std::string> model_names);

  const EmbeddingConfig& config() const { return config_; }
  size_t dim() const { return config_.dim; }
  /// Dataset-feature width the map was trained for (latent dims + bias).
  size_t feature_dim() const { return dataset_map_.cols(); }
  size_t num_models() const { return model_names_.size(); }
  const std::vector<std::string>& model_names() const { return model_names_; }
  /// acc(m): average benchmark accuracy, zoo order (the Eq. 2 prior).
  const std::vector<double>& prior() const { return prior_; }
  const Matrix& dataset_map() const { return dataset_map_; }
  const std::vector<std::vector<double>>& model_embeddings() const {
    return model_embeddings_;
  }

  /// phi(d) = [domain_vector, 1.0]; InvalidArgument when the dataset's
  /// latent width does not match the trained map.
  StatusOr<std::vector<double>> DatasetFeatures(const Dataset& target) const;

  /// The dataset-tower embedding u = W * phi(target).
  StatusOr<std::vector<double>> EmbedDataset(const Dataset& target) const;

  /// Raw two-tower affinity: dot(query, v_model).
  double Score(const std::vector<double>& query, size_t model_index) const;

  /// Line-oriented text codec: doubles at 17 significant digits, written
  /// and read through util/text_codec.h. Lossless:
  /// Deserialize(Serialize()) reproduces the artifact bit for bit.
  std::string Serialize() const;
  static StatusOr<RecallEmbeddings> Deserialize(std::string_view text);

 private:
  EmbeddingConfig config_;
  Matrix dataset_map_;  // dim x feature_dim.
  std::vector<std::vector<double>> model_embeddings_;  // num_models x dim.
  std::vector<double> prior_;
  std::vector<std::string> model_names_;
};

}  // namespace recall
}  // namespace tps

#endif  // TPS_RECALL_RECALL_EMBEDDINGS_H_
