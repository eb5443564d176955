#ifndef TPS_MODEL_ZOO_H_
#define TPS_MODEL_ZOO_H_

#include <memory>
#include <string>
#include <vector>

#include "model/pretrained_model.h"
#include "util/statusor.h"

namespace tps {

/// The model repository M = {m_1, ..., m_n}: an ordered, immutable
/// collection of pre-trained models with name lookup. Model indices within
/// a zoo are the model ids used by the performance matrix and clustering.
/// The models live behind a shared pointer: copying a zoo bumps a refcount
/// and shares the same PretrainedModel objects. A default-constructed or
/// moved-from zoo is empty.
class ModelZoo {
 public:
  ModelZoo() = default;

  /// Materializes all specs. Fails on duplicate names or invalid specs.
  static StatusOr<ModelZoo> Create(const std::vector<ModelSpec>& specs);

  const std::vector<PretrainedModel>& models() const;
  size_t size() const { return models_ == nullptr ? 0 : models_->size(); }

  const PretrainedModel& model(size_t index) const;

  /// Index lookup by model name; NotFound if absent.
  StatusOr<size_t> IndexOf(const std::string& name) const;

  /// Pointer lookup by model name; NotFound if absent. The pointer stays
  /// valid while any copy of the zoo lives.
  StatusOr<const PretrainedModel*> Find(const std::string& name) const;

  /// A sub-zoo containing only the models at `indices` (in that order).
  StatusOr<ModelZoo> Subset(const std::vector<size_t>& indices) const;

 private:
  explicit ModelZoo(std::vector<PretrainedModel> models);

  std::shared_ptr<const std::vector<PretrainedModel>> models_;
};

}  // namespace tps

#endif  // TPS_MODEL_ZOO_H_
