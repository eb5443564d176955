#include "model/zoo.h"

#include <unordered_set>

#include "util/logging.h"

namespace tps {

ModelZoo::ModelZoo(std::vector<PretrainedModel> models)
    : models_(std::make_shared<const std::vector<PretrainedModel>>(
          std::move(models))) {}

StatusOr<ModelZoo> ModelZoo::Create(const std::vector<ModelSpec>& specs) {
  std::vector<PretrainedModel> models;
  std::unordered_set<std::string> seen;
  models.reserve(specs.size());
  for (const ModelSpec& spec : specs) {
    if (!seen.insert(spec.name).second) {
      return Status::AlreadyExists("duplicate model name: " + spec.name);
    }
    TPS_ASSIGN_OR_RETURN(PretrainedModel model, PretrainedModel::Create(spec));
    models.push_back(std::move(model));
  }
  return ModelZoo(std::move(models));
}

const std::vector<PretrainedModel>& ModelZoo::models() const {
  static const std::vector<PretrainedModel> kNone;
  return models_ == nullptr ? kNone : *models_;
}

const PretrainedModel& ModelZoo::model(size_t index) const {
  TPS_CHECK(index < size());
  return models()[index];
}

StatusOr<size_t> ModelZoo::IndexOf(const std::string& name) const {
  const std::vector<PretrainedModel>& all = models();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].name() == name) return i;
  }
  return Status::NotFound("model not found: " + name);
}

StatusOr<const PretrainedModel*> ModelZoo::Find(
    const std::string& name) const {
  TPS_ASSIGN_OR_RETURN(size_t index, IndexOf(name));
  return &models()[index];
}

}  // namespace tps
