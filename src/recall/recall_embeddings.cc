#include "recall/recall_embeddings.h"

#include <utility>

#include "util/text_codec.h"

namespace tps {
namespace recall {

namespace {

Status ValidateConfig(const EmbeddingConfig& config) {
  if (config.dim == 0) {
    return Status::InvalidArgument("embedding dim must be >= 1");
  }
  if (config.epochs < 1) {
    return Status::InvalidArgument("embedding epochs must be >= 1");
  }
  if (config.learning_rate <= 0.0) {
    return Status::InvalidArgument("embedding learning_rate must be > 0");
  }
  if (config.temperature <= 0.0 || config.accuracy_temperature <= 0.0) {
    return Status::InvalidArgument("embedding temperatures must be > 0");
  }
  if (config.weight_decay < 0.0) {
    return Status::InvalidArgument("embedding weight_decay must be >= 0");
  }
  return Status::OK();
}

}  // namespace

StatusOr<RecallEmbeddings> RecallEmbeddings::Create(
    const EmbeddingConfig& config, Matrix dataset_map,
    std::vector<std::vector<double>> model_embeddings,
    std::vector<double> prior, std::vector<std::string> model_names) {
  TPS_RETURN_NOT_OK(ValidateConfig(config));
  if (dataset_map.rows() != config.dim || dataset_map.cols() == 0) {
    return Status::InvalidArgument(
        "dataset map must be dim x feature_dim and non-empty");
  }
  if (model_embeddings.empty()) {
    return Status::InvalidArgument("embeddings need at least one model");
  }
  for (const std::vector<double>& v : model_embeddings) {
    if (v.size() != config.dim) {
      return Status::InvalidArgument(
          "model embedding width does not match the configured dim");
    }
  }
  if (prior.size() != model_embeddings.size() ||
      model_names.size() != model_embeddings.size()) {
    return Status::InvalidArgument(
        "prior and model_names must match the model count");
  }
  for (const std::string& name : model_names) {
    if (name.empty()) {
      return Status::InvalidArgument("model names must be non-empty");
    }
  }
  RecallEmbeddings embeddings;
  embeddings.config_ = config;
  embeddings.dataset_map_ = std::move(dataset_map);
  embeddings.model_embeddings_ = std::move(model_embeddings);
  embeddings.prior_ = std::move(prior);
  embeddings.model_names_ = std::move(model_names);
  return embeddings;
}

StatusOr<std::vector<double>> RecallEmbeddings::DatasetFeatures(
    const Dataset& target) const {
  const std::vector<double>& domain = target.domain_vector();
  if (domain.size() + 1 != feature_dim()) {
    return Status::InvalidArgument(
        "target latent width does not match the trained dataset map");
  }
  std::vector<double> features = domain;
  features.push_back(1.0);  // Bias slot.
  return features;
}

StatusOr<std::vector<double>> RecallEmbeddings::EmbedDataset(
    const Dataset& target) const {
  TPS_ASSIGN_OR_RETURN(std::vector<double> features, DatasetFeatures(target));
  std::vector<double> query(config_.dim, 0.0);
  for (size_t r = 0; r < config_.dim; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < features.size(); ++c) {
      sum += dataset_map_.At(r, c) * features[c];
    }
    query[r] = sum;
  }
  return query;
}

double RecallEmbeddings::Score(const std::vector<double>& query,
                               size_t model_index) const {
  const std::vector<double>& v = model_embeddings_[model_index];
  double dot = 0.0;
  for (size_t d = 0; d < v.size(); ++d) dot += query[d] * v[d];
  return dot;
}

std::string RecallEmbeddings::Serialize() const {
  text::TextWriter out;
  out << "tps-recall-embeddings v1\n";
  out << num_models() << ' ' << config_.dim << ' ' << feature_dim() << '\n';
  out << config_.epochs << ' ' << config_.learning_rate << ' '
      << config_.temperature << ' ' << config_.accuracy_temperature << ' '
      << config_.weight_decay << ' ' << config_.seed << '\n';
  for (const std::string& name : model_names_) out << name << '\n';
  for (double p : prior_) out << p << ' ';
  out << '\n';
  for (size_t r = 0; r < dataset_map_.rows(); ++r) {
    for (size_t c = 0; c < dataset_map_.cols(); ++c) {
      out << dataset_map_.At(r, c) << ' ';
    }
    out << '\n';
  }
  for (const std::vector<double>& v : model_embeddings_) {
    for (double x : v) out << x << ' ';
    out << '\n';
  }
  return out.Take();
}

StatusOr<RecallEmbeddings> RecallEmbeddings::Deserialize(
    std::string_view text) {
  text::TextCursor in(text);
  std::string_view header;
  in.Line(&header);
  if (header != "tps-recall-embeddings v1") {
    return Status::InvalidArgument("bad recall embeddings header");
  }
  size_t n = 0, dim = 0, feature_dim = 0;
  // The n names, n x dim embeddings and dim x feature_dim map entries take
  // at least a byte each, so counts the text cannot hold are malformed
  // (and would otherwise size huge buffers).
  if (!in.ReadAll(&n, &dim, &feature_dim) || n == 0 || dim == 0 ||
      feature_dim == 0 || n > text.size() || dim > text.size() / n ||
      feature_dim > text.size() / dim) {
    return Status::InvalidArgument("bad recall embeddings dimensions");
  }
  EmbeddingConfig config;
  config.dim = dim;
  if (!in.ReadAll(&config.epochs, &config.learning_rate, &config.temperature,
                  &config.accuracy_temperature, &config.weight_decay,
                  &config.seed)) {
    return Status::InvalidArgument("bad recall embeddings config");
  }
  in.SkipOne();
  std::vector<std::string> model_names(n);
  for (std::string& name : model_names) {
    std::string_view line;
    if (!in.Line(&line) || line.empty()) {
      return Status::InvalidArgument("truncated recall embeddings names");
    }
    name = line;
  }
  const auto truncated = [] {
    return Status::InvalidArgument("truncated recall embeddings");
  };
  std::vector<double> prior(n);
  for (double& p : prior) {
    if (!in.Read(&p)) return truncated();
  }
  Matrix dataset_map(dim, feature_dim);
  for (size_t r = 0; r < dim; ++r) {
    for (size_t c = 0; c < feature_dim; ++c) {
      if (!in.Read(&dataset_map.At(r, c))) return truncated();
    }
  }
  std::vector<std::vector<double>> model_embeddings(
      n, std::vector<double>(dim, 0.0));
  for (std::vector<double>& v : model_embeddings) {
    for (double& x : v) {
      if (!in.Read(&x)) return truncated();
    }
  }
  return Create(config, std::move(dataset_map), std::move(model_embeddings),
                std::move(prior), std::move(model_names));
}

}  // namespace recall
}  // namespace tps
