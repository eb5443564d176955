#include "data/dataset.h"

#include "data/latent.h"
#include "matrix/vector_ops.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace tps {

namespace {
// Mixture weights for example generation. The label component dominates so
// that class structure is linearly salient, mirroring the embedding spaces
// real pre-trained encoders produce.
constexpr double kDomainWeight = 0.6;
constexpr double kLabelWeight = 0.8;
constexpr double kNoiseWeight = 0.3;

std::vector<Example> GenerateExamples(
    const DatasetSpec& spec, uint64_t seed,
    const std::vector<double>& domain_vector,
    const std::vector<std::vector<double>>& label_prototypes) {
  Rng rng(latent::CombineSeeds(seed, latent::HashString("examples")));
  std::vector<Example> examples;
  examples.reserve(static_cast<size_t>(spec.num_examples));
  for (int i = 0; i < spec.num_examples; ++i) {
    // Round-robin labels so every class is populated even for small sample
    // counts; real proxy-score sampling is stratified the same way.
    const int label = i % spec.num_labels;
    Example ex;
    ex.label = label;
    ex.features.resize(latent::kDims);
    const std::vector<double>& proto =
        label_prototypes[static_cast<size_t>(label)];
    // Per-example idiosyncratic direction (unit norm, then scaled), so the
    // noise weight is relative to the unit-norm signal components. Harder
    // datasets have noisier examples.
    const double noise_scale = kNoiseWeight * (0.6 + 0.8 * spec.difficulty);
    std::vector<double> noise(latent::kDims);
    for (double& v : noise) v = rng.Normal();
    vec::NormalizeInPlace(noise);
    for (size_t d = 0; d < latent::kDims; ++d) {
      ex.features[d] = kDomainWeight * domain_vector[d] +
                       kLabelWeight * proto[d] + noise_scale * noise[d];
    }
    vec::NormalizeInPlace(ex.features);
    examples.push_back(std::move(ex));
  }
  return examples;
}

}  // namespace

StatusOr<Dataset> Dataset::Create(const DatasetSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  if (spec.num_labels < 2) {
    return Status::InvalidArgument("dataset " + spec.name +
                                   " needs at least 2 labels");
  }
  if (spec.num_examples <= 0) {
    return Status::InvalidArgument("dataset " + spec.name +
                                   " needs at least 1 example");
  }
  if (spec.difficulty < 0.0 || spec.difficulty > 1.0) {
    return Status::InvalidArgument("dataset " + spec.name +
                                   " difficulty must be in [0, 1]");
  }

  Dataset ds;
  ds.spec_ = spec;
  ds.seed_ = latent::HashString(spec.name);
  ds.domain_vector_ = latent::MixTags(spec.tags, /*noise_scale=*/0.15,
                                      /*noise_seed=*/ds.seed_);

  ds.label_prototypes_.reserve(static_cast<size_t>(spec.num_labels));
  for (int y = 0; y < spec.num_labels; ++y) {
    ds.label_prototypes_.push_back(latent::LabelVector(ds.seed_, y));
  }

  ds.examples_ = std::make_shared<LazyExamples>();
  return ds;
}

const std::vector<Example>& Dataset::examples() const {
  static const std::vector<Example> kNone;
  if (examples_ == nullptr) return kNone;  // Moved-from.
  std::call_once(examples_->once, [this] {
    examples_->examples =
        GenerateExamples(spec_, seed_, domain_vector_, label_prototypes_);
    MetricsRegistry::Default()->counter("data.examples_built").Increment();
  });
  return examples_->examples;
}

std::string ToString(TaskDomain domain) {
  return domain == TaskDomain::kNLP ? "NLP" : "CV";
}

std::string ToString(DatasetRole role) {
  return role == DatasetRole::kBenchmark ? "benchmark" : "target";
}

}  // namespace tps
