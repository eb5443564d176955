#include "data/reference_dataset.h"

#include "data/latent.h"
#include "matrix/vector_ops.h"
#include "util/rng.h"

namespace tps {

std::vector<Example> ReferenceExamples(const DatasetSpec& spec) {
  constexpr double kDomainWeight = 0.6;
  constexpr double kLabelWeight = 0.8;
  constexpr double kNoiseWeight = 0.3;

  const uint64_t seed = latent::HashString(spec.name);
  const std::vector<double> domain_vector =
      latent::MixTags(spec.tags, /*noise_scale=*/0.15, /*noise_seed=*/seed);
  std::vector<std::vector<double>> prototypes;
  for (int y = 0; y < spec.num_labels; ++y) {
    prototypes.push_back(latent::LabelVector(seed, y));
  }

  Rng rng(latent::CombineSeeds(seed, latent::HashString("examples")));
  std::vector<Example> examples;
  for (int i = 0; i < spec.num_examples; ++i) {
    const int label = i % spec.num_labels;
    Example ex;
    ex.label = label;
    ex.features.resize(latent::kDims);
    const std::vector<double>& proto = prototypes[static_cast<size_t>(label)];
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

}  // namespace tps
