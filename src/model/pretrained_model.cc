#include "model/pretrained_model.h"

#include <cmath>

#include "data/latent.h"
#include "matrix/vector_ops.h"
#include "util/rng.h"
#include "util/stats.h"

namespace tps {

namespace {
// Affinity mixture weights.
constexpr double kPretrainWeight = 0.7;
constexpr double kModelNoiseWeight = 0.10;
// Predictive-head geometry: source prototypes mirror the dataset example
// mixture so that cross dot-products carry label signal.
constexpr double kHeadAffinityWeight = 0.45;
constexpr double kHeadLabelWeight = 0.9;
// Sharpness = kBetaBase + kBetaScale * capability * max(0, domain cosine),
// times a per-(model, dataset) idiosyncratic log-normal factor.
constexpr double kBetaBase = 2.0;
constexpr double kBetaScale = 36.0;
constexpr double kBetaIdiosyncrasy = 0.10;
// Class-separation term: a transferable model's representation clusters
// target examples by their true class (the empirical regularity LEEP, kNN
// and LogME all exploit). Each target label y is routed to a fixed,
// model-specific source label sigma(y); the routing logit scales with
// capability * alignment.
constexpr double kSeparationScale = 7.0;
constexpr double kSeparationIdiosyncrasy = 0.12;
}  // namespace

StatusOr<PretrainedModel> PretrainedModel::Create(const ModelSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("model name must not be empty");
  }
  if (spec.capability <= 0.0 || spec.capability >= 1.0) {
    return Status::InvalidArgument("model " + spec.name +
                                   " capability must be in (0, 1)");
  }
  if (spec.num_source_labels < 2) {
    return Status::InvalidArgument("model " + spec.name +
                                   " needs at least 2 source labels");
  }
  if (spec.finetune_strength < 0.0 || spec.finetune_strength > 1.0) {
    return Status::InvalidArgument("model " + spec.name +
                                   " finetune_strength must be in [0, 1]");
  }

  PretrainedModel model;
  model.spec_ = spec;
  model.seed_ = latent::HashString(spec.name);

  Rng jitter_rng(latent::CombineSeeds(model.seed_,
                                      latent::HashString("capability")));
  model.capability_ =
      stats::Clamp(spec.capability + 0.02 * jitter_rng.Normal(), 0.05, 0.98);

  // Affinity: pretraining direction + optional fine-tune direction +
  // per-model idiosyncratic noise. The architecture family contributes its
  // own direction (inductive biases shape a model's transfer profile —
  // PoolFormers transfer alike, ViTs alike), which is what lets family
  // groups co-cluster in Table II even without a shared fine-tune dataset.
  std::vector<std::string> base_tags = spec.pretrain_tags;
  base_tags.push_back("family-" + spec.family);
  std::vector<double> base = latent::MixTags(
      base_tags, /*noise_scale=*/0.08,
      latent::CombineSeeds(model.seed_, latent::HashString("pretrain")));
  std::vector<double> affinity = vec::Scale(base, kPretrainWeight);
  if (!spec.finetune_tags.empty() && spec.finetune_strength > 0.0) {
    std::vector<double> ft = latent::MixTags(
        spec.finetune_tags, /*noise_scale=*/0.08,
        latent::CombineSeeds(model.seed_, latent::HashString("finetune")));
    affinity = vec::Add(affinity, vec::Scale(ft, spec.finetune_strength));
  }
  Rng noise_rng(latent::CombineSeeds(model.seed_,
                                     latent::HashString("affinity-noise")));
  std::vector<double> idio(latent::kDims);
  for (double& v : idio) v = noise_rng.Normal();
  vec::NormalizeInPlace(idio);
  for (size_t i = 0; i < latent::kDims; ++i) {
    affinity[i] += kModelNoiseWeight * idio[i];
  }
  vec::NormalizeInPlace(affinity);
  model.affinity_ = std::move(affinity);

  // Head prototype z = affinity-anchored + label-specific direction, the
  // same mixture shape as dataset examples, stored dimension-major for the
  // forward pass.
  const size_t num_protos = static_cast<size_t>(spec.num_source_labels);
  model.proto_soa_.resize(latent::kDims * num_protos);
  std::vector<double> psi(latent::kDims);
  for (size_t z = 0; z < num_protos; ++z) {
    const std::vector<double> proto = latent::LabelVector(
        latent::CombineSeeds(model.seed_, latent::HashString("head")),
        static_cast<int>(z));
    for (size_t d = 0; d < latent::kDims; ++d) {
      psi[d] = kHeadAffinityWeight * model.affinity_[d] +
               kHeadLabelWeight * proto[d];
    }
    vec::NormalizeInPlace(psi);
    for (size_t d = 0; d < latent::kDims; ++d) {
      model.proto_soa_[d * num_protos + z] = psi[d];
    }
  }
  return model;
}

double PretrainedModel::DomainCosine(const Dataset& dataset) const {
  return vec::CosineSimilarity(affinity_, dataset.domain_vector());
}

Status PretrainedModel::CheckDomain(const Dataset& dataset) const {
  if (dataset.spec().domain != spec_.domain) {
    return Status::InvalidArgument(
        "model " + spec_.name + " (" + ToString(spec_.domain) +
        ") cannot embed dataset " + dataset.name() + " (" +
        ToString(dataset.spec().domain) + ")");
  }
  return Status::OK();
}

PretrainedModel::HeadParams PretrainedModel::ComputeHeadParams(
    const Dataset& dataset) const {
  // Smooth alignment curve: even an off-domain (cos ~ 0) model extracts
  // somewhat-discriminative features if it is capable; a strongly
  // misaligned one does not.
  const double align =
      std::pow(latent::AffinityFromCosine(DomainCosine(dataset)), 2.0);
  Rng rng(latent::CombineSeeds(seed_, dataset.seed()));
  const double idiosyncrasy = std::exp(kBetaIdiosyncrasy * rng.Normal());
  HeadParams params;
  params.beta = (kBetaBase + kBetaScale * capability_ * align) * idiosyncrasy;
  params.separation = kSeparationScale * capability_ * align *
                      std::exp(kSeparationIdiosyncrasy * rng.Normal());
  // Model-specific routing of target labels onto source labels. The offset
  // is a deterministic function of (model, dataset) so predictions stay
  // consistent across calls.
  params.route_offset =
      rng.Next() % static_cast<size_t>(spec_.num_source_labels);
  return params;
}

StatusOr<Matrix> PretrainedModel::ExtractFeatures(
    const Dataset& dataset) const {
  TPS_RETURN_NOT_OK(CheckDomain(dataset));
  const HeadParams params = ComputeHeadParams(dataset);
  const size_t num_labels = static_cast<size_t>(spec_.num_source_labels);

  // SoA forward pass: the reduction dimension d is the OUTER loop, the Z
  // independent accumulators the inner one, streaming the dimension-major
  // prototype rows contiguously. Each logit still accumulates its d terms
  // in ascending order — exactly vec::Dot's order — so the result is
  // bit-identical to the per-example vec::Dot loop.
  const std::vector<Example>& examples = dataset.examples();
  Matrix logits(examples.size(), num_labels);
  double* out = logits.data().data();
  std::vector<double> acc(num_labels);
  for (size_t i = 0; i < examples.size(); ++i) {
    const Example& ex = examples[i];
    const double* features = ex.features.data();
    std::fill(acc.begin(), acc.end(), 0.0);
    for (size_t d = 0; d < latent::kDims; ++d) {
      const double f = features[d];
      const double* proto_row = proto_soa_.data() + d * num_labels;
      for (size_t z = 0; z < num_labels; ++z) acc[z] += f * proto_row[z];
    }
    const size_t routed =
        (static_cast<size_t>(ex.label) + params.route_offset) % num_labels;
    double* row = out + i * num_labels;
    for (size_t z = 0; z < num_labels; ++z) {
      row[z] = params.beta * acc[z] + (z == routed ? params.separation : 0.0);
    }
  }
  return logits;
}

StatusOr<Matrix> PretrainedModel::PredictDistributions(
    const Dataset& dataset) const {
  TPS_ASSIGN_OR_RETURN(Matrix logits, ExtractFeatures(dataset));
  // In-place row softmax: same max-subtraction/exp/normalize order as
  // vec::Softmax, minus the two per-row allocations.
  double* data = logits.data().data();
  const size_t cols = logits.cols();
  for (size_t i = 0; i < logits.rows(); ++i) {
    vec::SoftmaxInPlace(data + i * cols, cols);
  }
  return logits;
}

}  // namespace tps
