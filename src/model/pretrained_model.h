#ifndef TPS_MODEL_PRETRAINED_MODEL_H_
#define TPS_MODEL_PRETRAINED_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "matrix/matrix.h"
#include "model/model_spec.h"
#include "util/statusor.h"

namespace tps {

/// A materialized pre-trained model: spec + latent affinity vector +
/// source-label prototypes + a simulated predictive head.
///
/// The predictive head is what the proxy scores (LEEP/NCE/kNN) consume: for
/// a target example x it produces a softmax distribution over the model's
/// source label space. Prediction sharpness scales with
/// capability x domain-alignment (a model produces crisp, consistent
/// activations on in-domain inputs and diffuse ones off-domain), which is
/// the mechanism that makes transferability proxies informative in the real
/// world; see DESIGN.md for the substitution rationale.
class PretrainedModel {
 public:
  /// Builds the model deterministically from its spec. Fails on invalid
  /// specs (empty name, capability outside (0,1), < 2 source labels).
  static StatusOr<PretrainedModel> Create(const ModelSpec& spec);

  const ModelSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  TaskDomain domain() const { return spec_.domain; }

  /// Latent domain-affinity vector (unit norm).
  const std::vector<double>& affinity() const { return affinity_; }

  /// Effective capability: spec capability plus deterministic per-model
  /// jitter, clamped to (0, 1).
  double capability() const { return capability_; }

  /// Deterministic seed derived from the model name.
  uint64_t seed() const { return seed_; }

  /// Cosine similarity between this model's affinity and the dataset's
  /// domain vector, in [-1, 1].
  double DomainCosine(const Dataset& dataset) const;

  /// Softmax predictions of the source head over every example of
  /// `dataset`: an examples x num_source_labels row-stochastic matrix.
  /// Fails if the dataset's task domain differs from the model's (a CV
  /// backbone cannot embed text).
  StatusOr<Matrix> PredictDistributions(const Dataset& dataset) const;

  /// Penultimate-layer activations (the source-head logits) for every
  /// example: an examples x num_source_labels matrix. These are the
  /// "features" consumed by feature-based proxies (LogME, kNN).
  /// PredictDistributions is the row-wise softmax of this matrix.
  ///
  /// The forward pass streams the dimension-major prototypes (see
  /// prototypes_soa()); the differential kernel harness diffs it bit for
  /// bit against the scalar per-example vec::Dot oracle in
  /// tests/transfer/reference_kernels.*.
  StatusOr<Matrix> ExtractFeatures(const Dataset& dataset) const;

  /// The per-(model, dataset) parameters of the simulated head: logit z of
  /// an example with label y is beta * <features, prototype z>, plus
  /// `separation` when z == (y + route_offset) mod num_source_labels.
  struct HeadParams {
    double beta = 0.0;
    double separation = 0.0;
    size_t route_offset = 0;
  };

  /// Deterministic head parameters for `dataset` (a fixed Rng draw order
  /// seeded by the model and the dataset).
  HeadParams ComputeHeadParams(const Dataset& dataset) const;

  /// Source-label prototype directions (unit norm), dimension-major:
  /// element [d * Z + z] is component d of prototype z, with
  /// Z = num_source_labels, so the forward pass accumulates all Z logits
  /// with a contiguous inner loop.
  const std::vector<double>& prototypes_soa() const { return proto_soa_; }

 private:
  PretrainedModel() = default;

  Status CheckDomain(const Dataset& dataset) const;

  ModelSpec spec_;
  uint64_t seed_ = 0;
  double capability_ = 0.0;
  std::vector<double> affinity_;
  std::vector<double> proto_soa_;
};

}  // namespace tps

#endif  // TPS_MODEL_PRETRAINED_MODEL_H_
