#ifndef TPS_MODEL_PAPER_ZOO_H_
#define TPS_MODEL_PAPER_ZOO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/model_spec.h"
#include "model/zoo.h"
#include "util/statusor.h"

namespace tps {

/// The tag vocabulary synthetic/generated zoos draw from: architecture
/// families, pre-training corpora and fine-tune tag sets for one domain.
/// The entries mirror the paper zoos and the dataset registry, so
/// lineage -> dataset transfer signal lines up for generated models too.
struct ZooTagVocabulary {
  std::vector<std::string> families;
  std::vector<std::vector<std::string>> corpora;
  std::vector<std::vector<std::string>> finetunes;
};

/// The paper's model repository (Appendix B, Table VIII): 40 NLP models and
/// 30 CV models from HuggingFace, reconstructed as simulator specs.
///
/// Capabilities, pre-training corpora and fine-tuning lineages are assigned
/// from each model's public identity (family, size, fine-tune dataset named
/// in the model id). Lineage groups — e.g. the `bert_ft_qqp-*` family, the
/// `init_bert_ft_qqp-*` family (trained from random init, hence much
/// weaker), BEiT/ViT ImageNet-21k models — share tags and capability so the
/// clustering structure of Table II emerges from the geometry rather than
/// being hard-coded.
std::vector<ModelSpec> NlpPaperZooSpecs();
std::vector<ModelSpec> CvPaperZooSpecs();

/// The domain's paper zoo over the specs above, built once per process
/// (thread-safe static init); every call returns a copy sharing the same
/// models.
StatusOr<ModelZoo> PaperZoo(TaskDomain domain);

/// The domain's tag vocabulary (shared by SyntheticZooSpecs and the
/// parameterized generator in model/zoo_gen.h).
ZooTagVocabulary SyntheticTagVocabulary(TaskDomain domain);

/// Generates a synthetic zoo of `count` models for scaling experiments:
/// random family/capability/fine-tune-dataset combinations over the given
/// domain's tag vocabulary, seeded deterministically.
std::vector<ModelSpec> SyntheticZooSpecs(TaskDomain domain, size_t count,
                                         uint64_t seed);

}  // namespace tps

#endif  // TPS_MODEL_PAPER_ZOO_H_
