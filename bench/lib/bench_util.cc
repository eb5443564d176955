#include "bench/lib/bench_util.h"

#include <algorithm>
#include <thread>

#include "data/latent.h"
#include "model/paper_zoo.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tps {

int DefaultThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<const Dataset*> Targets(const DatasetRegistry& registry,
                                    TaskDomain domain) {
  std::vector<const Dataset*> out;
  for (const Dataset& ds : registry.datasets()) {
    if (ds.spec().domain == domain && ds.spec().role == DatasetRole::kTarget) {
      out.push_back(&ds);
    }
  }
  return out;
}

std::vector<std::string> AvailableBackends(
    const recall::RecallBackendSet& backends) {
  std::vector<std::string> names;
  for (const std::string& name : recall::RecallBackendNames()) {
    if (backends.Find(name).ok()) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

namespace {

ModelSpec M(std::string name, TaskDomain domain, std::string family,
            double scale, double capability,
            std::vector<std::string> pretrain_tags,
            std::vector<std::string> finetune_tags, double ft_strength,
            int num_source_labels, std::string description) {
  ModelSpec spec;
  spec.name = std::move(name);
  spec.domain = domain;
  spec.family = std::move(family);
  spec.scale_millions = scale;
  spec.capability = capability;
  spec.pretrain_tags = std::move(pretrain_tags);
  spec.finetune_tags = std::move(finetune_tags);
  spec.finetune_strength = ft_strength;
  spec.num_source_labels = num_source_labels;
  spec.description = std::move(description);
  return spec;
}

}  // namespace

std::vector<ModelSpec> SyntheticZooSpecs(TaskDomain domain, size_t count,
                                         uint64_t seed) {
  Rng rng(latent::CombineSeeds(seed, latent::HashString("synthetic-zoo")));
  const bool nlp = domain == TaskDomain::kNLP;
  const ZooTagVocabulary vocab = SyntheticTagVocabulary(domain);
  const std::vector<std::string>& families = vocab.families;
  const std::vector<std::vector<std::string>>& corpora = vocab.corpora;
  const std::vector<std::vector<std::string>>& finetunes = vocab.finetunes;

  std::vector<ModelSpec> specs;
  specs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const std::string family = families[rng.UniformInt(families.size())];
    const auto& corpus = corpora[rng.UniformInt(corpora.size())];
    const auto& ft = finetunes[rng.UniformInt(finetunes.size())];
    // Capability distribution is skewed low: most repository models are
    // mediocre, a few are strong (the Fig. 1 shape).
    const double u = rng.Uniform();
    const double capability = 0.35 + 0.5 * u * u;
    ModelSpec spec = M(
        strings::Format("synthetic/%s-%s-%zu", nlp ? "nlp" : "cv",
                        family.c_str(), i),
        domain, family, rng.Uniform(10.0, 350.0), capability, corpus, ft,
        ft.empty() ? 0.0 : 0.5,
        ft.empty() ? 16 : static_cast<int>(2 + rng.UniformInt(8)),
        "Synthetic zoo member for scaling experiments.");
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace tps
