#include "model/zoo_gen.h"

#include <algorithm>
#include <utility>

#include "data/latent.h"
#include "model/paper_zoo.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tps {

namespace {

/// One lineage: the shared identity its members inherit.
struct Lineage {
  std::string family;
  size_t corpus = 0;
  size_t finetune = 0;
  double capability = 0.5;
  double scale_millions = 100.0;
  int num_source_labels = 16;
};

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

/// Skewed-low capability draw (the Fig. 1 shape): most repository models
/// are mediocre, a few are strong. Same expression as the benches'
/// SyntheticZooSpecs (bench/lib/bench_util.h).
double DrawCapability(Rng& rng) {
  const double u = rng.Uniform();
  return 0.35 + 0.5 * u * u;
}

}  // namespace

StatusOr<std::vector<ModelSpec>> GenerateZooSpecs(const ZooGenSpec& spec) {
  if (spec.num_models == 0) {
    return Status::InvalidArgument("zoo-gen needs num_models >= 1");
  }
  if (spec.singleton_fraction < 0.0 || spec.singleton_fraction > 1.0) {
    return Status::InvalidArgument(
        "singleton_fraction must be in [0, 1]");
  }
  if (spec.capability_jitter < 0.0) {
    return Status::InvalidArgument("capability_jitter must be >= 0");
  }
  if (spec.name_prefix.empty()) {
    return Status::InvalidArgument("name_prefix must not be empty");
  }
  if (spec.num_lineages > spec.num_models) {
    return Status::InvalidArgument(
        "num_lineages must not exceed num_models");
  }

  const size_t num_lineages =
      spec.num_lineages != 0
          ? spec.num_lineages
          : std::max<size_t>(1, spec.num_models / 12);
  const bool nlp = spec.domain == TaskDomain::kNLP;
  const ZooTagVocabulary vocab = SyntheticTagVocabulary(spec.domain);

  // One generator, drawn from strictly sequentially: generation is
  // single-threaded by construction, so the output is a pure function of
  // the spec regardless of any --threads the caller uses downstream.
  Rng rng(latent::CombineSeeds(
      spec.seed, latent::HashString("zoo-gen/" + spec.name_prefix)));

  std::vector<Lineage> lineages(num_lineages);
  std::vector<double> weights(num_lineages);
  for (size_t l = 0; l < num_lineages; ++l) {
    Lineage& lineage = lineages[l];
    lineage.family = vocab.families[rng.UniformInt(vocab.families.size())];
    lineage.corpus = rng.UniformInt(vocab.corpora.size());
    lineage.finetune = rng.UniformInt(vocab.finetunes.size());
    lineage.capability = DrawCapability(rng);
    lineage.scale_millions = rng.Uniform(10.0, 350.0);
    lineage.num_source_labels =
        static_cast<int>(2 + rng.UniformInt(30));
    // Popularity is skewed too: a few base checkpoints attract most of
    // the fine-tunes.
    const double w = rng.Uniform();
    weights[l] = 0.1 + w * w;
  }

  std::vector<ModelSpec> specs;
  specs.reserve(spec.num_models);
  for (size_t i = 0; i < spec.num_models; ++i) {
    ModelSpec model;
    model.domain = spec.domain;
    model.description = "Generated zoo member (zoo-gen).";
    if (rng.Bernoulli(spec.singleton_fraction)) {
      // A one-off: fresh identity, correlated with nothing.
      model.family = vocab.families[rng.UniformInt(vocab.families.size())];
      model.pretrain_tags =
          vocab.corpora[rng.UniformInt(vocab.corpora.size())];
      model.finetune_tags =
          vocab.finetunes[rng.UniformInt(vocab.finetunes.size())];
      model.capability = DrawCapability(rng);
      model.scale_millions = rng.Uniform(10.0, 350.0);
      model.num_source_labels =
          model.finetune_tags.empty()
              ? 16
              : static_cast<int>(2 + rng.UniformInt(8));
    } else {
      const Lineage& lineage = lineages[rng.Categorical(weights)];
      model.family = lineage.family;
      model.pretrain_tags = vocab.corpora[lineage.corpus];
      model.finetune_tags = vocab.finetunes[lineage.finetune];
      model.capability =
          Clamp(lineage.capability +
                    rng.Normal(0.0, spec.capability_jitter),
                0.05, 0.95);
      // Members of a lineage are size variants of the base checkpoint.
      model.scale_millions =
          Clamp(lineage.scale_millions * rng.Uniform(0.5, 1.5), 5.0,
                500.0);
      model.num_source_labels = lineage.num_source_labels;
    }
    model.finetune_strength = model.finetune_tags.empty() ? 0.0 : 0.5;
    model.name = strings::Format("%s/%s-%s-%zu", spec.name_prefix.c_str(),
                                 nlp ? "nlp" : "cv", model.family.c_str(),
                                 i);
    specs.push_back(std::move(model));
  }
  return specs;
}

}  // namespace tps
