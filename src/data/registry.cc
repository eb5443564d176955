#include "data/registry.h"

#include <algorithm>
#include <unordered_set>

namespace tps {

namespace {

/// Builds one spec. `chance` and `ceiling` <= 0 mean "use derived default".
DatasetSpec MakeSpec(std::string name, TaskDomain domain, DatasetRole role,
                     int num_labels, double difficulty,
                     std::vector<std::string> tags, double chance = -1.0,
                     double ceiling = -1.0) {
  DatasetSpec spec;
  spec.name = std::move(name);
  spec.domain = domain;
  spec.role = role;
  spec.num_labels = num_labels;
  spec.difficulty = difficulty;
  spec.tags = std::move(tags);
  spec.chance_accuracy = chance;
  spec.ceiling_accuracy = ceiling;
  // Keep at least a few examples per class for proxy-score estimation.
  spec.num_examples = std::max(256, 4 * num_labels);
  return spec;
}

}  // namespace

std::vector<DatasetSpec> NlpBenchmarkSpecs() {
  const TaskDomain d = TaskDomain::kNLP;
  const DatasetRole r = DatasetRole::kBenchmark;
  return {
      // GLUE.
      MakeSpec("cola", d, r, 2, 0.55, {"english", "grammar", "acceptability"}),
      MakeSpec("mrpc", d, r, 2, 0.45, {"english", "paraphrase", "news"}),
      MakeSpec("qnli", d, r, 2, 0.40, {"english", "qa", "nli", "wikipedia"}),
      MakeSpec("qqp", d, r, 2, 0.35,
               {"english", "paraphrase", "questions", "web"}),
      MakeSpec("rte", d, r, 2, 0.60, {"english", "nli", "news"}),
      MakeSpec("sst2", d, r, 2, 0.30, {"english", "sentiment", "movies"}),
      MakeSpec("stsb", d, r, 6, 0.50, {"english", "similarity", "news"}),
      MakeSpec("wnli", d, r, 2, 0.70, {"english", "nli", "coreference"}),
      // SuperGLUE.
      MakeSpec("cb", d, r, 3, 0.60, {"english", "nli", "discourse"}),
      MakeSpec("copa", d, r, 2, 0.55, {"english", "commonsense", "causal"}),
      MakeSpec("wic", d, r, 2, 0.60, {"english", "word-sense", "lexical"}),
      // Domain-specific HuggingFace datasets named in Section V.A.
      MakeSpec("imdb", d, r, 2, 0.30,
               {"english", "sentiment", "movies", "reviews"}),
      MakeSpec("yelp_review_full", d, r, 5, 0.50,
               {"english", "sentiment", "reviews", "business"}),
      MakeSpec("yahoo_answers_topics", d, r, 10, 0.45,
               {"english", "topic", "qa", "web"}),
      MakeSpec("dbpedia_14", d, r, 14, 0.30,
               {"english", "topic", "encyclopedia"}),
      MakeSpec("xnli", d, r, 3, 0.55, {"multilingual", "nli", "crowdsourced"}),
      MakeSpec("anli", d, r, 3, 0.70, {"english", "nli", "adversarial"}),
      MakeSpec("app_reviews", d, r, 5, 0.50,
               {"english", "sentiment", "reviews", "apps"}),
      MakeSpec("trec", d, r, 6, 0.40, {"english", "questions", "topic"}),
      MakeSpec("sick", d, r, 3, 0.45, {"english", "nli", "similarity"}),
      MakeSpec("financial_phrasebank", d, r, 3, 0.50,
               {"english", "sentiment", "finance", "news"}),
      // Appendix C additions to reach the paper's 24 benchmark trains.
      MakeSpec("paws", d, r, 2, 0.55, {"english", "paraphrase", "wikipedia"}),
      MakeSpec("stsb_multi_mt", d, r, 6, 0.55,
               {"multilingual", "similarity", "news"}),
      MakeSpec("setfit_qnli", d, r, 2, 0.45,
               {"english", "qa", "nli", "wikipedia"}),
  };
}

std::vector<DatasetSpec> NlpTargetSpecs() {
  const TaskDomain d = TaskDomain::kNLP;
  const DatasetRole r = DatasetRole::kTarget;
  return {
      MakeSpec("tweet_eval", d, r, 3, 0.55,
               {"english", "sentiment", "twitter", "social-media"},
               /*chance=*/0.42, /*ceiling=*/0.67),
      MakeSpec("mnli", d, r, 3, 0.50,
               {"english", "nli", "crowdsourced", "multi-genre"},
               /*chance=*/0.35, /*ceiling=*/0.87),
      MakeSpec("multirc", d, r, 2, 0.65,
               {"english", "qa", "reading-comprehension", "multi-sentence"},
               /*chance=*/0.55, /*ceiling=*/0.65),
      MakeSpec("boolq", d, r, 2, 0.55,
               {"english", "qa", "yes-no", "wikipedia"},
               /*chance=*/0.62, /*ceiling=*/0.74),
  };
}

std::vector<DatasetSpec> CvBenchmarkSpecs() {
  const TaskDomain d = TaskDomain::kCV;
  const DatasetRole r = DatasetRole::kBenchmark;
  return {
      MakeSpec("food101", d, r, 101, 0.50,
               {"natural-images", "food", "fine-grained"}),
      MakeSpec("cub_birds", d, r, 200, 0.60,
               {"natural-images", "birds", "fine-grained"}),
      MakeSpec("cats_vs_dogs", d, r, 2, 0.20,
               {"natural-images", "animals", "pets"}),
      MakeSpec("cifar10", d, r, 10, 0.30,
               {"natural-images", "objects", "low-resolution"}),
      MakeSpec("mnist", d, r, 10, 0.10, {"digits", "grayscale",
                                         "handwriting"}),
      MakeSpec("snacks", d, r, 20, 0.45, {"natural-images", "food"}),
      // Standard fillers to reach the paper's 10 CV benchmark trains (the
      // paper names only six CV datasets; see DESIGN.md).
      MakeSpec("cifar100", d, r, 100, 0.55,
               {"natural-images", "objects", "low-resolution"}),
      MakeSpec("fashion_mnist", d, r, 10, 0.30,
               {"grayscale", "clothing", "icons"}),
      MakeSpec("svhn", d, r, 10, 0.35, {"digits", "street", "natural-images"}),
      MakeSpec("eurosat", d, r, 10, 0.40,
               {"satellite", "land-use", "remote-sensing"}),
  };
}

std::vector<DatasetSpec> CvTargetSpecs() {
  const TaskDomain d = TaskDomain::kCV;
  const DatasetRole r = DatasetRole::kTarget;
  return {
      MakeSpec("chest_xray", d, r, 2, 0.35,
               {"medical", "xray", "grayscale", "radiology"},
               /*chance=*/0.73, /*ceiling=*/0.975),
      MakeSpec("medmnist", d, r, 9, 0.60,
               {"medical", "biomedical", "low-resolution"},
               /*chance=*/0.18, /*ceiling=*/0.80),
      MakeSpec("oxford_flowers", d, r, 102, 0.45,
               {"natural-images", "flowers", "fine-grained"},
               /*chance=*/0.02, /*ceiling=*/0.99),
      MakeSpec("beans", d, r, 3, 0.30,
               {"natural-images", "plants", "leaves", "agriculture"},
               /*chance=*/0.34, /*ceiling=*/0.975),
  };
}

StatusOr<DatasetRegistry> DatasetRegistry::CreatePaperInventory() {
  // The inventory is a pure function of the compiled-in specs: build it
  // once per process (thread-safe static init) and hand out shared copies.
  static const StatusOr<DatasetRegistry> inventory = [] {
    std::vector<DatasetSpec> specs;
    for (auto* list : {&NlpBenchmarkSpecs, &NlpTargetSpecs,
                       &CvBenchmarkSpecs, &CvTargetSpecs}) {
      std::vector<DatasetSpec> part = (*list)();
      specs.insert(specs.end(), part.begin(), part.end());
    }
    return Create(specs);
  }();
  return inventory;
}

StatusOr<DatasetRegistry> DatasetRegistry::Create(
    const std::vector<DatasetSpec>& specs) {
  auto datasets = std::make_shared<std::vector<Dataset>>();
  std::unordered_set<std::string> seen;
  datasets->reserve(specs.size());
  for (const DatasetSpec& spec : specs) {
    if (!seen.insert(spec.name).second) {
      return Status::AlreadyExists("duplicate dataset name: " + spec.name);
    }
    TPS_ASSIGN_OR_RETURN(Dataset ds, Dataset::Create(spec));
    datasets->push_back(std::move(ds));
  }
  DatasetRegistry registry;
  registry.datasets_ = std::move(datasets);
  return registry;
}

const std::vector<Dataset>& DatasetRegistry::datasets() const {
  static const std::vector<Dataset> kNone;
  return datasets_ == nullptr ? kNone : *datasets_;
}

StatusOr<const Dataset*> DatasetRegistry::Find(const std::string& name) const {
  for (const Dataset& ds : datasets()) {
    if (ds.name() == name) return &ds;
  }
  return Status::NotFound("dataset not found: " + name);
}

std::vector<const Dataset*> DatasetRegistry::Benchmarks(
    TaskDomain domain) const {
  std::vector<const Dataset*> out;
  for (const Dataset& ds : datasets()) {
    if (ds.spec().domain == domain &&
        ds.spec().role == DatasetRole::kBenchmark) {
      out.push_back(&ds);
    }
  }
  return out;
}

}  // namespace tps
