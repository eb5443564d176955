#include "serve/artifacts.h"

#include <optional>
#include <utility>

#include "model/paper_zoo.h"
#include "sim/finetune_simulator.h"
#include "sim/hyperparams.h"
#include "store/model_store.h"

namespace tps {
namespace serve {

namespace {

/// The domain's paper zoo, built once per process (thread-safe static
/// init); every call returns a copy sharing the same models.
StatusOr<ModelZoo> ZooFor(TaskDomain domain) {
  if (domain == TaskDomain::kNLP) {
    static const StatusOr<ModelZoo> nlp = ModelZoo::Create(NlpPaperZooSpecs());
    return nlp;
  }
  static const StatusOr<ModelZoo> cv = ModelZoo::Create(CvPaperZooSpecs());
  return cv;
}

std::string EffectiveId(const ArtifactPaths& paths) {
  if (!paths.id.empty()) return paths.id;
  return paths.domain == TaskDomain::kNLP ? "nlp" : "cv";
}

}  // namespace

StatusOr<ServiceArtifacts> ServiceArtifacts::Load(
    const ArtifactPaths& paths) {
  TPS_ASSIGN_OR_RETURN(DatasetRegistry registry,
                       DatasetRegistry::CreatePaperInventory());
  TPS_ASSIGN_OR_RETURN(ModelZoo zoo, ZooFor(paths.domain));

  // Store mode opens the log once (each Open replays and checksums the
  // whole log) and reads every artifact from that one handle; the store
  // closes when Load returns.
  std::optional<ModelStore> store;
  if (!paths.store.empty()) {
    TPS_ASSIGN_OR_RETURN(store, ModelStore::Open(paths.store));
  }
  const std::string id = EffectiveId(paths);
  const Status missing_paths = Status::InvalidArgument(
      "--store or --matrix/--clustering paths are required (run "
      "`tps_cli offline` first)");

  if (!store && paths.matrix.empty()) return missing_paths;
  TPS_ASSIGN_OR_RETURN(PerformanceMatrix matrix,
                       store ? store->GetPerformanceMatrix(id)
                             : PerformanceMatrix::LoadFromFile(paths.matrix));
  if (!store && paths.clustering.empty()) return missing_paths;
  TPS_ASSIGN_OR_RETURN(ModelClustering clustering,
                       store ? store->GetClustering(id)
                             : LoadClustering(paths.clustering));

  // Artifacts built over a generated zoo (tps_cli zoo-gen) do not match
  // the paper zoo. When the store carries the generating specs, rebuild
  // the zoo from them, in matrix column order, so serving covers exactly
  // the models the artifacts were computed over.
  if (matrix.num_models() != zoo.size() && store) {
    std::vector<ModelSpec> specs;
    specs.reserve(matrix.num_models());
    for (const std::string& name : matrix.model_names()) {
      auto spec = store->GetModelSpec(name);
      if (!spec.ok()) {
        return Status(spec.status().code(),
                      "matrix model '" + name +
                          "' is not registered in the store: " +
                          spec.status().message());
      }
      specs.push_back(std::move(spec).value());
    }
    TPS_ASSIGN_OR_RETURN(zoo, ModelZoo::Create(specs));
  }

  // The recall index is optional: absent-is-OK in store mode.
  std::shared_ptr<const IvfIndex> index;
  if (store) {
    auto loaded = store->GetRecallIndex(id);
    if (loaded.ok()) {
      index = std::make_shared<const IvfIndex>(std::move(loaded).value());
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();
    }
  } else if (!paths.index.empty()) {
    TPS_ASSIGN_OR_RETURN(IvfIndex loaded,
                         IvfIndex::LoadFromFile(paths.index));
    index = std::make_shared<const IvfIndex>(std::move(loaded));
  }

  ServiceArtifacts artifacts{std::move(registry),   std::move(zoo),
                             std::move(matrix),     std::move(clustering),
                             paths.domain,          std::move(index),
                             nullptr,               nullptr};

  // Trained recall embeddings: like the recall index, absent-is-OK in
  // store mode (the embedding backend is simply unavailable then).
  if (store) {
    auto loaded = store->GetRecallEmbeddings(id);
    if (loaded.ok()) {
      TPS_RETURN_NOT_OK(
          artifacts.AttachEmbeddings(std::move(loaded).value()));
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();
    }
  } else if (!paths.embeddings.empty()) {
    TPS_ASSIGN_OR_RETURN(
        recall::RecallEmbeddings loaded,
        recall::RecallEmbeddings::LoadFromFile(paths.embeddings));
    TPS_RETURN_NOT_OK(artifacts.AttachEmbeddings(std::move(loaded)));
  }

  TPS_RETURN_NOT_OK(artifacts.Validate());
  return artifacts;
}

Status ServiceArtifacts::AttachEmbeddings(recall::RecallEmbeddings trained) {
  // The embedding-space IVF is a pure function of the embeddings (seeded
  // k-means over the model vectors), so it is rebuilt here rather than
  // persisted — the codec cannot desync from the build rules.
  TPS_ASSIGN_OR_RETURN(IvfIndex built,
                       IvfIndex::Build(trained.model_embeddings(),
                                       trained.prior(), IvfIndexOptions()));
  embedding_index = std::make_shared<const IvfIndex>(std::move(built));
  embeddings =
      std::make_shared<const recall::RecallEmbeddings>(std::move(trained));
  return Status::OK();
}

Status ServiceArtifacts::Validate() const {
  if (matrix.num_models() != zoo.size() ||
      clustering.clusters.assignments.size() != zoo.size()) {
    return Status::FailedPrecondition(
        "artifacts do not match the " + std::string(ToString(domain)) +
        " paper zoo; rebuild with `tps_cli offline`");
  }
  if (clustering.representatives.size() !=
      static_cast<size_t>(clustering.clusters.num_clusters)) {
    return Status::FailedPrecondition(
        "clustering has " + std::to_string(clustering.representatives.size()) +
        " representatives for " +
        std::to_string(clustering.clusters.num_clusters) + " clusters");
  }
  for (size_t rep : clustering.representatives) {
    if (rep >= zoo.size()) {
      return Status::FailedPrecondition(
          "clustering representative index " + std::to_string(rep) +
          " is outside the zoo");
    }
  }
  if (index != nullptr && index->num_models() != zoo.size()) {
    return Status::FailedPrecondition(
        "recall index covers " + std::to_string(index->num_models()) +
        " models but the zoo has " + std::to_string(zoo.size()));
  }
  if (embeddings != nullptr) {
    if (embeddings->model_names() != matrix.model_names()) {
      return Status::FailedPrecondition(
          "recall embeddings do not match the performance matrix models; "
          "retrain with `tps_cli train-embed`");
    }
    if (embedding_index == nullptr ||
        embedding_index->num_models() != embeddings->num_models()) {
      return Status::FailedPrecondition(
          "embedding index does not cover the recall embeddings");
    }
  }
  return Status::OK();
}

StatusOr<ServiceArtifacts> ServiceArtifacts::Build(TaskDomain domain,
                                                   int threads) {
  if (threads < 1) {
    return Status::InvalidArgument("threads must be >= 1");
  }
  TPS_ASSIGN_OR_RETURN(DatasetRegistry registry,
                       DatasetRegistry::CreatePaperInventory());
  TPS_ASSIGN_OR_RETURN(ModelZoo zoo, ZooFor(domain));
  FineTuneSimulator simulator;
  TPS_ASSIGN_OR_RETURN(
      PerformanceMatrix matrix,
      PerformanceMatrix::BuildParallel(zoo, registry.Benchmarks(domain),
                                       simulator,
                                       Hyperparams::DefaultsFor(domain),
                                       threads));
  TPS_ASSIGN_OR_RETURN(ModelClustering clustering,
                       ClusterModels(matrix, zoo, ModelClusteringOptions()));
  return ServiceArtifacts{std::move(registry),   std::move(zoo),
                          std::move(matrix),     std::move(clustering),
                          domain,                nullptr,
                          nullptr,               nullptr};
}

}  // namespace serve
}  // namespace tps
