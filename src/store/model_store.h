#ifndef TPS_STORE_MODEL_STORE_H_
#define TPS_STORE_MODEL_STORE_H_

#include <string>
#include <vector>

#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "index/ivf_index.h"
#include "data/dataset_spec.h"
#include "recall/recall_embeddings.h"
#include "model/model_spec.h"
#include "store/kv_store.h"
#include "util/env.h"
#include "util/statusor.h"

namespace tps {

/// The model-management layer the paper sketches as future work ("a data
/// management system which stores and maintains the pre-trained models and
/// datasets, then supports automatically selecting models"): a typed
/// catalog of model specs, dataset specs and offline selection artifacts
/// (performance matrices, clusterings), persisted in one crash-safe
/// KvStore log.
///
/// Key layout (prefix scans give the listings):
///   model/<name>      -> serialized ModelSpec
///   dataset/<name>    -> serialized DatasetSpec
///   matrix/<id>       -> serialized PerformanceMatrix
///   clustering/<id>   -> serialized ModelClustering
///   index/<id>        -> serialized IvfIndex (sub-linear recall index)
///   embed/<id>        -> serialized RecallEmbeddings (two-tower recall)
class ModelStore {
 public:
  /// Opens (or creates) the store backed by the log file at `path`,
  /// recovering from a torn tail if the last writer crashed mid-append.
  /// `env` must outlive the store.
  static StatusOr<ModelStore> Open(const std::string& path,
                                   Env* env = Env::Default());

  /// Opens the store at `path` for reading only (KvStore::OpenReadOnly):
  /// a missing store is NotFound naming the path, no file is created, and
  /// a torn tail is ignored rather than truncated. Every Put and Compact
  /// on the result is FailedPrecondition.
  static StatusOr<ModelStore> OpenReadOnly(const std::string& path,
                                           Env* env = Env::Default());

  ModelStore(ModelStore&&) = default;
  ModelStore& operator=(ModelStore&&) = default;

  // --- Model specs. ---
  Status PutModelSpec(const ModelSpec& spec);
  StatusOr<ModelSpec> GetModelSpec(const std::string& name) const;
  /// Registered model names, sorted.
  std::vector<std::string> ListModels() const;

  // --- Dataset specs. ---
  Status PutDatasetSpec(const DatasetSpec& spec);
  std::vector<std::string> ListDatasets() const;

  // --- Offline selection artifacts. ---
  Status PutPerformanceMatrix(const std::string& id,
                              const PerformanceMatrix& matrix);
  StatusOr<PerformanceMatrix> GetPerformanceMatrix(
      const std::string& id) const;
  Status PutClustering(const std::string& id,
                       const ModelClustering& clustering);
  StatusOr<ModelClustering> GetClustering(const std::string& id) const;
  Status PutRecallIndex(const std::string& id, const IvfIndex& index);
  StatusOr<IvfIndex> GetRecallIndex(const std::string& id) const;
  Status PutRecallEmbeddings(const std::string& id,
                             const recall::RecallEmbeddings& embeddings);
  StatusOr<recall::RecallEmbeddings> GetRecallEmbeddings(
      const std::string& id) const;
  /// Stored artifact ids, sorted.
  std::vector<std::string> ListMatrices() const;
  std::vector<std::string> ListClusterings() const;
  std::vector<std::string> ListIndexes() const;
  std::vector<std::string> ListEmbeddings() const;

  /// Reclaims space from overwrites/deletes.
  Status Compact();

  /// Total live entries across all namespaces.
  size_t size() const { return kv_.size(); }

  /// Log records written since Open (live + dead).
  size_t log_records() const { return kv_.log_records(); }

  /// What the open replayed and truncated (torn-tail recovery).
  const RecoveryStats& recovery_stats() const {
    return kv_.recovery_stats();
  }

 private:
  explicit ModelStore(KvStore kv) : kv_(std::move(kv)) {}

  KvStore kv_;
};

}  // namespace tps

#endif  // TPS_STORE_MODEL_STORE_H_
