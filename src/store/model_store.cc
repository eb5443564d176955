#include "store/model_store.h"

#include "store/spec_serialization.h"

namespace tps {

namespace {
constexpr char kModelPrefix[] = "model/";
constexpr char kDatasetPrefix[] = "dataset/";
constexpr char kMatrixPrefix[] = "matrix/";
constexpr char kClusteringPrefix[] = "clustering/";
constexpr char kIndexPrefix[] = "index/";
constexpr char kEmbedPrefix[] = "embed/";

std::vector<std::string> StripPrefix(std::vector<std::string> keys,
                                     size_t prefix_length) {
  for (std::string& key : keys) key = key.substr(prefix_length);
  return keys;
}
}  // namespace

StatusOr<ModelStore> ModelStore::Open(const std::string& path, Env* env) {
  TPS_ASSIGN_OR_RETURN(KvStore kv, KvStore::Open(path, env));
  return ModelStore(std::move(kv));
}

StatusOr<ModelStore> ModelStore::OpenReadOnly(const std::string& path,
                                              Env* env) {
  TPS_ASSIGN_OR_RETURN(KvStore kv, KvStore::OpenReadOnly(path, env));
  return ModelStore(std::move(kv));
}

Status ModelStore::PutModelSpec(const ModelSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("model spec needs a name");
  }
  TPS_ASSIGN_OR_RETURN(std::string payload, SerializeModelSpec(spec));
  return kv_.Put(kModelPrefix + spec.name, payload);
}

StatusOr<ModelSpec> ModelStore::GetModelSpec(const std::string& name) const {
  TPS_ASSIGN_OR_RETURN(std::string payload, kv_.Get(kModelPrefix + name));
  return DeserializeModelSpec(payload);
}

std::vector<std::string> ModelStore::ListModels() const {
  return StripPrefix(kv_.ScanPrefix(kModelPrefix),
                     sizeof(kModelPrefix) - 1);
}

Status ModelStore::PutDatasetSpec(const DatasetSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("dataset spec needs a name");
  }
  TPS_ASSIGN_OR_RETURN(std::string payload, SerializeDatasetSpec(spec));
  return kv_.Put(kDatasetPrefix + spec.name, payload);
}

std::vector<std::string> ModelStore::ListDatasets() const {
  return StripPrefix(kv_.ScanPrefix(kDatasetPrefix),
                     sizeof(kDatasetPrefix) - 1);
}

Status ModelStore::PutPerformanceMatrix(const std::string& id,
                                        const PerformanceMatrix& matrix) {
  if (id.empty()) return Status::InvalidArgument("matrix id must be set");
  return kv_.Put(kMatrixPrefix + id, matrix.Serialize());
}

StatusOr<PerformanceMatrix> ModelStore::GetPerformanceMatrix(
    const std::string& id) const {
  TPS_ASSIGN_OR_RETURN(std::string payload, kv_.Get(kMatrixPrefix + id));
  return PerformanceMatrix::Deserialize(payload);
}

Status ModelStore::PutClustering(const std::string& id,
                                 const ModelClustering& clustering) {
  if (id.empty()) {
    return Status::InvalidArgument("clustering id must be set");
  }
  return kv_.Put(kClusteringPrefix + id, SerializeClustering(clustering));
}

StatusOr<ModelClustering> ModelStore::GetClustering(
    const std::string& id) const {
  TPS_ASSIGN_OR_RETURN(std::string payload,
                       kv_.Get(kClusteringPrefix + id));
  return DeserializeClustering(payload);
}

Status ModelStore::PutRecallIndex(const std::string& id,
                                  const IvfIndex& index) {
  if (id.empty()) return Status::InvalidArgument("index id must be set");
  return kv_.Put(kIndexPrefix + id, index.Serialize());
}

StatusOr<IvfIndex> ModelStore::GetRecallIndex(const std::string& id) const {
  TPS_ASSIGN_OR_RETURN(std::string payload, kv_.Get(kIndexPrefix + id));
  return IvfIndex::Deserialize(payload);
}

Status ModelStore::PutRecallEmbeddings(
    const std::string& id, const recall::RecallEmbeddings& embeddings) {
  if (id.empty()) {
    return Status::InvalidArgument("embeddings id must be set");
  }
  return kv_.Put(kEmbedPrefix + id, embeddings.Serialize());
}

StatusOr<recall::RecallEmbeddings> ModelStore::GetRecallEmbeddings(
    const std::string& id) const {
  TPS_ASSIGN_OR_RETURN(std::string payload, kv_.Get(kEmbedPrefix + id));
  return recall::RecallEmbeddings::Deserialize(payload);
}

std::vector<std::string> ModelStore::ListMatrices() const {
  return StripPrefix(kv_.ScanPrefix(kMatrixPrefix),
                     sizeof(kMatrixPrefix) - 1);
}

std::vector<std::string> ModelStore::ListClusterings() const {
  return StripPrefix(kv_.ScanPrefix(kClusteringPrefix),
                     sizeof(kClusteringPrefix) - 1);
}

std::vector<std::string> ModelStore::ListIndexes() const {
  return StripPrefix(kv_.ScanPrefix(kIndexPrefix),
                     sizeof(kIndexPrefix) - 1);
}

std::vector<std::string> ModelStore::ListEmbeddings() const {
  return StripPrefix(kv_.ScanPrefix(kEmbedPrefix),
                     sizeof(kEmbedPrefix) - 1);
}

Status ModelStore::Compact() { return kv_.Compact(); }

}  // namespace tps
