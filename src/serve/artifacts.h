#ifndef TPS_SERVE_ARTIFACTS_H_
#define TPS_SERVE_ARTIFACTS_H_

#include <memory>
#include <string>

#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "data/registry.h"
#include "index/ivf_index.h"
#include "model/zoo.h"
#include "recall/recall_embeddings.h"
#include "util/statusor.h"

namespace tps {
namespace serve {

/// Where to load the offline artifacts from: the model store at `store`,
/// under artifact id `id` (the domain name, "nlp" / "cv", when empty).
struct ArtifactPaths {
  TaskDomain domain = TaskDomain::kNLP;
  std::string store;
  std::string id;

  /// `id`, or the domain name when `id` is empty.
  std::string artifact_id() const {
    if (!id.empty()) return id;
    return domain == TaskDomain::kNLP ? "nlp" : "cv";
  }
};

/// Everything the online pipeline reads: the dataset inventory, the model
/// zoo, and the offline artifacts (performance matrix + clustering). One
/// loaded instance is shared read-only by every request a SelectionService
/// handles — the whole point of the serving layer is to stop reloading
/// this per invocation.
///
/// `registry` and `zoo` share their storage across copies. The paper
/// inventory and each domain's paper zoo are built once per process, and
/// a dataset's examples once, on first read; every Load/Build returns
/// copies of those. Only the matrix, clustering, index and embeddings are
/// per version.
struct ServiceArtifacts {
  DatasetRegistry registry;
  ModelZoo zoo;
  PerformanceMatrix matrix;
  ModelClustering clustering;
  TaskDomain domain = TaskDomain::kNLP;
  /// Optional sub-linear recall index over the zoo (null = rank through
  /// the exact index over `clustering`). Shared because an
  /// ArtifactSnapshot may outlive the slot publication that delivered it.
  std::shared_ptr<const IvfIndex> index;
  /// Optional trained two-tower recall embeddings (null = the embedding
  /// and hybrid backends are unavailable for this version).
  std::shared_ptr<const recall::RecallEmbeddings> embeddings;
  /// IVF over the *embedding* vectors, so embedding recall is sub-linear
  /// too. Rebuilt deterministically from `embeddings` on attach (never
  /// persisted — it is a pure function of the embeddings); null whenever
  /// `embeddings` is.
  std::shared_ptr<const IvfIndex> embedding_index;

  /// Attaches trained recall embeddings and builds the embedding-space
  /// IVF over their model vectors. Deterministic: same embeddings, same
  /// index, bit for bit.
  Status AttachEmbeddings(recall::RecallEmbeddings trained);

  /// Internal-consistency check run before artifacts are served: the
  /// matrix and clustering must cover exactly this zoo. Load() runs it on
  /// every load; SelectionService::Reload runs it again before publishing,
  /// so a bad artifact set can never replace a good serving version.
  Status Validate() const;

  /// Loads the artifacts stored under one id and validates they cover
  /// exactly one zoo: the paper zoo for the domain or, when the stored
  /// matrix is differently sized, the generated zoo reconstructed from the
  /// store's model specs in matrix column order. The recall index and the
  /// trained embeddings are optional (absent from the store = not served).
  /// The store is opened read-only (ModelStore::OpenReadOnly): a missing
  /// store is NotFound and no file is created, a torn tail (say, a record
  /// a writer is still appending) is ignored and left on disk, and the log
  /// is closed before this returns, so a long-lived service holds no
  /// handle on it.
  static StatusOr<ServiceArtifacts> Load(const ArtifactPaths& paths);

  /// Builds fresh artifacts in-process (registry + zoo + matrix +
  /// clustering) — the offline phase without persistence. Used by tests
  /// and benches that need a self-contained world. `threads` >= 1 fans
  /// the matrix build over a pool.
  static StatusOr<ServiceArtifacts> Build(TaskDomain domain,
                                          int threads = 1);
};

}  // namespace serve
}  // namespace tps

#endif  // TPS_SERVE_ARTIFACTS_H_
