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

/// Where to load the offline artifacts from: either a model store (`store`
/// + `id`) or the plain-file pair (`matrix` + `clustering`). `id` defaults
/// to the domain name ("nlp" / "cv") when empty.
struct ArtifactPaths {
  TaskDomain domain = TaskDomain::kNLP;
  std::string store;
  std::string id;
  std::string matrix;
  std::string clustering;
  /// Optional sub-linear recall index. In file mode this is the path of a
  /// serialized IvfIndex; in store mode the index is looked up under the
  /// same artifact id and is simply absent (never an error) when the store
  /// has none. Leave empty for index-free file-mode serving.
  std::string index;
  /// Optional trained recall embeddings (src/recall/). File mode: the path
  /// of a serialized RecallEmbeddings; store mode: looked up under the
  /// artifact id, absent-is-OK like the index. Without embeddings the
  /// embedding/hybrid recall backends are simply unavailable.
  std::string embeddings;
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
  /// so a bad artifact file can never replace a good serving version.
  Status Validate() const;

  /// Loads previously persisted artifacts (store or files) and validates
  /// they cover exactly one zoo: the paper zoo for the domain or, when a
  /// store carries a differently-sized matrix, the generated zoo
  /// reconstructed from the store's model specs in matrix column order.
  /// The store is opened read-only-in-spirit: it is opened once, read, and
  /// closed before this returns, so a long-lived service holds no lock on
  /// the log file.
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
