#ifndef TPS_RECALL_RECALL_BACKEND_H_
#define TPS_RECALL_RECALL_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "core/coarse_recall.h"
#include "index/ivf_index.h"
#include "recall/recall_embeddings.h"

namespace tps {
namespace recall {

/// Everything a backend may rank with. `zoo`, `matrix`, and `clustering`
/// are required by the representative (CoarseRecall) and hybrid backends;
/// `embeddings` (and optionally `embedding_index`, an IVF built over the
/// model-embedding vectors) only by the embedding and hybrid backends.
/// All pointers are borrowed and must outlive the backend.
struct RecallBackendContext {
  const ModelZoo* zoo = nullptr;
  const PerformanceMatrix* matrix = nullptr;
  const ModelClustering* clustering = nullptr;
  const RecallEmbeddings* embeddings = nullptr;
  const IvfIndex* embedding_index = nullptr;
};

/// InvalidArgument unless `context` carries the zoo, matrix, and
/// clustering a CoarseRecall ranks with.
Status CheckRepresentativeContext(const RecallBackendContext& context);

/// Instantiates the backend named `name` ("representative", "embedding",
/// "hybrid") over `context`. NotFound for any other name; InvalidArgument
/// / FailedPrecondition when the context is missing what the backend
/// needs (e.g. no trained embeddings).
StatusOr<std::unique_ptr<RecallBackend>> CreateRecallBackend(
    const std::string& name, const RecallBackendContext& context);

/// The backend names CreateRecallBackend knows, sorted.
const std::vector<std::string>& RecallBackendNames();

/// The per-snapshot backend bundle, built once per artifact version so
/// request routing is a lock-free name lookup with no per-request
/// allocation. "representative" is the caller's CoarseRecall (a serving
/// snapshot passes its selector's, so unnamed and "representative"
/// requests share one); the learned backends are built over `context`,
/// and those it cannot support (no trained embeddings) are simply absent
/// and resolve to FailedPrecondition.
class RecallBackendSet {
 public:
  /// `representative` must outlive the set.
  RecallBackendSet(const CoarseRecall& representative,
                   const RecallBackendContext& context);

  /// Resolves a request's backend name. NotFound for names
  /// CreateRecallBackend does not know, FailedPrecondition for backends
  /// this artifact set cannot serve.
  StatusOr<const RecallBackend*> Find(const std::string& name) const;

 private:
  const CoarseRecall& representative_;
  std::vector<std::unique_ptr<RecallBackend>> learned_;
};

}  // namespace recall
}  // namespace tps

#endif  // TPS_RECALL_RECALL_BACKEND_H_
