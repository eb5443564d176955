#include "recall/recall_backend.h"

#include <algorithm>
#include <utility>

#include "recall/embedding_backend.h"
#include "recall/hybrid_backend.h"

namespace tps {
namespace recall {

Status CheckRepresentativeContext(const RecallBackendContext& context) {
  if (context.zoo == nullptr || context.matrix == nullptr ||
      context.clustering == nullptr) {
    return Status::InvalidArgument(
        "representative recall needs zoo, matrix, and clustering");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<RecallBackend>> CreateRecallBackend(
    const std::string& name, const RecallBackendContext& context) {
  if (name == "representative") {
    TPS_RETURN_NOT_OK(CheckRepresentativeContext(context));
    return std::unique_ptr<RecallBackend>(
        new CoarseRecall(context.zoo, context.matrix, context.clustering));
  }
  if (name == "embedding") return CreateEmbeddingBackend(context);
  if (name == "hybrid") return CreateHybridBackend(context);
  return Status::NotFound("unknown recall backend: " + name);
}

const std::vector<std::string>& RecallBackendNames() {
  static const std::vector<std::string> kNames = {"embedding", "hybrid",
                                                  "representative"};
  return kNames;
}

RecallBackendSet::RecallBackendSet(const CoarseRecall& representative,
                                   const RecallBackendContext& context)
    : representative_(representative) {
  for (const char* name : {"embedding", "hybrid"}) {
    auto backend = CreateRecallBackend(name, context);
    // Backends the context cannot support (e.g. embedding recall without
    // trained embeddings) are left out rather than failing the whole
    // artifact load; requests naming them get FailedPrecondition.
    if (backend.ok()) learned_.push_back(std::move(backend).value());
  }
}

StatusOr<const RecallBackend*> RecallBackendSet::Find(
    const std::string& name) const {
  if (name == representative_.name()) return &representative_;
  for (const std::unique_ptr<RecallBackend>& backend : learned_) {
    if (backend->name() == name) return backend.get();
  }
  const std::vector<std::string>& known = RecallBackendNames();
  if (std::find(known.begin(), known.end(), name) != known.end()) {
    return Status::FailedPrecondition(
        "recall backend \"" + name +
        "\" is not available for these artifacts (train embeddings first)");
  }
  return Status::NotFound("unknown recall backend: " + name);
}

}  // namespace recall
}  // namespace tps
