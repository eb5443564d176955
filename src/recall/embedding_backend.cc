#include "recall/embedding_backend.h"

#include <algorithm>
#include <utility>

#include "matrix/vector_ops.h"

namespace tps {
namespace recall {

namespace {

class EmbeddingBackend : public RecallBackend {
 public:
  EmbeddingBackend(const RecallEmbeddings* embeddings,
                   const IvfIndex* embedding_index)
      : name_("embedding"),
        embeddings_(embeddings),
        embedding_index_(embedding_index) {}

  const std::string& name() const override { return name_; }

  StatusOr<RecallResult> Recall(const Dataset& target,
                                const RecallOptions& options,
                                EpochBudget* budget, ThreadPool* pool,
                                MetricsRegistry* metrics,
                                SelectionTrace* trace,
                                const CancelToken* cancel) const override {
    (void)budget;   // Never charged: no proxy inference happens here.
    (void)pool;     // Dot products over <= |M| candidates; serial is fine.
    (void)metrics;  // Latency is attributed by the caller's request timer.
    (void)trace;    // The trace's recall phase is proxy-shaped; the
                    // embedding path records nothing rather than a lie.
    TPS_RETURN_NOT_OK(CheckCancel(cancel, "embedding recall entry"));
    TPS_ASSIGN_OR_RETURN(std::vector<double> query,
                         embeddings_->EmbedDataset(target));

    // Candidate set: with an embedding IVF, only the posting lists of the
    // nprobe partitions nearest the query; otherwise the whole zoo.
    std::vector<size_t> candidates;
    if (embedding_index_ != nullptr) {
      const std::vector<size_t> probed =
          embedding_index_->ProbePartitionsNearQuery(query, options.nprobe);
      const IndexStructure& s = embedding_index_->structure();
      for (size_t partition : probed) {
        for (size_t m : s.members[partition]) candidates.push_back(m);
      }
      std::sort(candidates.begin(), candidates.end());
    } else {
      candidates.resize(embeddings_->num_models());
      for (size_t m = 0; m < candidates.size(); ++m) candidates[m] = m;
    }

    // [embedding-recall-begin] Scoring is dot products against the trained
    // model embeddings only — no zoo walk, no matrix sweep, no proxy
    // inference (tools/check_no_linear_recall.sh pins this section).
    std::vector<double> dots(candidates.size(), 0.0);
    for (size_t i = 0; i < candidates.size(); ++i) {
      dots[i] = embeddings_->Score(query, candidates[i]);
    }
    // [embedding-recall-end]

    const std::vector<double> normalized = vec::MinMaxNormalize(dots);
    const std::vector<double>& prior = embeddings_->prior();
    RecallResult result;
    result.ranked.resize(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      RecallEntry& entry = result.ranked[i];
      entry.model_index = candidates[i];
      entry.prior_accuracy = prior[candidates[i]];
      entry.proxy_component = normalized[i];
      entry.via_propagation = false;
      entry.recall_score =
          (options.use_accuracy_prior ? entry.prior_accuracy : 1.0) *
          entry.proxy_component;
    }
    // Entries enter ascending by model index, so the stable sort breaks
    // score ties toward the lower index — the representative path's rule.
    std::stable_sort(result.ranked.begin(), result.ranked.end(),
                     [](const RecallEntry& a, const RecallEntry& b) {
                       return a.recall_score > b.recall_score;
                     });
    result.proxies_computed = 0;
    return result;
  }

 private:
  const std::string name_;
  const RecallEmbeddings* embeddings_;
  const IvfIndex* embedding_index_;
};

}  // namespace

StatusOr<std::unique_ptr<RecallBackend>> CreateEmbeddingBackend(
    const RecallBackendContext& context) {
  if (context.embeddings == nullptr) {
    return Status::FailedPrecondition(
        "embedding backend needs trained recall embeddings");
  }
  if (context.matrix != nullptr &&
      context.embeddings->model_names() != context.matrix->model_names()) {
    return Status::InvalidArgument(
        "recall embeddings do not match the performance matrix models");
  }
  if (context.embedding_index != nullptr &&
      context.embedding_index->num_models() !=
          context.embeddings->num_models()) {
    return Status::InvalidArgument(
        "embedding index does not cover the recall embeddings");
  }
  return std::unique_ptr<RecallBackend>(
      new EmbeddingBackend(context.embeddings, context.embedding_index));
}

}  // namespace recall
}  // namespace tps
