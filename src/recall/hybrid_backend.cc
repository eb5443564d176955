#include "recall/hybrid_backend.h"

#include <algorithm>
#include <map>
#include <utility>

#include "matrix/vector_ops.h"
#include "recall/embedding_backend.h"

namespace tps {
namespace recall {

namespace {

/// Per-model fused state while merging the two rankings.
struct FusedEntry {
  double representative_score = 0.0;  // Normalized; 0 when unseen.
  double embedding_score = 0.0;       // Normalized; 0 when unseen.
  double prior_accuracy = 0.0;
  bool via_propagation = false;
};

class HybridBackend : public RecallBackend {
 public:
  HybridBackend(const RecallBackendContext& context,
                std::unique_ptr<RecallBackend> embedding)
      : name_("hybrid"),
        representative_(context.zoo, context.matrix, context.clustering),
        embedding_(std::move(embedding)) {}

  const std::string& name() const override { return name_; }

  StatusOr<RecallResult> Recall(const Dataset& target,
                                const RecallOptions& options,
                                EpochBudget* budget, ThreadPool* pool,
                                MetricsRegistry* metrics,
                                SelectionTrace* trace,
                                const CancelToken* cancel) const override {
    // The representative run carries the budget, metrics, and trace; the
    // embedding run charges nothing and records nothing, so observability
    // attributes exactly the work the proxy path did.
    TPS_ASSIGN_OR_RETURN(
        RecallResult rep,
        representative_.Recall(target, options, budget, pool, metrics, trace,
                               cancel));
    TPS_ASSIGN_OR_RETURN(RecallResult emb,
                         embedding_->Recall(target, options, nullptr, pool,
                                            metrics, nullptr, cancel));

    // Normalize each backend's scores over its own candidate set so the
    // fusion is scale-free: representative scores carry the prior and the
    // proxy, embedding scores the prior and the learned affinity, and the
    // mean of the two normalized values ranks the union.
    std::vector<double> rep_scores(rep.ranked.size());
    for (size_t i = 0; i < rep.ranked.size(); ++i) {
      rep_scores[i] = rep.ranked[i].recall_score;
    }
    std::vector<double> emb_scores(emb.ranked.size());
    for (size_t i = 0; i < emb.ranked.size(); ++i) {
      emb_scores[i] = emb.ranked[i].recall_score;
    }
    const std::vector<double> rep_norm = vec::MinMaxNormalize(rep_scores);
    const std::vector<double> emb_norm = vec::MinMaxNormalize(emb_scores);

    std::map<size_t, FusedEntry> fused;  // Keyed by model index, ascending.
    for (size_t i = 0; i < rep.ranked.size(); ++i) {
      FusedEntry& f = fused[rep.ranked[i].model_index];
      f.representative_score = rep_norm[i];
      f.prior_accuracy = rep.ranked[i].prior_accuracy;
      f.via_propagation = rep.ranked[i].via_propagation;
    }
    for (size_t i = 0; i < emb.ranked.size(); ++i) {
      FusedEntry& f = fused[emb.ranked[i].model_index];
      f.embedding_score = emb_norm[i];
      if (f.prior_accuracy == 0.0) {
        f.prior_accuracy = emb.ranked[i].prior_accuracy;
      }
    }

    RecallResult result;
    result.ranked.reserve(fused.size());
    for (const auto& [model_index, f] : fused) {
      RecallEntry entry;
      entry.model_index = model_index;
      entry.recall_score =
          0.5 * (f.representative_score + f.embedding_score);
      entry.prior_accuracy = f.prior_accuracy;
      entry.proxy_component = entry.recall_score;
      entry.via_propagation = f.via_propagation;
      result.ranked.push_back(entry);
    }
    // Entries enter ascending by model index (std::map order), so the
    // stable sort breaks ties toward the lower index.
    std::stable_sort(result.ranked.begin(), result.ranked.end(),
                     [](const RecallEntry& a, const RecallEntry& b) {
                       return a.recall_score > b.recall_score;
                     });
    result.proxies_computed = rep.proxies_computed;
    result.cache_hits = rep.cache_hits;
    result.cache_misses = rep.cache_misses;
    return result;
  }

 private:
  const std::string name_;
  CoarseRecall representative_;
  std::unique_ptr<RecallBackend> embedding_;
};

}  // namespace

StatusOr<std::unique_ptr<RecallBackend>> CreateHybridBackend(
    const RecallBackendContext& context) {
  TPS_RETURN_NOT_OK(CheckRepresentativeContext(context));
  TPS_ASSIGN_OR_RETURN(std::unique_ptr<RecallBackend> embedding,
                       CreateEmbeddingBackend(context));
  return std::unique_ptr<RecallBackend>(
      new HybridBackend(context, std::move(embedding)));
}

}  // namespace recall
}  // namespace tps
