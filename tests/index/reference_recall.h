#ifndef TPS_TESTS_INDEX_REFERENCE_RECALL_H_
#define TPS_TESTS_INDEX_REFERENCE_RECALL_H_

#include "core/coarse_recall.h"
#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "data/dataset.h"
#include "model/zoo.h"
#include "sim/epoch_budget.h"
#include "util/statusor.h"

namespace tps {

/// Test-only oracle: the paper's coarse recall (Eqs. 2-4) as a direct,
/// serial sweep over a ModelClustering — no index, no pool, no cache.
/// Proxy-scores the representatives of the non-singleton clusters (every
/// representative when no cluster has two members) with the scalar
/// oracle scorers (MakeReferenceProxyScorer), min-max normalizes and
/// averages the proxies, gives members of a scored cluster their
/// representative's score (Eq. 3) and every other model the
/// similarity-decayed average over the scored representatives (Eq. 4),
/// then stable-sorts by descending score. Reads `proxy`, `proxies` and
/// `use_accuracy_prior` from `options`; charges 0.5 epochs per proxy to
/// `budget` (may be null). CoarseRecall's index path must reproduce it bit
/// for bit.
StatusOr<RecallResult> ReferenceRecall(const ModelZoo& zoo,
                                       const PerformanceMatrix& matrix,
                                       const ModelClustering& clustering,
                                       const Dataset& target,
                                       const RecallOptions& options,
                                       EpochBudget* budget);

/// The clustering that puts model m in cluster m: no cluster has two
/// members, so recall proxy-scores every model directly (the
/// direct-scoring ablation).
ModelClustering SingletonClustering(size_t num_models);

}  // namespace tps

#endif  // TPS_TESTS_INDEX_REFERENCE_RECALL_H_
