#ifndef TPS_CORE_COARSE_RECALL_H_
#define TPS_CORE_COARSE_RECALL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/cancellation.h"
#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "core/selection_trace.h"
#include "data/dataset.h"
#include "index/recall_index.h"
#include "model/zoo.h"
#include "sim/epoch_budget.h"
#include "transfer/proxy_flight.h"
#include "transfer/proxy_scorer.h"
#include "transfer/score_cache.h"
#include "util/metrics.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace tps {

struct RecallOptions {
  /// How many models to hand to the fine-selection phase (the paper uses
  /// 10).
  size_t top_k_models = 10;
  /// Proxy scorer name ("leep", "nce", "logme", "knn").
  std::string proxy = "leep";
  /// Multi-proxy combination (the paper's first future-work item:
  /// "combine different light-weight tasks to return a high quality subset
  /// more robustly"). When non-empty, overrides `proxy`: each listed
  /// scorer is computed and min-max normalized across the scored
  /// representatives, and the per-model proxy component is their mean.
  /// Inference cost is still 0.5 epochs per representative — all proxies
  /// consume the same forward pass over the target dataset.
  std::vector<std::string> proxies;
  /// Ablation switch: when false, drop the acc(m) prior from Eq. 2 and use
  /// the proxy component alone.
  bool use_accuracy_prior = true;
  /// Optional LRU proxy-score cache ("Serving" in DESIGN.md), read and
  /// filled only through `flight_group`: a cache without a flight group is
  /// InvalidArgument, before any proxy is computed, because the group is
  /// the cache's one writer. Each representative's (target, model, scorer)
  /// proxy is looked up in the same step that joins or leads its flight, so
  /// repeated and overlapping queries skip the forward pass. Scores are
  /// deterministic, so the ranking is bit-identical with the cache on or
  /// off; the epoch budget still charges every scored representative (the
  /// paper's cost model counts logical inferences, and keeping the ledger
  /// cache-independent is what lets the inertness tests compare runs).
  /// nullptr disables caching.
  ProxyScoreCache* score_cache = nullptr;
  /// Optional cross-request proxy coalescing. When non-null, every proxy
  /// is fetched through it: concurrent requests computing the same
  /// (target, model, scorer) proxy collapse into one flight whose leader
  /// computes (inserting into `score_cache` when set, before the flight
  /// retires) and the rest share the result. Scores are pure functions of
  /// the key, so coalescing is bit-identical to computing independently —
  /// see tests/serve/coalescing_test.cc. nullptr (with no cache) computes
  /// every proxy directly.
  ProxyFlightGroup* flight_group = nullptr;
  /// Cache epoch of the artifact snapshot this request was admitted
  /// against ("Serving: hot artifact swap" in DESIGN.md): the version that
  /// first published its zoo object. Tagged into every cache/flight key,
  /// so versions serving one zoo share scores and a score computed over
  /// one zoo is never observed by a request against another, even
  /// mid-swap. Any version number is a correct epoch too, private to that
  /// version. 0 (the default) is the never-swapped epoch used by embedded
  /// callers.
  uint64_t artifact_epoch = 0;
  /// Optional sub-linear recall index ("Sub-linear recall index" in
  /// DESIGN.md). Recall always ranks through a RecallIndex: this one when
  /// non-null, else the exact BruteForceRecallIndex CoarseRecall builds
  /// over its clustering. Either way only the representatives of the
  /// probed partitions are proxy-scored and only the probed posting lists
  /// plus the propagation-only long tail are ranked — the online phase
  /// runs off the index structure, never sweeping the zoo or the
  /// performance matrix. The index must cover exactly the zoo. The caller
  /// owns the index; it must outlive the call.
  const RecallIndex* index = nullptr;
  /// Scored partitions to probe per query through `index`: 0 = the
  /// backend's default, larger values trade latency for recall. Probing
  /// every scored partition reproduces the exact index only when the
  /// backend propagates exactly too (an IvfIndex built with
  /// propagation_neighbors = 0; the default keeps 8 neighbors) —
  /// tests/index/index_equivalence_test.cc pins that case. Ignored when
  /// `index` is null (the exact index always probes everything).
  size_t nprobe = 0;
};

/// One scored model in the recall ranking.
struct RecallEntry {
  size_t model_index = 0;
  /// Final recall score (Eq. 2 / 3 / 4).
  double recall_score = 0.0;
  /// acc(m): average benchmark accuracy prior.
  double prior_accuracy = 0.0;
  /// Normalized proxy component (direct for non-singleton members, Eq. 4
  /// propagation for singleton members).
  double proxy_component = 0.0;
  /// True if the proxy component was propagated via Eq. 4 rather than
  /// computed from the model's own cluster representative.
  bool via_propagation = false;

  bool operator==(const RecallEntry&) const = default;
};

struct RecallResult {
  /// All models, sorted by descending recall score.
  std::vector<RecallEntry> ranked;
  /// Number of proxy scores actually computed (= scored representatives).
  size_t proxies_computed = 0;
  /// This call's own proxy-cache lookups that hit / missed (both 0 without
  /// a cache). Counted per fetch, so calls that share the cache never count
  /// each other's lookups.
  size_t cache_hits = 0;
  size_t cache_misses = 0;

  /// Zoo indices of the top `k` models (fewer if the zoo is smaller).
  std::vector<size_t> TopModels(size_t k) const;
  /// Rank position (0-based) of a model in the recall ordering; the zoo
  /// size if absent.
  size_t RankOf(size_t model_index) const;

  bool operator==(const RecallResult&) const = default;
};

namespace recall {

/// Phase 1 behind an interface ("Recall backends" in DESIGN.md): every
/// implementation ranks the zoo for a target dataset and returns the same
/// RecallResult shape the fine-selection phase consumes, so backends are
/// interchangeable per request. CoarseRecall below is the paper's policy
/// ("representative"); src/recall/ adds the learned ones. Implementations
/// must be const-thread-safe: one backend instance serves every in-flight
/// request of an artifact snapshot concurrently.
class RecallBackend {
 public:
  virtual ~RecallBackend() = default;

  /// Backend name ("representative", "embedding", "hybrid").
  virtual const std::string& name() const = 0;

  /// Full descending ranking, deterministic for any thread count, epoch
  /// budget charged only for proxies actually computed, `cancel` polled so
  /// an expired deadline yields DeadlineExceeded rather than a partial
  /// ranking. All pointer parameters may be null except the target.
  virtual StatusOr<RecallResult> Recall(const Dataset& target,
                                        const RecallOptions& options,
                                        EpochBudget* budget,
                                        ThreadPool* pool = nullptr,
                                        MetricsRegistry* metrics = nullptr,
                                        SelectionTrace* trace = nullptr,
                                        const CancelToken* cancel =
                                            nullptr) const = 0;
};

}  // namespace recall

/// Phase 1 of the framework: recalls the most promising K models by
/// combining the benchmark-accuracy prior with a proxy score computed only
/// for non-singleton cluster representatives (Eq. 3), propagated to
/// singleton clusters by performance similarity (Eq. 4). This is the
/// "representative" recall backend.
class CoarseRecall : public recall::RecallBackend {
 public:
  /// All pointers must outlive this object. Builds the exact
  /// BruteForceRecallIndex over `clustering` (IndexFromClustering) once,
  /// here, so requests never rebuild it; a clustering that does not match
  /// the zoo is reported by every Recall call as FailedPrecondition.
  CoarseRecall(const ModelZoo* zoo, const PerformanceMatrix* matrix,
               const ModelClustering* clustering);

  /// Scores every model against `target` and ranks them. Charges 0.5
  /// epoch-equivalents per computed proxy to `budget` (may be null).
  ///
  /// When `pool` is non-null, the per-representative proxy forward passes
  /// and the per-model Eq. 2-4 scoring run concurrently on the pool. Each
  /// task writes an index-addressed slot and the normalization/ranking
  /// reductions stay serial in model-index order, so the result (ranking,
  /// scores, tie order, budget) is bit-identical to the serial run.
  ///
  /// Observability (never affects the result — see
  /// tests/core/metrics_inertness_test.cc): `metrics` receives recall
  /// counters/latency (nullptr -> MetricsRegistry::Default()); when
  /// `trace` is non-null its recall phase is filled in.
  /// `cancel` (may be null) is polled at entry and inside the proxy
  /// fan-out; an expired token yields DeadlineExceeded, never a partial
  /// ranking.
  StatusOr<RecallResult> Recall(const Dataset& target,
                                const RecallOptions& options,
                                EpochBudget* budget,
                                ThreadPool* pool = nullptr,
                                MetricsRegistry* metrics = nullptr,
                                SelectionTrace* trace = nullptr,
                                const CancelToken* cancel =
                                    nullptr) const override;

  /// "representative".
  const std::string& name() const override;

 private:
  const ModelZoo* zoo_;
  const PerformanceMatrix* matrix_;
  /// The exact index over the clustering, or why it could not be built.
  StatusOr<BruteForceRecallIndex> exact_index_;
};

}  // namespace tps

#endif  // TPS_CORE_COARSE_RECALL_H_
