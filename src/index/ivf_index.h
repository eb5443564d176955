#ifndef TPS_INDEX_IVF_INDEX_H_
#define TPS_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/recall_index.h"
#include "matrix/matrix.h"
#include "util/statusor.h"

namespace tps {

struct IvfIndexOptions {
  /// Coarse-quantizer cells. 0 = auto: 2 * ceil(sqrt(n)), clamped to
  /// [1, n] — the classic IVF sizing, so posting lists average ~sqrt(n)/2
  /// members and both the probe loop and the probed lists stay sub-linear.
  int num_partitions = 0;
  /// Scored partitions probed when a query passes nprobe = 0. 0 = auto:
  /// max(24, scored_count / 8), clamped to the scored count — see
  /// IvfIndex::default_nprobe() for why the floor.
  size_t default_nprobe = 0;
  /// Per propagation-only partition: how many nearest scored slots its
  /// Eq. 4 may read. 0 = every slot (exact propagation — what the
  /// equivalence suite uses to pin the full-probe == brute-force theorem).
  size_t propagation_neighbors = 8;
  /// Eq. 1 top-k for similarity-decay propagation.
  size_t similarity_top_k = 5;
  /// k-means budget for the coarse quantizer. Lighter than the clustering
  /// defaults: the quantizer only routes lookups, it is not the paper's
  /// clustering artifact.
  int kmeans_iterations = 25;
  int kmeans_restarts = 2;
  uint64_t seed = 42;
};

/// Inverted-file (IVF) partition index over model performance vectors
/// ("Sub-linear recall index" in DESIGN.md): a seeded k-means coarse
/// quantizer splits the zoo into ~2*sqrt(n) cells with per-cell posting
/// lists; a query proxy-scores only the representatives of the top-nprobe
/// cells (static priority: descending representative prior) and ranks only
/// the probed posting lists, with Eq. 4 propagation for the long tail
/// restricted to precomputed neighbor lists.
///
/// Determinism: Build is a pure function of (vectors, prior, options) —
/// seeded k-means, index-order reductions — so the same inputs always
/// yield the same index, bit for bit. Insert updates exactly one posting
/// list against the frozen quantizer and refreshes the derived fields;
/// tests/index/index_equivalence_test.cc pins Insert == BuildWithCentroids
/// over the grown set.
class IvfIndex : public RecallIndex {
 public:
  /// Trains the quantizer and builds the posting lists. `vectors` is
  /// model-major (one performance vector per model), `prior` the matching
  /// average benchmark accuracies.
  static StatusOr<IvfIndex> Build(std::vector<std::vector<double>> vectors,
                                  std::vector<double> prior,
                                  const IvfIndexOptions& options);

  /// Rebuilds against a frozen quantizer: every vector is assigned to its
  /// nearest centroid (no retraining). This is the rebuild-from-scratch
  /// oracle the incremental-insert equivalence compares against.
  static StatusOr<IvfIndex> BuildWithCentroids(
      Matrix centroids, std::vector<std::vector<double>> vectors,
      std::vector<double> prior, const IvfIndexOptions& options);

  /// Incremental insert: assigns the new model to its nearest centroid
  /// (the quantizer stays frozen), appends it to that partition's posting
  /// list, and refreshes the derived per-partition fields — O(P * dims +
  /// singletons * scored) work, never a re-cluster of the zoo. The new
  /// model's index is the current num_models().
  Status Insert(const std::vector<double>& vector, double prior);

  const char* name() const override { return "ivf"; }

  /// The top-nprobe scored partitions, returned ascending. nprobe = 0
  /// uses default_nprobe(); values are clamped to the scored-partition
  /// count (nprobe >= scored count probes everything, which is the
  /// bit-for-bit brute-force regime). When `target_dim` names a column of
  /// the performance vectors — the target dataset is one of the offline
  /// benchmarks — the probe is routed per query by descending
  /// representative prior x recorded performance on that column (ties ->
  /// ascending partition id), a pure read of stored data that costs
  /// O(scored log scored) and no forward passes. Novel targets
  /// (target_dim = kNoSlot) fall back to the static prior-only priority.
  std::vector<size_t> ProbePartitions(
      size_t nprobe,
      size_t target_dim = IndexStructure::kNoSlot) const override;

  /// Geometric probe for an index built over *learned embedding* vectors
  /// (the embedding recall backend, src/recall/): the `nprobe` partitions
  /// whose centroids are nearest `query` by squared Euclidean distance
  /// (ties -> lowest partition id), returned ascending. nprobe = 0 uses
  /// default_nprobe(); values are clamped to the partition count. Unlike
  /// ProbePartitions this ranks every partition, not just the scored set:
  /// an embedding query ranks candidates by dot product, so there is no
  /// representative-proxy step that would make unscored cells useless.
  /// `query` must match the index dimensionality.
  std::vector<size_t> ProbePartitionsNearQuery(
      const std::vector<double>& query, size_t nprobe) const;

  /// Resolved default probe width (options.default_nprobe, or the auto
  /// rule), clamped to the scored-partition count.
  size_t default_nprobe() const;

  const Matrix& centroids() const { return centroids_; }
  const IvfIndexOptions& options() const { return options_; }

  /// Line-oriented text codec (precision 17, like the matrix and
  /// clustering artifacts). Only the primary fields are serialized; the
  /// derived layout is refinalized on load, so the codec cannot desync
  /// from the build rules.
  std::string Serialize() const;
  static StatusOr<IvfIndex> Deserialize(const std::string& text);

 private:
  IvfIndex() = default;

  /// Nearest centroid by squared Euclidean distance, ties -> lowest id.
  size_t NearestCentroid(const std::vector<double>& vector) const;

  Matrix centroids_;  // num_partitions x dims.
  IvfIndexOptions options_;
};

}  // namespace tps

#endif  // TPS_INDEX_IVF_INDEX_H_
