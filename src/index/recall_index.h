#ifndef TPS_INDEX_RECALL_INDEX_H_
#define TPS_INDEX_RECALL_INDEX_H_

#include <cstddef>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace tps {

/// The partition layout every RecallIndex backend exposes to the recall
/// phase ("Sub-linear recall index" in DESIGN.md): a partitioning of the
/// zoo (a ModelClustering's, or an IVF quantizer's) plus its own copies of
/// the per-model data the online path reads (performance vectors +
/// accuracy priors), so consuming it never walks the zoo or the
/// performance matrix.
///
/// Terminology:
///  - partition: one posting list of model indices (a coarse-quantizer
///    cell for the IVF backend, a cluster for the brute-force oracle).
///  - scored partition: a partition whose representative gets a proxy
///    forward pass (>= 2 members, mirroring the clustering rule that only
///    non-singleton clusters are scored; if no partition qualifies, every
///    non-empty partition is scored so recall still works).
///  - slot: a scored partition's position in `scored_partitions` /
///    `scored_models` (the order proxy scores are laid out in).
struct IndexStructure {
  /// Sentinel for "this partition has no slot" (unscored) and "this
  /// partition has no representative" (empty).
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  /// Eq. 1 top-k used by similarity-decay propagation (Eq. 4).
  size_t similarity_top_k = 5;

  /// Per model: its performance vector over the benchmark datasets
  /// (vec(m) — the same rows the clustering ran on).
  std::vector<std::vector<double>> vectors;
  /// Per model: acc(m), the average benchmark accuracy (Eq. 2 prior).
  std::vector<double> prior;
  /// Per model: owning partition id.
  std::vector<int> assignments;

  /// Per partition: member model indices, ascending.
  std::vector<std::vector<size_t>> members;
  /// Per partition: the member with the highest prior (ties -> lowest
  /// model index, matching the clustering representative rule); kNoSlot
  /// for an empty partition.
  std::vector<size_t> representatives;

  /// Scored partition ids, ascending.
  std::vector<size_t> scored_partitions;
  /// Representatives of the scored partitions, in slot order.
  std::vector<size_t> scored_models;
  /// Per partition: its slot, or kNoSlot when unscored.
  std::vector<size_t> slot_of_partition;

  /// Per unscored partition: the slots (into `scored_partitions`) its
  /// Eq. 4 propagation may read, ascending. The brute-force backend lists
  /// every slot (exact propagation); the IVF backend keeps only the
  /// nearest few by performance similarity. Empty for scored partitions.
  std::vector<std::vector<size_t>> neighbors;
  /// Per unscored partition, aligned with `neighbors[p]`: the Eq. 4 weight
  /// PerformanceSimilarity(representative of p, scored_models[g]) of each
  /// listed slot g. An unscored partition has exactly one member, its
  /// representative, so these are the weights its propagation reads; the
  /// target never enters them, which is why they are computed here, once
  /// per structure, instead of per query. Empty for scored partitions.
  std::vector<std::vector<double>> neighbor_similarity;

  /// Scored partition ids in static probe-priority order: descending
  /// representative prior, ties -> ascending partition id. An nprobe-
  /// bounded query scores the first nprobe entries. This static order is
  /// the novel-target fallback: a target's proxy scores only materialize
  /// *after* probing, so the prior is the one signal known offline. When
  /// the target is one of the benchmark columns the IVF backend re-ranks
  /// per query by prior x recorded column performance instead (see
  /// RecallIndex::ProbePartitions).
  std::vector<size_t> probe_priority;

  /// Scored partition ids in farthest-point-first order over the
  /// representative vectors: the highest-prior representative first (ties
  /// -> lowest partition id), then repeatedly the scored partition whose
  /// representative maximizes the minimum squared distance to every
  /// representative already chosen (ties -> lowest id). A prefix of this
  /// list is a spread sample of the performance space — the pilot wave of
  /// the recall phase's adaptive probe (see PilotPartitions /
  /// RouteByPilotScores below).
  std::vector<size_t> pilot_order;

  size_t num_models() const { return vectors.size(); }
  size_t num_partitions() const { return members.size(); }
};

/// Recomputes every derived field of `s` (members, representatives,
/// scored set, slots, neighbors and their similarities, probe priority,
/// pilot order) from the primary fields
/// (similarity_top_k, vectors, prior, assignments). `propagation_neighbors`
/// bounds each unscored partition's neighbor list (0 = keep every scored
/// slot). Deterministic: a pure function of the primary fields, so two
/// structures with identical primaries finalize identically — the
/// incremental-insert == rebuild equivalence rests on this.
Status FinalizeIndexStructure(IndexStructure* s,
                              size_t propagation_neighbors);

/// Interface the recall phase consumes ("Sub-linear recall index" in
/// DESIGN.md): a partition layout plus a probe policy. Backends:
///  - BruteForceRecallIndex: every scored partition probed every query —
///    the exact oracle the equivalence suite compares against.
///  - IvfIndex (index/ivf_index.h): k-means coarse quantizer, nprobe-
///    bounded probing, neighbor-list propagation, incremental insert.
class RecallIndex {
 public:
  virtual ~RecallIndex() = default;

  virtual const char* name() const = 0;

  /// The scored partitions one query visits, ascending partition id.
  /// nprobe = 0 means the backend default; backends clamp nprobe to the
  /// scored-partition count. `target_dim` is the target dataset's column
  /// in the performance vectors when the target is one of the offline
  /// benchmarks (kNoSlot for a novel target) — a backend may use that
  /// column to route the probe toward partitions that do well on the
  /// target, which costs only stored-column reads, never a forward pass.
  /// The brute-force oracle ignores both and always probes everything.
  virtual std::vector<size_t> ProbePartitions(
      size_t nprobe,
      size_t target_dim = IndexStructure::kNoSlot) const = 0;

  const IndexStructure& structure() const { return structure_; }
  size_t num_models() const { return structure_.num_models(); }
  size_t num_partitions() const { return structure_.num_partitions(); }

 protected:
  IndexStructure structure_;
};

/// The oracle backend: an arbitrary partitioning (typically a
/// ModelClustering's assignments, or another index's partitioning) probed
/// exhaustively. CoarseRecall builds one over its clustering and ranks
/// through it whenever a request brings no index; recall through it is
/// bit-identical to the paper's clustering sweep, which
/// tests/index/index_equivalence_test.cc pins against a test-only
/// reference.
class BruteForceRecallIndex : public RecallIndex {
 public:
  /// `assignments[m]` in [0, num_partitions); `vectors` and `prior` are
  /// indexed by model. Fails on size mismatches or out-of-range
  /// assignments.
  static StatusOr<BruteForceRecallIndex> Create(
      std::vector<std::vector<double>> vectors, std::vector<double> prior,
      std::vector<int> assignments, int num_partitions,
      size_t similarity_top_k = 5);

  const char* name() const override { return "brute_force"; }

  /// Every scored partition, every query (`nprobe` and `target_dim`
  /// ignored).
  std::vector<size_t> ProbePartitions(
      size_t nprobe,
      size_t target_dim = IndexStructure::kNoSlot) const override;

 private:
  BruteForceRecallIndex() = default;
};

/// The first `count` entries of `s.pilot_order`, returned ascending — the
/// exploration wave of the recall phase's adaptive probe for a novel
/// target (one whose proxy scores no stored column predicts). `count` is
/// clamped to the scored-partition count.
std::vector<size_t> PilotPartitions(const IndexStructure& s, size_t count);

/// The exploitation wave: given the pilots (ascending) and their measured
/// normalized proxy scores (aligned with `pilots`), ranks every other
/// scored partition by predicted recall value — representative prior x
/// the Eq. 4 similarity-weighted average of the pilot scores — and
/// returns the top `count`, ascending, ties -> lowest partition id.
/// Deterministic: a pure function of the structure and the arguments.
std::vector<size_t> RouteByPilotScores(const IndexStructure& s,
                                       const std::vector<size_t>& pilots,
                                       const std::vector<double>& pilot_scores,
                                       size_t count);

}  // namespace tps

#endif  // TPS_INDEX_RECALL_INDEX_H_
