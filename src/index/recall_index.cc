#include "index/recall_index.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "clustering/distance.h"

namespace tps {

namespace {

/// BruteForceRecallIndex::Create's input check: vectors rectangular, prior
/// sized like vectors, every assignment in range.
Status ValidateIndexInputs(const std::vector<std::vector<double>>& vectors,
                           const std::vector<double>& prior,
                           const std::vector<int>& assignments,
                           int num_partitions) {
  if (vectors.empty()) {
    return Status::InvalidArgument("index needs at least one model vector");
  }
  const size_t dims = vectors[0].size();
  if (dims == 0) {
    return Status::InvalidArgument("model vectors must be non-empty");
  }
  for (const std::vector<double>& v : vectors) {
    if (v.size() != dims) {
      return Status::InvalidArgument("ragged model vectors");
    }
  }
  if (prior.size() != vectors.size()) {
    return Status::InvalidArgument(
        "prior count does not match the vector count");
  }
  if (assignments.size() != vectors.size()) {
    return Status::InvalidArgument(
        "assignment count does not match the vector count");
  }
  if (num_partitions <= 0) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  for (int a : assignments) {
    if (a < 0 || a >= num_partitions) {
      return Status::InvalidArgument("assignment out of partition range");
    }
  }
  return Status::OK();
}

}  // namespace

Status FinalizeIndexStructure(IndexStructure* s,
                              size_t propagation_neighbors) {
  // The caller sizes `members` to the partition count before finalizing
  // (Create/Build do); everything below is recomputed from scratch.
  const size_t P = s->members.size();
  if (P == 0) {
    return Status::InvalidArgument("index has no partitions");
  }
  s->members.assign(P, {});
  for (size_t m = 0; m < s->assignments.size(); ++m) {
    s->members[static_cast<size_t>(s->assignments[m])].push_back(m);
  }
  // Ascending by construction (models visited in index order).

  // Representative: highest prior, first wins ties — the same rule
  // ClusterModels uses, so a brute-force index over a clustering's
  // assignments reproduces its representatives exactly.
  s->representatives.assign(P, IndexStructure::kNoSlot);
  for (size_t p = 0; p < P; ++p) {
    size_t best = IndexStructure::kNoSlot;
    double best_prior = 0.0;
    for (size_t m : s->members[p]) {
      if (best == IndexStructure::kNoSlot || s->prior[m] > best_prior) {
        best = m;
        best_prior = s->prior[m];
      }
    }
    s->representatives[p] = best;
  }

  // Scored set: partitions with >= 2 members; if none qualifies, every
  // non-empty partition (the degenerate fallback the clustering path has).
  s->scored_partitions.clear();
  for (size_t p = 0; p < P; ++p) {
    if (s->members[p].size() >= 2) s->scored_partitions.push_back(p);
  }
  if (s->scored_partitions.empty()) {
    for (size_t p = 0; p < P; ++p) {
      if (!s->members[p].empty()) s->scored_partitions.push_back(p);
    }
  }
  if (s->scored_partitions.empty()) {
    return Status::InvalidArgument("index has no non-empty partition");
  }
  s->scored_models.clear();
  s->slot_of_partition.assign(P, IndexStructure::kNoSlot);
  for (size_t slot = 0; slot < s->scored_partitions.size(); ++slot) {
    const size_t p = s->scored_partitions[slot];
    s->scored_models.push_back(s->representatives[p]);
    s->slot_of_partition[p] = slot;
  }

  // Neighbor lists: for each unscored (propagation-only) partition, the
  // scored slots its Eq. 4 may read and their similarity weights.
  // Unbounded = every slot (exact). Bounded = the `propagation_neighbors`
  // most performance-similar scored representatives (ties -> lower slot).
  // Either way the list is ascending, so the propagation accumulates in the
  // same order the exact sweep would.
  s->neighbors.assign(P, {});
  s->neighbor_similarity.assign(P, {});
  const size_t num_slots = s->scored_models.size();
  const bool bounded =
      propagation_neighbors != 0 && propagation_neighbors < num_slots;
  std::vector<double> scratch;
  for (size_t p = 0; p < P; ++p) {
    if (s->slot_of_partition[p] != IndexStructure::kNoSlot) continue;
    if (s->members[p].empty()) continue;
    const std::vector<double>& rep_vec =
        s->vectors[s->representatives[p]];
    std::vector<std::pair<double, size_t>> ranked;
    ranked.reserve(num_slots);
    for (size_t g = 0; g < num_slots; ++g) {
      const std::vector<double>& other =
          s->vectors[s->scored_models[g]];
      const double sim =
          PerformanceSimilarity(rep_vec.data(), other.data(),
                                rep_vec.size(), s->similarity_top_k,
                                scratch);
      ranked.emplace_back(sim, g);
    }
    if (bounded) {
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const std::pair<double, size_t>& a,
                          const std::pair<double, size_t>& b) {
                         return a.first > b.first;
                       });
      ranked.resize(propagation_neighbors);
      std::sort(ranked.begin(), ranked.end(),
                [](const std::pair<double, size_t>& a,
                   const std::pair<double, size_t>& b) {
                  return a.second < b.second;
                });
    }
    s->neighbors[p].reserve(ranked.size());
    s->neighbor_similarity[p].reserve(ranked.size());
    for (const auto& [sim, g] : ranked) {
      s->neighbors[p].push_back(g);
      s->neighbor_similarity[p].push_back(sim);
    }
  }

  // Static probe priority: descending representative prior, ties ->
  // ascending partition id (stable sort over the ascending scored list).
  s->probe_priority = s->scored_partitions;
  std::stable_sort(s->probe_priority.begin(), s->probe_priority.end(),
                   [&](size_t a, size_t b) {
                     return s->prior[s->representatives[a]] >
                            s->prior[s->representatives[b]];
                   });

  // Pilot order: farthest-point-first over the representative vectors,
  // seeded with the top static priority. O(scored^2 * dims) offline; the
  // online probe only slices a prefix.
  s->pilot_order.clear();
  s->pilot_order.reserve(num_slots);
  std::vector<double> min_d2(num_slots,
                             std::numeric_limits<double>::infinity());
  std::vector<char> chosen(num_slots, 0);
  auto slot_of = [&](size_t partition) {
    return s->slot_of_partition[partition];
  };
  size_t next = slot_of(s->probe_priority[0]);
  for (size_t round = 0; round < num_slots; ++round) {
    chosen[next] = 1;
    s->pilot_order.push_back(s->scored_partitions[next]);
    const std::vector<double>& picked = s->vectors[s->scored_models[next]];
    size_t best = IndexStructure::kNoSlot;
    double best_d2 = -1.0;
    for (size_t g = 0; g < num_slots; ++g) {
      if (chosen[g]) continue;
      const std::vector<double>& other = s->vectors[s->scored_models[g]];
      double d2 = 0.0;
      for (size_t d = 0; d < other.size(); ++d) {
        const double diff = other[d] - picked[d];
        d2 += diff * diff;
      }
      if (d2 < min_d2[g]) min_d2[g] = d2;
      if (min_d2[g] > best_d2) {  // Strict >: lowest slot wins ties.
        best_d2 = min_d2[g];
        best = g;
      }
    }
    if (best == IndexStructure::kNoSlot) break;
    next = best;
  }
  return Status::OK();
}

std::vector<size_t> PilotPartitions(const IndexStructure& s, size_t count) {
  const size_t take = std::min(count, s.pilot_order.size());
  std::vector<size_t> pilots(s.pilot_order.begin(),
                             s.pilot_order.begin() +
                                 static_cast<long>(take));
  std::sort(pilots.begin(), pilots.end());
  return pilots;
}

std::vector<size_t> RouteByPilotScores(const IndexStructure& s,
                                       const std::vector<size_t>& pilots,
                                       const std::vector<double>& pilot_scores,
                                       size_t count) {
  std::vector<char> is_pilot(s.num_partitions(), 0);
  for (size_t p : pilots) is_pilot[p] = 1;
  // Predicted recall value of an unprobed partition: its representative's
  // prior x the similarity-weighted average of the measured pilot scores,
  // weighted by the Eq. 4 decay kernel — the same notion of "performs
  // like" that propagation uses, sharp enough that near pilots dominate
  // and far pilots fade. O(scored x pilots) kernel evaluations per query,
  // a few flops each — noise next to one forward pass.
  std::vector<std::pair<double, size_t>> ranked;
  std::vector<double> scratch;
  for (size_t p : s.scored_partitions) {
    if (is_pilot[p]) continue;
    const std::vector<double>& rep_vec = s.vectors[s.representatives[p]];
    double accum = 0.0;
    double weight = 0.0;
    for (size_t i = 0; i < pilots.size(); ++i) {
      const std::vector<double>& pilot_vec =
          s.vectors[s.representatives[pilots[i]]];
      const double sim =
          PerformanceSimilarity(rep_vec.data(), pilot_vec.data(),
                                rep_vec.size(), s.similarity_top_k, scratch);
      accum += sim * pilot_scores[i];
      weight += sim;
    }
    const double predicted =
        weight > 0.0 ? s.prior[s.representatives[p]] * (accum / weight) : 0.0;
    ranked.emplace_back(predicted, p);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const std::pair<double, size_t>& a,
                      const std::pair<double, size_t>& b) {
                     return a.first > b.first;
                   });
  if (ranked.size() > count) ranked.resize(count);
  std::vector<size_t> routed;
  routed.reserve(ranked.size());
  for (const auto& [predicted, p] : ranked) routed.push_back(p);
  std::sort(routed.begin(), routed.end());
  return routed;
}

StatusOr<BruteForceRecallIndex> BruteForceRecallIndex::Create(
    std::vector<std::vector<double>> vectors, std::vector<double> prior,
    std::vector<int> assignments, int num_partitions,
    size_t similarity_top_k) {
  TPS_RETURN_NOT_OK(ValidateIndexInputs(vectors, prior, assignments,
                                        num_partitions));
  if (similarity_top_k == 0) {
    return Status::InvalidArgument("similarity_top_k must be >= 1");
  }
  BruteForceRecallIndex index;
  IndexStructure& s = index.structure_;
  s.similarity_top_k = similarity_top_k;
  s.vectors = std::move(vectors);
  s.prior = std::move(prior);
  s.assignments = std::move(assignments);
  s.members.resize(static_cast<size_t>(num_partitions));
  TPS_RETURN_NOT_OK(FinalizeIndexStructure(&s, /*propagation_neighbors=*/0));
  return index;
}

std::vector<size_t> BruteForceRecallIndex::ProbePartitions(
    size_t nprobe, size_t target_dim) const {
  (void)nprobe;      // The oracle always probes everything,
  (void)target_dim;  // so routing hints are moot.
  return structure_.scored_partitions;
}

}  // namespace tps
