#include "core/coarse_recall.h"

#include <algorithm>

#include "clustering/distance.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace tps {

std::vector<size_t> RecallResult::TopModels(size_t k) const {
  std::vector<size_t> top;
  top.reserve(std::min(k, ranked.size()));
  for (size_t i = 0; i < ranked.size() && i < k; ++i) {
    top.push_back(ranked[i].model_index);
  }
  return top;
}

size_t RecallResult::RankOf(size_t model_index) const {
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].model_index == model_index) return i;
  }
  return ranked.size();
}

namespace {

// The exact index CoarseRecall ranks through when a request brings none.
StatusOr<BruteForceRecallIndex> ExactIndex(const ModelZoo* zoo,
                                           const PerformanceMatrix* matrix,
                                           const ModelClustering* clustering) {
  TPS_CHECK(zoo != nullptr);
  TPS_CHECK(matrix != nullptr);
  TPS_CHECK(clustering != nullptr);
  if (clustering->clusters.assignments.size() != zoo->size()) {
    return Status::FailedPrecondition(
        "clustering does not match the zoo size");
  }
  return IndexFromClustering(*matrix, *clustering);
}

}  // namespace

CoarseRecall::CoarseRecall(const ModelZoo* zoo,
                           const PerformanceMatrix* matrix,
                           const ModelClustering* clustering)
    : zoo_(zoo),
      matrix_(matrix),
      exact_index_(ExactIndex(zoo, matrix, clustering)) {}

StatusOr<RecallResult> CoarseRecall::Recall(const Dataset& target,
                                            const RecallOptions& options,
                                            EpochBudget* budget,
                                            ThreadPool* pool,
                                            MetricsRegistry* metrics,
                                            SelectionTrace* trace,
                                            const CancelToken* cancel) const {
  if (metrics == nullptr) metrics = MetricsRegistry::Default();
  TPS_RETURN_NOT_OK(CheckCancel(cancel, "coarse recall entry"));
  WallTimer phase_timer;
  const size_t n = zoo_->size();
  if (n == 0) return Status::FailedPrecondition("empty model zoo");
  TPS_RETURN_NOT_OK(exact_index_.status());
  // The one ranking path: the request's index, or the exact one.
  const RecallIndex& index =
      options.index != nullptr ? *options.index : *exact_index_;
  const IndexStructure& s = index.structure();
  if (s.num_models() != n) {
    return Status::FailedPrecondition(
        "recall index does not match the zoo size");
  }
  std::vector<std::unique_ptr<ProxyScorer>> scorers;
  if (options.proxies.empty()) {
    TPS_ASSIGN_OR_RETURN(std::unique_ptr<ProxyScorer> scorer,
                         MakeProxyScorer(options.proxy, options.kernel_mode));
    scorers.push_back(std::move(scorer));
  } else {
    for (const std::string& name : options.proxies) {
      TPS_ASSIGN_OR_RETURN(std::unique_ptr<ProxyScorer> scorer,
                           MakeProxyScorer(name, options.kernel_mode));
      scorers.push_back(std::move(scorer));
    }
  }

  RecallResult result;

  // --- Step 1: compute raw proxy scores for the representatives of the
  // partitions the index probes. ---
  // `probed` holds the probed scored-partition ids and `probed_slot` the
  // partition -> slot map (slot = position in `scored_models`, which is
  // the layout of norm_scores). For a novel target below full probe the
  // budget is spent in two waves — spread pilots first, then partitions
  // routed by the pilots' measured proxies — so `probed` grows once
  // mid-phase.
  //
  // When the target is one of the benchmark columns the artifacts were
  // built over, tell the index which one: the backend can then route the
  // probe by recorded performance on the target instead of the static
  // prior-only priority. Name lookup over the dataset axis is
  // O(#benchmarks), independent of the zoo size.
  size_t target_dim = IndexStructure::kNoSlot;
  const std::vector<std::string>& dataset_names = matrix_->dataset_names();
  for (size_t j = 0; j < dataset_names.size(); ++j) {
    if (dataset_names[j] == target.name()) {
      target_dim = j;
      break;
    }
  }
  std::vector<size_t> probed =
      index.ProbePartitions(options.nprobe, target_dim);
  // Novel target, partial probe: no stored column predicts the proxy
  // scores, so probing everything the static prior-priority picks risks
  // missing a target specialist. Split the same budget instead: half on
  // pilots spread across performance space (wave 1), half routed by the
  // pilots' measured proxies after they are scored (wave 2, below).
  size_t adaptive_budget = 0;  // Wave-2 width; 0 = single-wave probe.
  if (target_dim == IndexStructure::kNoSlot && probed.size() >= 2 &&
      probed.size() < s.scored_partitions.size()) {
    const size_t take = probed.size();
    const size_t pilots = std::max<size_t>(1, take / 2);
    adaptive_budget = take - pilots;
    probed = PilotPartitions(s, pilots);
  }
  std::vector<size_t> probed_slot(s.num_partitions(),
                                  IndexStructure::kNoSlot);
  std::vector<size_t> scored_models;
  for (size_t i = 0; i < probed.size(); ++i) {
    probed_slot[probed[i]] = i;
    scored_models.push_back(s.representatives[probed[i]]);
  }

  // Each proxy's raw scores are min-max normalized across the scored set,
  // then averaged (a single proxy degenerates to the paper's Eq. 2). All
  // proxies share one forward pass, so inference is charged once per
  // scored model. Each representative's forward pass is independent, so
  // they fan out over the pool into index-addressed slots; normalization
  // and averaging reduce the slots serially in model-index order.
  // The fingerprint half of the flight/cache key is shared by every scored
  // model, so it is hashed once per recall, not once per proxy.
  // Raw scores accumulate per wave (one wave everywhere except the
  // adaptive probe); normalization always runs once, over the final set.
  const uint64_t target_fingerprint =
      options.flight_group != nullptr ? DatasetFingerprint(target) : 0;
  std::vector<std::vector<double>> raw_per_scorer(scorers.size());
  auto score_wave = [&](const std::vector<size_t>& wave) -> Status {
    for (size_t si = 0; si < scorers.size(); ++si) {
      const std::unique_ptr<ProxyScorer>& scorer = scorers[si];
      std::vector<double> raw_scores(wave.size(), 0.0);
      if (pool == nullptr && options.score_cache == nullptr &&
          options.flight_group == nullptr) {
        // Serial uncached path: one ScoreBatch call shares the per-target
        // setup (label extraction, scratch) across every scored model. The
        // per-model cancellation checks still run — up front, so the check
        // count matches the per-model loop and no partial scoring precedes
        // a trip either way.
        for (size_t i = 0; i < wave.size(); ++i) {
          TPS_RETURN_NOT_OK(CheckCancel(cancel, "proxy fan-out"));
        }
        std::vector<const PretrainedModel*> models;
        models.reserve(wave.size());
        for (size_t m : wave) models.push_back(&zoo_->model(m));
        TPS_ASSIGN_OR_RETURN(raw_scores, scorer->ScoreBatch(models, target));
      } else {
        TPS_RETURN_NOT_OK(StatusParallelFor(
            pool, wave.size(), [&](size_t i) -> Status {
              TPS_RETURN_NOT_OK(CheckCancel(cancel, "proxy fan-out"));
              const PretrainedModel& model = zoo_->model(wave[i]);
              if (options.flight_group != nullptr) {
                ProxyCacheKey key;
                key.dataset_fingerprint = target_fingerprint;
                key.model = model.name();
                key.scorer = scorer->name();
                key.artifact_epoch = options.artifact_epoch;
                TPS_ASSIGN_OR_RETURN(
                    raw_scores[i],
                    options.flight_group->GetOrCompute(
                        options.score_cache, key,
                        /*poll_cancel=*/
                        [&]() {
                          return CheckCancel(cancel, "proxy flight wait");
                        },
                        /*compute=*/
                        [&]() { return scorer->Score(model, target); }));
              } else if (options.score_cache != nullptr) {
                TPS_ASSIGN_OR_RETURN(
                    raw_scores[i],
                    options.score_cache->GetOrCompute(*scorer, model, target,
                                                      options.artifact_epoch));
              } else {
                TPS_ASSIGN_OR_RETURN(raw_scores[i],
                                     scorer->Score(model, target));
              }
              return Status::OK();
            }));
      }
      raw_per_scorer[si].insert(raw_per_scorer[si].end(), raw_scores.begin(),
                                raw_scores.end());
    }
    return Status::OK();
  };
  // The scorer-averaged min-max normalization of the raw scores so far —
  // the final combination rule, reused mid-phase on the pilot wave to
  // route wave 2.
  auto combined_norm_scores = [&]() {
    std::vector<double> combined(raw_per_scorer[0].size(), 0.0);
    for (size_t si = 0; si < scorers.size(); ++si) {
      const std::vector<double> normalized =
          MinMaxNormalize(raw_per_scorer[si]);
      for (size_t i = 0; i < combined.size(); ++i) {
        combined[i] +=
            normalized[i] / static_cast<double>(scorers.size());
      }
    }
    return combined;
  };
  TPS_RETURN_NOT_OK(score_wave(scored_models));

  if (adaptive_budget > 0) {
    // Wave 2 of the adaptive probe: rank the unprobed scored partitions
    // by representative prior x similarity-weighted pilot proxies, spend
    // the rest of the budget there, and score those representatives too.
    const std::vector<size_t> routed =
        RouteByPilotScores(s, probed, combined_norm_scores(),
                           adaptive_budget);
    std::vector<size_t> wave;
    wave.reserve(routed.size());
    for (size_t p : routed) {
      probed_slot[p] = scored_models.size();
      scored_models.push_back(s.representatives[p]);
      wave.push_back(s.representatives[p]);
    }
    probed.insert(probed.end(), routed.begin(), routed.end());
    TPS_RETURN_NOT_OK(score_wave(wave));
  }

  const std::vector<double> norm_scores = combined_norm_scores();
  for (size_t i = 0; i < scored_models.size(); ++i) {
    if (budget != nullptr) budget->ChargeProxyInference();
    ++result.proxies_computed;
  }

  // --- Step 2: rank the probed posting lists (Eq. 3) plus the
  // propagation-only partitions (Eq. 4 over the precomputed neighbor
  // lists), reading only the index structure. The candidate set is the
  // probed members + every propagation-only member — at full probe that
  // is the whole zoo; below full probe the unprobed scored partitions are
  // skipped entirely, which is where the sub-linear latency comes from.
  // [indexed-recall-begin] — tools/check_no_linear_recall.sh forbids
  // zoo_/matrix_/clustering_ access in this section: the online path must
  // stay on the index structure.
  TPS_RETURN_NOT_OK(CheckCancel(cancel, "recall scoring"));
  std::vector<size_t> candidates;
  for (size_t p : probed) {
    candidates.insert(candidates.end(), s.members[p].begin(),
                      s.members[p].end());
  }
  for (size_t p = 0; p < s.num_partitions(); ++p) {
    if (s.slot_of_partition[p] != IndexStructure::kNoSlot) continue;
    candidates.insert(candidates.end(), s.members[p].begin(),
                      s.members[p].end());
  }
  // Ascending model order: the fan-out slots and the stable_sort then see
  // the same array a serial run would, so ties break identically.
  std::sort(candidates.begin(), candidates.end());
  result.ranked.resize(candidates.size());
  TPS_RETURN_NOT_OK(StatusParallelFor(
      pool, candidates.size(), [&](size_t i) -> Status {
        const size_t m = candidates[i];
        RecallEntry entry;
        entry.model_index = m;
        entry.prior_accuracy = s.prior[m];
        const size_t partition = static_cast<size_t>(s.assignments[m]);
        const size_t slot = probed_slot[partition];
        if (slot != IndexStructure::kNoSlot) {
          // Eq. 3: member of a probed partition inherits its
          // representative's normalized proxy.
          entry.proxy_component = norm_scores[slot];
        } else {
          // Eq. 4: similarity-decayed propagation, restricted to the
          // partition's precomputed neighbor slots (ascending, so the
          // accumulation order matches the exact index when the list is
          // full). Neighbors that were not probed this query contribute
          // nothing.
          entry.via_propagation = true;
          const std::vector<double>& my_vec = s.vectors[m];
          std::vector<double> scratch;
          double accum = 0.0;
          size_t count = 0;
          for (size_t g : s.neighbors[partition]) {
            const size_t neighbor_slot = probed_slot[s.scored_partitions[g]];
            if (neighbor_slot == IndexStructure::kNoSlot) continue;
            const double sim = PerformanceSimilarity(
                my_vec.data(), s.vectors[s.scored_models[g]].data(),
                my_vec.size(), s.similarity_top_k, scratch);
            accum += sim * norm_scores[neighbor_slot];
            ++count;
          }
          entry.proxy_component =
              count == 0 ? 0.0 : accum / static_cast<double>(count);
        }
        entry.recall_score = options.use_accuracy_prior
                                 ? entry.prior_accuracy * entry.proxy_component
                                 : entry.proxy_component;
        result.ranked[i] = entry;
        return Status::OK();
      }));
  // [indexed-recall-end]

  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const RecallEntry& a, const RecallEntry& b) {
                     return a.recall_score > b.recall_score;
                   });

  // --- Observability (pure recording; the result above is final). ---
  const double wall_ms = phase_timer.ElapsedMillis();
  metrics->counter("recall.runs").Increment();
  metrics->counter("recall.proxies_computed")
      .Increment(result.proxies_computed);
  metrics->counter("recall.models_ranked").Increment(result.ranked.size());
  metrics->histogram("recall.wall_us").Record(wall_ms * 1e3);
  if (trace != nullptr) {
    trace->recall.scored.clear();
    for (size_t i = 0; i < scored_models.size(); ++i) {
      TraceProxyScore score;
      score.model_index = scored_models[i];
      score.cluster = s.assignments[scored_models[i]];
      score.norm_score = norm_scores[i];
      trace->recall.scored.push_back(score);
    }
    trace->recall.ranked.clear();
    for (const RecallEntry& entry : result.ranked) {
      trace->recall.ranked.push_back(
          TraceRecallEntry{entry.model_index, entry.recall_score,
                           entry.prior_accuracy, entry.proxy_component,
                           entry.via_propagation});
    }
    trace->recall.recalled = result.TopModels(options.top_k_models);
    trace->recall.proxies_computed = result.proxies_computed;
    trace->recall.inference_epochs =
        0.5 * static_cast<double>(result.proxies_computed);
    trace->recall.wall_ms = wall_ms;
  }
  return result;
}

}  // namespace tps
