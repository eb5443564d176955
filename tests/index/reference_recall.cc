#include "index/reference_recall.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "clustering/distance.h"
#include "transfer/proxy_scorer.h"

namespace tps {

StatusOr<RecallResult> ReferenceRecall(const ModelZoo& zoo,
                                       const PerformanceMatrix& matrix,
                                       const ModelClustering& clustering,
                                       const Dataset& target,
                                       const RecallOptions& options,
                                       EpochBudget* budget) {
  const size_t n = zoo.size();
  if (n == 0) return Status::FailedPrecondition("empty model zoo");
  if (clustering.clusters.assignments.size() != n) {
    return Status::FailedPrecondition(
        "clustering does not match the zoo size");
  }
  const std::vector<std::string> names =
      options.proxies.empty() ? std::vector<std::string>{options.proxy}
                              : options.proxies;
  std::vector<std::unique_ptr<ProxyScorer>> scorers;
  for (const std::string& name : names) {
    TPS_ASSIGN_OR_RETURN(std::unique_ptr<ProxyScorer> scorer,
                         MakeProxyScorer(name, options.kernel_mode));
    scorers.push_back(std::move(scorer));
  }

  // Scored set: the non-singleton clusters' representatives, or every
  // cluster's when every cluster is a singleton.
  std::vector<int> scored_clusters = clustering.NonSingletonClusters();
  if (scored_clusters.empty()) {
    for (int c = 0; c < clustering.clusters.num_clusters; ++c) {
      scored_clusters.push_back(c);
    }
  }
  std::vector<size_t> scored;
  for (int c : scored_clusters) {
    scored.push_back(clustering.representatives[static_cast<size_t>(c)]);
  }

  // Per-scorer min-max normalization, averaged across scorers.
  std::vector<double> norm(scored.size(), 0.0);
  for (const std::unique_ptr<ProxyScorer>& scorer : scorers) {
    std::vector<double> raw;
    for (size_t m : scored) {
      TPS_ASSIGN_OR_RETURN(const double score,
                           scorer->Score(zoo.model(m), target));
      raw.push_back(score);
    }
    const std::vector<double> normalized = MinMaxNormalize(raw);
    for (size_t i = 0; i < norm.size(); ++i) {
      norm[i] += normalized[i] / static_cast<double>(scorers.size());
    }
  }
  RecallResult result;
  result.proxies_computed = scored.size();
  if (budget != nullptr) {
    for (size_t i = 0; i < scored.size(); ++i) budget->ChargeProxyInference();
  }

  // A scored cluster's proxy is its representative's; -1 marks the rest.
  std::vector<double> proxy_of_cluster(
      static_cast<size_t>(clustering.clusters.num_clusters), -1.0);
  for (size_t i = 0; i < scored.size(); ++i) {
    proxy_of_cluster[static_cast<size_t>(scored_clusters[i])] = norm[i];
  }

  std::vector<double> scratch;
  for (size_t m = 0; m < n; ++m) {
    RecallEntry entry;
    entry.model_index = m;
    entry.prior_accuracy = matrix.ModelAverageAccuracy(m);
    const double cluster_proxy =
        proxy_of_cluster[static_cast<size_t>(clustering.ClusterOf(m))];
    if (cluster_proxy >= 0.0) {
      entry.proxy_component = cluster_proxy;  // Eq. 3.
    } else {
      // Eq. 4: similarity-decayed propagation from every scored
      // representative, in scored order.
      entry.via_propagation = true;
      const std::vector<double> vec = matrix.ModelVector(m);
      double accum = 0.0;
      for (size_t i = 0; i < scored.size(); ++i) {
        const std::vector<double> rep = matrix.ModelVector(scored[i]);
        accum += PerformanceSimilarity(vec.data(), rep.data(), vec.size(),
                                       clustering.options.top_k, scratch) *
                 norm[i];
      }
      entry.proxy_component = accum / static_cast<double>(scored.size());
    }
    entry.recall_score = options.use_accuracy_prior
                             ? entry.prior_accuracy * entry.proxy_component
                             : entry.proxy_component;
    result.ranked.push_back(entry);
  }
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const RecallEntry& a, const RecallEntry& b) {
                     return a.recall_score > b.recall_score;
                   });
  return result;
}

ModelClustering SingletonClustering(size_t num_models) {
  ModelClustering clustering;
  clustering.clusters.num_clusters = static_cast<int>(num_models);
  for (size_t m = 0; m < num_models; ++m) {
    clustering.clusters.assignments.push_back(static_cast<int>(m));
    clustering.representatives.push_back(m);
  }
  return clustering;
}

}  // namespace tps
