#include "bench/lib/ensemble.h"

#include <cmath>

#include "data/latent.h"
#include "matrix/vector_ops.h"
#include "util/rng.h"

namespace tps {

namespace {

/// Standard normal CDF.
double NormalCdf(double x) {
  return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0)));
}

/// Standard normal quantile via bisection (plenty accurate for thresholds
/// computed once per ensemble member).
double NormalQuantile(double p) {
  if (p <= 0.0) return -8.0;
  if (p >= 1.0) return 8.0;
  double lo = -8.0, hi = 8.0;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (NormalCdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

StatusOr<EnsembleResult> EvaluateEnsemble(const ModelZoo& zoo,
                                          const std::vector<size_t>& members,
                                          const Dataset& target,
                                          const FineTuneSimulator& simulator,
                                          const Hyperparams& hp,
                                          const EnsembleOptions& options) {
  if (members.empty()) {
    return Status::InvalidArgument("ensemble needs >= 1 member");
  }
  if (options.num_examples < 1) {
    return Status::InvalidArgument("ensemble needs >= 1 virtual example");
  }
  if (options.shared_difficulty_weight < 0.0 ||
      options.shared_difficulty_weight > 1.0) {
    return Status::InvalidArgument(
        "shared_difficulty_weight must be in [0, 1]");
  }

  EnsembleResult result;
  // Member skills (final fine-tuned accuracies) and per-member correctness
  // thresholds under the Gaussian copula: member m answers example e
  // correctly iff s_{m,e} < Phi^{-1}(accuracy_m), where s is standard
  // normal, so marginal correctness probability is exactly the accuracy.
  std::vector<double> thresholds;
  std::vector<const std::vector<double>*> affinities;
  for (size_t index : members) {
    if (index >= zoo.size()) {
      return Status::OutOfRange("ensemble member index out of range");
    }
    TPS_ASSIGN_OR_RETURN(TrainingRun run,
                         simulator.Run(zoo.model(index), target, hp));
    result.member_accuracies.push_back(run.final_test());
    thresholds.push_back(NormalQuantile(run.final_test()));
    affinities.push_back(&zoo.model(index).affinity());
  }

  // Diversity diagnostic.
  if (members.size() > 1) {
    double total = 0.0;
    size_t pairs = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        total += vec::CosineSimilarity(*affinities[i], *affinities[j]);
        ++pairs;
      }
    }
    result.mean_member_similarity = total / static_cast<double>(pairs);
  } else {
    result.mean_member_similarity = 1.0;
  }

  const double rho = options.shared_difficulty_weight;
  Rng rng(latent::CombineSeeds(
      latent::CombineSeeds(target.seed(), options.seed),
      latent::HashString("ensemble-vote")));

  size_t ensemble_correct = 0;
  std::vector<double> basis(latent::kDims);
  for (int e = 0; e < options.num_examples; ++e) {
    // Shared difficulty factor and the per-example latent direction whose
    // projections give member-specific factors correlated by affinity
    // cosine.
    const double shared = rng.Normal();
    for (double& b : basis) b = rng.Normal();

    size_t votes = 0;
    for (size_t m = 0; m < members.size(); ++m) {
      const double member_factor = vec::Dot(*affinities[m], basis);
      const double score =
          std::sqrt(rho) * shared + std::sqrt(1.0 - rho) * member_factor;
      if (score < thresholds[m]) ++votes;
    }
    if (2 * votes > members.size()) ++ensemble_correct;
  }
  result.ensemble_accuracy = static_cast<double>(ensemble_correct) /
                             static_cast<double>(options.num_examples);
  return result;
}

}  // namespace tps
