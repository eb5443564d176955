#include "sim/finetune_simulator.h"

#include <algorithm>
#include <cmath>

#include "data/latent.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"

namespace tps {

namespace {
/// The paper's default learning rate; curve shapes are expressed relative
/// to it.
constexpr double kReferenceLearningRate = 3e-5;
}  // namespace

double TrainingRun::best_val() const {
  return val_accuracy.empty() ? 0.0 : stats::Max(val_accuracy);
}

FineTuneSimulator::FineTuneSimulator(TransferOracle oracle)
    : oracle_(std::move(oracle)),
      runs_counter_(&MetricsRegistry::Default()->counter("sim.runs")),
      epochs_counter_(
          &MetricsRegistry::Default()->counter("sim.epochs_simulated")) {}

StatusOr<TrainingRun> FineTuneSimulator::Run(const PretrainedModel& model,
                                             const Dataset& dataset,
                                             const Hyperparams& hp) const {
  if (model.domain() != dataset.spec().domain) {
    return Status::InvalidArgument(
        "cannot fine-tune " + model.name() + " (" + ToString(model.domain()) +
        ") on " + dataset.name() + " (" +
        ToString(dataset.spec().domain) + ")");
  }
  if (hp.epochs < 1) {
    return Status::InvalidArgument("hyperparams need at least 1 epoch");
  }
  if (hp.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning rate must be positive");
  }

  const TransferTruth truth = oracle_.Evaluate(model, dataset);
  const double chance = dataset.spec().EffectiveChance();

  // Learning-rate scaling: lower rates converge more slowly and overfit
  // less; higher rates the reverse. Sub-linear so a 3x rate change does not
  // trivialize training.
  const double lr_ratio = hp.learning_rate / kReferenceLearningRate;
  const double rate = truth.convergence_rate * std::pow(lr_ratio, 0.7);
  const double overfit =
      truth.overfit_coefficient * std::pow(lr_ratio, 1.5);
  // Overfitting sets in once the curve has essentially saturated.
  const double onset_epoch = 2.0 / std::max(rate, 1e-3);

  Rng rng(latent::CombineSeeds(
      latent::CombineSeeds(model.seed(), dataset.seed()),
      latent::CombineSeeds(latent::HashString("finetune-run"),
                           hp.seed * 2654435761ULL +
                               static_cast<uint64_t>(hp.learning_rate * 1e9))));
  // Per-epoch measurement noise, scaled by the dataset's achievable range
  // (see TransferOracle) so narrow-range tasks keep a usable
  // signal-to-noise ratio.
  const double noise_scale =
      0.008 * (1.0 + dataset.spec().difficulty) *
      (dataset.spec().EffectiveCeiling() - chance) / 0.6;

  TrainingRun run;
  run.model_name = model.name();
  run.dataset_name = dataset.name();
  run.hyperparams = hp;
  run.val_accuracy.reserve(static_cast<size_t>(hp.epochs));
  run.test_accuracy.reserve(static_cast<size_t>(hp.epochs));

  for (int epoch = 1; epoch <= hp.epochs; ++epoch) {
    const double t = static_cast<double>(epoch);
    const double progress = 1.0 - std::exp(-rate * t);
    const double decline = overfit * std::max(0.0, t - onset_epoch);
    const double clean =
        chance + (truth.asymptotic_accuracy - chance) * progress - decline;
    // Validation is noisier than test (smaller split).
    const double val =
        stats::Clamp(clean + noise_scale * 1.4 * rng.Normal(), 0.0, 1.0);
    const double test =
        stats::Clamp(clean - 0.004 + noise_scale * rng.Normal(), 0.0, 1.0);
    run.val_accuracy.push_back(val);
    run.test_accuracy.push_back(test);
  }
  runs_counter_->Increment();
  epochs_counter_->Increment(static_cast<uint64_t>(hp.epochs));
  return run;
}

StatusOr<TrainingRun> FineTuneSimulator::RunWithDefaults(
    const PretrainedModel& model, const Dataset& dataset) const {
  return Run(model, dataset, Hyperparams::DefaultsFor(dataset.spec().domain));
}

}  // namespace tps
