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

FineTuneSimulator::FineTuneSimulator(TransferOracle oracle)
    : oracle_(std::move(oracle)),
      runs_counter_(&MetricsRegistry::Default()->counter("sim.runs")),
      epochs_counter_(
          &MetricsRegistry::Default()->counter("sim.epochs_simulated")) {}

StatusOr<TrainingRun> FineTuneSimulator::Run(const PretrainedModel& model,
                                             const Dataset& dataset,
                                             const Hyperparams& hp) const {
  TrainingRun run;
  run.val_accuracy.resize(static_cast<size_t>(std::max(hp.epochs, 0)));
  run.test_accuracy.resize(run.val_accuracy.size());
  TPS_RETURN_NOT_OK(
      Simulate(model, dataset, hp, run.val_accuracy, run.test_accuracy));
  run.model_name = model.name();
  run.dataset_name = dataset.name();
  run.hyperparams = hp;
  return run;
}

Status FineTuneSimulator::Simulate(const PretrainedModel& model,
                                   const Dataset& dataset,
                                   const Hyperparams& hp,
                                   std::span<double> val,
                                   std::span<double> test) const {
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
  const size_t epochs = static_cast<size_t>(hp.epochs);
  if (val.size() != epochs || test.size() != epochs) {
    return Status::InvalidArgument("curve spans must hold hp.epochs values");
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

  for (size_t e = 0; e < epochs; ++e) {
    const double t = static_cast<double>(e + 1);
    const double progress = 1.0 - std::exp(-rate * t);
    const double decline = overfit * std::max(0.0, t - onset_epoch);
    const double clean =
        chance + (truth.asymptotic_accuracy - chance) * progress - decline;
    // Validation is noisier than test (smaller split).
    val[e] = stats::Clamp(clean + noise_scale * 1.4 * rng.Normal(), 0.0, 1.0);
    test[e] =
        stats::Clamp(clean - 0.004 + noise_scale * rng.Normal(), 0.0, 1.0);
  }
  runs_counter_->Increment();
  epochs_counter_->Increment(epochs);
  return Status::OK();
}

}  // namespace tps
