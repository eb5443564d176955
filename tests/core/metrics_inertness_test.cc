// Instrumentation-inertness suite: the observability layer (MetricsRegistry
// + SelectionTrace) must be pure observation. Running the two-phase
// pipeline with metrics and trace collection enabled must produce a
// TwoPhaseReport BIT-identical — every recall entry, every score, the
// selection outcome and the whole epoch ledger, compared with ==, never
// within-epsilon — to a run with a disabled (no-op) registry and no trace,
// on both paper domains, serial and parallel. The suite also asserts the
// instruments really did record (non-zero counters, populated trace), so
// inertness is proved for live instrumentation, not a vacuous no-op.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "core/two_phase.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "sim/finetune_simulator.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace tps {
namespace {

struct PaperWorld {
  ModelZoo zoo;
  DatasetRegistry registry;
  PerformanceMatrix matrix;
  ModelClustering clustering;
  Hyperparams hp;
};

PaperWorld MakePaperWorld(TaskDomain domain) {
  ModelZoo zoo = *ModelZoo::Create(domain == TaskDomain::kNLP
                                       ? NlpPaperZooSpecs()
                                       : CvPaperZooSpecs());
  DatasetRegistry registry = *DatasetRegistry::CreatePaperInventory();
  FineTuneSimulator simulator;
  const Hyperparams hp = Hyperparams::DefaultsFor(domain);
  PerformanceMatrix matrix = *PerformanceMatrix::Build(
      zoo, registry.Benchmarks(domain), simulator, hp);
  ModelClustering clustering =
      *ClusterModels(matrix, zoo, ModelClusteringOptions());
  return PaperWorld{std::move(zoo), std::move(registry), std::move(matrix),
                    std::move(clustering), hp};
}

void ExpectBitIdentical(const TwoPhaseReport& a, const TwoPhaseReport& b,
                        const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(a.recall.ranked.size(), b.recall.ranked.size());
  for (size_t i = 0; i < a.recall.ranked.size(); ++i) {
    EXPECT_EQ(a.recall.ranked[i].model_index,
              b.recall.ranked[i].model_index);
    EXPECT_EQ(a.recall.ranked[i].recall_score,
              b.recall.ranked[i].recall_score);
    EXPECT_EQ(a.recall.ranked[i].prior_accuracy,
              b.recall.ranked[i].prior_accuracy);
    EXPECT_EQ(a.recall.ranked[i].proxy_component,
              b.recall.ranked[i].proxy_component);
    EXPECT_EQ(a.recall.ranked[i].via_propagation,
              b.recall.ranked[i].via_propagation);
  }
  EXPECT_EQ(a.recall.proxies_computed, b.recall.proxies_computed);
  EXPECT_EQ(a.selection.selected_model, b.selection.selected_model);
  EXPECT_EQ(a.selection.selected_accuracy, b.selection.selected_accuracy);
  EXPECT_EQ(a.selection.training_epochs, b.selection.training_epochs);
  EXPECT_EQ(a.selection.survivors_per_stage,
            b.selection.survivors_per_stage);
  EXPECT_EQ(a.budget.training_epochs(), b.budget.training_epochs());
  EXPECT_EQ(a.budget.inference_epochs(), b.budget.inference_epochs());
  EXPECT_EQ(a.budget.total_epochs(), b.budget.total_epochs());
}

class MetricsInertnessTest : public testing::TestWithParam<TaskDomain> {};

TEST_P(MetricsInertnessTest, InstrumentedRunBitIdenticalToNoOpRun) {
  const PaperWorld world = MakePaperWorld(GetParam());
  FineTuneSimulator simulator;
  TwoPhaseSelector selector(&world.zoo, &world.matrix, &world.clustering,
                            &simulator);

  for (const Dataset* target : Targets(world.registry, GetParam())) {
    // Baseline: disabled registry (every recording a no-op), no trace.
    MetricsRegistry disabled(/*enabled=*/false);
    TwoPhaseOptions baseline_options;
    baseline_options.metrics = &disabled;
    const TwoPhaseReport baseline =
        *selector.Select(*target, baseline_options, world.hp);

    // Fully instrumented: live registry + full trace collection.
    MetricsRegistry live;
    SelectionTrace trace;
    TwoPhaseOptions instrumented_options;
    instrumented_options.metrics = &live;
    instrumented_options.trace = &trace;
    const TwoPhaseReport instrumented =
        *selector.Select(*target, instrumented_options, world.hp);

    ExpectBitIdentical(baseline, instrumented,
                       "instrumented vs no-op, " + target->name());

    // The instrumentation was genuinely live, not vacuously inert.
    EXPECT_EQ(live.counter("recall.runs").value(), 1u);
    EXPECT_EQ(live.counter("fine.runs").value(), 1u);
    EXPECT_EQ(live.counter("two_phase.runs").value(), 1u);
    EXPECT_EQ(live.counter("recall.proxies_computed").value(),
              baseline.recall.proxies_computed);
    EXPECT_EQ(live.histogram("recall.wall_us").count(), 1u);
    EXPECT_EQ(live.histogram("fine.wall_us").count(), 1u);
    EXPECT_EQ(trace.selected_model, baseline.selection.selected_model);
    EXPECT_FALSE(trace.recall.ranked.empty());
    EXPECT_FALSE(trace.stages.empty());
    // And the disabled registry recorded nothing.
    EXPECT_EQ(disabled.counter("recall.runs").value(), 0u);

    // Default-registry run (options.metrics = nullptr routes to
    // MetricsRegistry::Default()) is equally inert.
    TwoPhaseOptions default_options;
    const TwoPhaseReport defaulted =
        *selector.Select(*target, default_options, world.hp);
    ExpectBitIdentical(baseline, defaulted,
                       "default registry, " + target->name());
  }
}

TEST_P(MetricsInertnessTest, InstrumentedParallelMatchesNoOpSerial) {
  // The cross product: observability on + thread pool on, against the
  // uninstrumented serial reference. Catches any instrumentation that
  // would perturb task ordering or reductions.
  const PaperWorld world = MakePaperWorld(GetParam());
  FineTuneSimulator simulator;
  TwoPhaseSelector selector(&world.zoo, &world.matrix, &world.clustering,
                            &simulator);
  const Dataset* target = Targets(world.registry, GetParam()).front();

  MetricsRegistry disabled(/*enabled=*/false);
  TwoPhaseOptions baseline_options;
  baseline_options.metrics = &disabled;
  const TwoPhaseReport baseline =
      *selector.Select(*target, baseline_options, world.hp);

  for (int threads : {2, 7}) {
    ThreadPool pool(threads);
    MetricsRegistry live;
    SelectionTrace trace;
    TwoPhaseOptions options;
    options.metrics = &live;
    options.trace = &trace;
    const TwoPhaseReport parallel =
        *selector.Select(*target, options, world.hp, &pool);
    ExpectBitIdentical(baseline, parallel,
                       "instrumented parallel, " +
                           std::to_string(threads) + " threads");
    EXPECT_EQ(live.counter("two_phase.runs").value(), 1u);
    EXPECT_EQ(trace.selected_model, baseline.selection.selected_model);
  }
}

TEST_P(MetricsInertnessTest, TraceIsIdenticalAcrossRepeatsAndThreadCounts) {
  // The trace itself is part of the determinism contract: same input, same
  // trace, bit for bit, serial or parallel (wall_ms excluded — scrubbed to
  // zero before comparing, it is the one legitimately nondeterministic
  // field).
  const PaperWorld world = MakePaperWorld(GetParam());
  FineTuneSimulator simulator;
  TwoPhaseSelector selector(&world.zoo, &world.matrix, &world.clustering,
                            &simulator);
  const Dataset* target = Targets(world.registry, GetParam()).front();

  const auto traced_run = [&](ThreadPool* pool) {
    SelectionTrace trace;
    TwoPhaseOptions options;
    options.trace = &trace;
    EXPECT_TRUE(selector.Select(*target, options, world.hp, pool).ok());
    trace.recall.wall_ms = 0.0;
    trace.fine_wall_ms = 0.0;
    return trace;
  };

  const SelectionTrace serial = traced_run(nullptr);
  const SelectionTrace repeat = traced_run(nullptr);
  EXPECT_EQ(serial, repeat);
  EXPECT_EQ(serial.ToJson(), repeat.ToJson());
  ThreadPool pool(7);
  const SelectionTrace parallel = traced_run(&pool);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.ToJson(), parallel.ToJson());
}

INSTANTIATE_TEST_SUITE_P(BothDomains, MetricsInertnessTest,
                         testing::Values(TaskDomain::kNLP, TaskDomain::kCV),
                         [](const testing::TestParamInfo<TaskDomain>& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace tps
