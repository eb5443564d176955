#ifndef TPS_BENCH_HARNESS_H_
#define TPS_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "bench/lib/bench_util.h"
#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "data/registry.h"
#include "model/zoo.h"
#include "sim/finetune_simulator.h"
#include "util/statusor.h"

namespace tps {
namespace bench {

/// Everything a paper-experiment harness needs for one domain: the dataset
/// inventory, the model zoo, the offline artifacts (performance matrix +
/// model clustering) and the fine-tune simulator.
struct World {
  std::unique_ptr<DatasetRegistry> registry;
  std::unique_ptr<ModelZoo> zoo;
  std::unique_ptr<FineTuneSimulator> simulator;
  std::unique_ptr<PerformanceMatrix> matrix;
  std::unique_ptr<ModelClustering> clustering;
  TaskDomain domain = TaskDomain::kNLP;

  std::vector<const Dataset*> Benchmarks() const {
    return registry->Benchmarks(domain);
  }
  std::vector<const Dataset*> Targets() const {
    return ::tps::Targets(*registry, domain);
  }
  Hyperparams DefaultHp() const { return Hyperparams::DefaultsFor(domain); }
};

/// Builds the full offline world for one domain with the paper's default
/// configuration (Eq. 1 k=5, hierarchical average-linkage clustering).
/// The performance matrix is built on a thread pool sized to the hardware
/// (clamped to the |D| x |M| grid); the result is bit-identical to a
/// serial build.
StatusOr<World> BuildWorld(TaskDomain domain);

/// As above with an explicit worker count (1 = fully serial build).
StatusOr<World> BuildWorld(TaskDomain domain, int num_threads);

/// Exits the process with a message if `status` is not OK. Harness `main`s
/// use this instead of silently continuing with bad data.
void ExitIfError(const Status& status, const std::string& context);

template <typename T>
T ExitIfError(StatusOr<T> status_or, const std::string& context) {
  ExitIfError(status_or.status(), context);
  return std::move(status_or).value();
}

}  // namespace bench
}  // namespace tps

#endif  // TPS_BENCH_HARNESS_H_
