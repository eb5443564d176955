#include "bench/harness.h"

#include <cstdlib>
#include <iostream>

#include "model/paper_zoo.h"

namespace tps {
namespace bench {

StatusOr<World> BuildWorld(TaskDomain domain) {
  return BuildWorld(domain, DefaultThreads());
}

StatusOr<World> BuildWorld(TaskDomain domain, int num_threads) {
  World world;
  world.domain = domain;

  TPS_ASSIGN_OR_RETURN(DatasetRegistry registry,
                       DatasetRegistry::CreatePaperInventory());
  world.registry = std::make_unique<DatasetRegistry>(std::move(registry));

  TPS_ASSIGN_OR_RETURN(ModelZoo zoo,
                       ModelZoo::Create(domain == TaskDomain::kNLP
                                            ? NlpPaperZooSpecs()
                                            : CvPaperZooSpecs()));
  world.zoo = std::make_unique<ModelZoo>(std::move(zoo));

  world.simulator = std::make_unique<FineTuneSimulator>();

  TPS_ASSIGN_OR_RETURN(
      PerformanceMatrix matrix,
      PerformanceMatrix::BuildParallel(
          *world.zoo, world.registry->Benchmarks(domain), *world.simulator,
          Hyperparams::DefaultsFor(domain), num_threads));
  world.matrix = std::make_unique<PerformanceMatrix>(std::move(matrix));

  ModelClusteringOptions options;  // Paper defaults.
  TPS_ASSIGN_OR_RETURN(ModelClustering clustering,
                       ClusterModels(*world.matrix, *world.zoo, options));
  world.clustering = std::make_unique<ModelClustering>(std::move(clustering));
  return world;
}

void ExitIfError(const Status& status, const std::string& context) {
  if (!status.ok()) {
    std::cerr << "FATAL (" << context << "): " << status.ToString()
              << std::endl;
    std::exit(1);
  }
}

}  // namespace bench
}  // namespace tps
