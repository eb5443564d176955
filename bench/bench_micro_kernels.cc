// Microbenchmarks (google-benchmark) for the library's computational
// kernels: LEEP / NCE / LogME / kNN proxy scoring, pairwise Eq. 1
// distances, k-means, hierarchical clustering, and the fine-tune
// simulator. These are the per-call costs the online phase pays.
//
// Each proxy scorer is timed as production runs it, through
// MakeProxyScorer. A custom main mirrors every measured time into the
// BENCH_micro_kernels.json sidecar (see bench/telemetry.h).

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench/telemetry.h"
#include "clustering/distance.h"
#include "clustering/hierarchical.h"
#include "clustering/kmeans.h"
#include "data/registry.h"
#include "model/paper_zoo.h"
#include "model/zoo.h"
#include "sim/finetune_simulator.h"
#include "transfer/proxy_scorer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tps {
namespace {

const Dataset& TargetDataset() {
  static const Dataset* dataset = [] {
    auto registry = DatasetRegistry::CreatePaperInventory();
    TPS_CHECK_OK(registry.status());
    static DatasetRegistry owned = std::move(registry).value();
    auto found = owned.Find("mnli");
    TPS_CHECK_OK(found.status());
    return *found;
  }();
  return *dataset;
}

const PretrainedModel& Model() {
  static const PretrainedModel* model = [] {
    auto zoo = ModelZoo::Create(NlpPaperZooSpecs());
    TPS_CHECK_OK(zoo.status());
    static ModelZoo owned = std::move(zoo).value();
    auto found = owned.Find("bert-base-uncased");
    TPS_CHECK_OK(found.status());
    return *found;
  }();
  return *model;
}

void BM_ProxyScore(benchmark::State& state, const char* name) {
  auto scorer = MakeProxyScorer(name);
  TPS_CHECK_OK(scorer.status());
  for (auto _ : state) {
    auto score = (*scorer)->Score(Model(), TargetDataset());
    TPS_CHECK_OK(score.status());
    benchmark::DoNotOptimize(*score);
  }
}
BENCHMARK_CAPTURE(BM_ProxyScore, leep, "leep");
BENCHMARK_CAPTURE(BM_ProxyScore, nce, "nce");
BENCHMARK_CAPTURE(BM_ProxyScore, logme, "logme");
BENCHMARK_CAPTURE(BM_ProxyScore, knn, "knn");

void BM_FineTuneRun(benchmark::State& state) {
  FineTuneSimulator simulator;
  const Hyperparams hp = Hyperparams::DefaultsFor(TaskDomain::kNLP);
  for (auto _ : state) {
    auto run = simulator.Run(Model(), TargetDataset(), hp);
    TPS_CHECK_OK(run.status());
    benchmark::DoNotOptimize(run->final_test());
  }
}
BENCHMARK(BM_FineTuneRun);

Matrix RandomVectors(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dims; ++j) m.At(i, j) = rng.Uniform();
  }
  return m;
}

std::vector<std::vector<double>> Rows(const Matrix& m) {
  std::vector<std::vector<double>> rows;
  rows.reserve(m.rows());
  for (size_t i = 0; i < m.rows(); ++i) rows.push_back(m.Row(i));
  return rows;
}

void BM_PairwiseTopKDistances(benchmark::State& state) {
  const std::vector<std::vector<double>> vectors =
      Rows(RandomVectors(static_cast<size_t>(state.range(0)), 24, 7));
  for (auto _ : state) {
    auto distances =
        PairwiseDistances(vectors, DistanceMetric::kTopKAbsDiff, 5);
    TPS_CHECK_OK(distances.status());
    benchmark::DoNotOptimize(distances->At(0, 0));
  }
}
BENCHMARK(BM_PairwiseTopKDistances)->Arg(40)->Arg(200)->Arg(1000);

void BM_KMeans(benchmark::State& state) {
  const Matrix points =
      RandomVectors(static_cast<size_t>(state.range(0)), 24, 11);
  KMeansOptions options;
  options.num_clusters = 8;
  for (auto _ : state) {
    auto result = KMeans(points, options);
    TPS_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->inertia);
  }
}
BENCHMARK(BM_KMeans)->Arg(40)->Arg(200)->Arg(1000);

void BM_HierarchicalCluster(benchmark::State& state) {
  const std::vector<std::vector<double>> vectors =
      Rows(RandomVectors(static_cast<size_t>(state.range(0)), 24, 13));
  auto distances =
      PairwiseDistances(vectors, DistanceMetric::kEuclidean, 5);
  TPS_CHECK_OK(distances.status());
  HierarchicalOptions options;
  options.num_clusters = 8;
  for (auto _ : state) {
    auto result = HierarchicalCluster(*distances, options);
    TPS_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->clustering.num_clusters);
  }
}
BENCHMARK(BM_HierarchicalCluster)->Arg(40)->Arg(200);

// Console output plus a record of every measured run, so main() can mirror
// the numbers into the telemetry sidecar without re-running anything.
class TelemetryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      times_.emplace_back(run.benchmark_name(), run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<std::pair<std::string, double>>& times() const {
    return times_;
  }

 private:
  std::vector<std::pair<std::string, double>> times_;
};

// "BM_KMeans/40" -> "BM_KMeans_40": keeps the sidecar's
// "<domain>/<name>/<metric>" key convention unambiguous.
std::string SanitizedName(std::string name) {
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return name;
}

void WriteTelemetry(const TelemetryReporter& reporter) {
  bench::BenchTelemetry telemetry("micro_kernels");
  for (const auto& [name, ns] : reporter.times()) {
    telemetry.RecordValue("kernel/" + SanitizedName(name) + "/ns", ns);
  }
  telemetry.WriteFileOrWarn();
}

}  // namespace
}  // namespace tps

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  tps::TelemetryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  tps::WriteTelemetry(reporter);
  return 0;
}
