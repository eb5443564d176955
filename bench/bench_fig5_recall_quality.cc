// Reproduces Fig. 5: mean true fine-tuning accuracy of the top-K models
// returned by coarse-recall vs random recall, for K in {5, 10, 15, 20}, on
// all eight target datasets. Also reports the smallest K whose recalled
// set contains the true best model (the paper reports 5-15).
//
// Extended with a head-to-head of the three RecallBackend implementations
// (representative / embedding / hybrid): recall@K against the true top-K
// for K in {5, 10, 15, 20} plus per-request recall latency. The numbers
// land in the BENCH_fig5_recall_quality.json telemetry sidecar (see
// bench/telemetry.h), keyed "<domain>/<target>/<backend>/recall@<K>" and
// "<domain>/<backend>/mean_*". Acceptance: the embedding backend's mean
// recall@10 must be >= 0.90x the representative backend's at lower mean
// per-request latency.

#include <algorithm>
#include <iostream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/telemetry.h"
#include "core/coarse_recall.h"
#include "core/evaluation.h"
#include "index/ivf_index.h"
#include "recall/embed_trainer.h"
#include "recall/recall_backend.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace tps {
namespace bench {
namespace {

constexpr size_t kRandomDraws = 50;
constexpr size_t kLatencyReps = 10;
const size_t kRecallKs[] = {5, 10, 15, 20};

void Report(TaskDomain domain, const char* title) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  CoarseRecall recall(world.zoo.get(), world.matrix.get(),
                      world.clustering.get());

  std::cout << "=== Fig. 5: recall quality (" << title << ") ===\n";
  SectionedTable table({"target", "K", "coarse-recall", "random-recall",
                        "best model contained", "regret@K"});
  Rng rng(2024);
  for (const Dataset* target : world.Targets()) {
    RecallResult result = ExitIfError(
        recall.Recall(*target, RecallOptions(), /*budget=*/nullptr),
        "recall " + target->name());
    const std::vector<double> truth = ExitIfError(
        TrueFinalAccuracies(*world.zoo, *target, *world.simulator,
                            world.DefaultHp()),
        "truth " + target->name());
    const size_t best_model = BestModel(truth);
    const size_t best_rank = result.RankOf(best_model);

    for (size_t k : kRecallKs) {
      const double recalled_mean = MeanAt(truth, result.TopModels(k));
      double random_mean = 0.0;
      for (size_t draw = 0; draw < kRandomDraws; ++draw) {
        random_mean += MeanAt(
            truth, rng.SampleWithoutReplacement(world.zoo->size(), k));
      }
      random_mean /= static_cast<double>(kRandomDraws);
      // Regret: gap between the global best model and the best model the
      // recall set actually contains.
      double best_recalled = 0.0;
      for (size_t index : result.TopModels(k)) {
        best_recalled = std::max(best_recalled, truth[index]);
      }
      table.AddRow({target->name(), std::to_string(k),
                    strings::FormatDouble(recalled_mean, 3),
                    strings::FormatDouble(random_mean, 3),
                    best_rank < k ? "yes" : "no",
                    strings::FormatDouble(truth[best_model] - best_recalled,
                                          3)});
    }
    table.AddSeparator();
  }
  table.Print(std::cout);
  std::cout << "\n";
}

/// Indices of the K largest truth accuracies, ties broken toward the lower
/// model index (matches the recall rankings' own tie convention).
std::vector<size_t> TruthTopK(const std::vector<double>& truth, size_t k) {
  std::vector<size_t> order(truth.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&truth](size_t a, size_t b) {
                     return truth[a] > truth[b];
                   });
  order.resize(std::min(k, order.size()));
  return order;
}

/// |top-K(ranking) intersect top-K(truth)| / K.
double RecallAtK(const RecallResult& result,
                 const std::vector<double>& truth, size_t k) {
  const std::vector<size_t> truth_top = TruthTopK(truth, k);
  const std::vector<size_t> recalled = result.TopModels(k);
  size_t hits = 0;
  for (size_t model : recalled) {
    if (std::find(truth_top.begin(), truth_top.end(), model) !=
        truth_top.end()) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

void ReportBackends(TaskDomain domain, const char* title,
                    BenchTelemetry* telemetry) {
  World world = ExitIfError(BuildWorld(domain), "build world");
  const std::string prefix = domain == TaskDomain::kNLP ? "NLP" : "CV";

  // Offline step the embedding/hybrid backends depend on: train the
  // two-tower embeddings from the performance matrix and index them.
  WallTimer train_timer;
  recall::EmbedTrainingResult trained = ExitIfError(
      recall::TrainRecallEmbeddings(*world.matrix, world.Benchmarks(),
                                    recall::EmbeddingConfig()),
      "train embeddings");
  const double train_ms = train_timer.ElapsedMillis();
  IvfIndex embedding_index = ExitIfError(
      IvfIndex::Build(trained.embeddings.model_embeddings(),
                      trained.embeddings.prior(), IvfIndexOptions()),
      "build embedding index");
  telemetry->RecordPhase(prefix + "/train_embeddings", train_ms, 0.0, 0.0);

  recall::RecallBackendContext context;
  context.zoo = world.zoo.get();
  context.matrix = world.matrix.get();
  context.clustering = world.clustering.get();
  context.embeddings = &trained.embeddings;
  context.embedding_index = &embedding_index;
  const CoarseRecall representative(world.zoo.get(), world.matrix.get(),
                                    world.clustering.get());
  const recall::RecallBackendSet backends(representative, context);

  std::cout << "=== Recall backends head-to-head (" << title << ") ===\n";
  SectionedTable table({"target", "backend", "recall@5", "recall@10",
                        "recall@15", "recall@20", "latency (ms)"});
  // backend -> accumulated mean recall@10 / latency across targets.
  std::map<std::string, double> sum_recall10;
  std::map<std::string, double> sum_latency;
  size_t num_targets = 0;

  for (const Dataset* target : world.Targets()) {
    const std::vector<double> truth = ExitIfError(
        TrueFinalAccuracies(*world.zoo, *target, *world.simulator,
                            world.DefaultHp()),
        "truth " + target->name());
    ++num_targets;
    for (const std::string& name : AvailableBackends(backends)) {
      const recall::RecallBackend* backend =
          ExitIfError(backends.Find(name), "find backend " + name);
      const RecallResult result = ExitIfError(
          backend->Recall(*target, RecallOptions(), /*budget=*/nullptr),
          name + " recall " + target->name());

      // Latency: warmed-up mean over kLatencyReps fresh requests.
      WallTimer timer;
      for (size_t rep = 0; rep < kLatencyReps; ++rep) {
        ExitIfError(backend->Recall(*target, RecallOptions(),
                                    /*budget=*/nullptr),
                    name + " recall (timed)");
      }
      const double latency_ms =
          timer.ElapsedMillis() / static_cast<double>(kLatencyReps);

      std::vector<std::string> row = {target->name(), name};
      for (size_t k : kRecallKs) {
        const double recall_at_k = RecallAtK(result, truth, k);
        row.push_back(strings::FormatDouble(recall_at_k, 3));
        telemetry->RecordValue(prefix + "/" + target->name() + "/" + name +
                                   "/recall@" + std::to_string(k),
                               recall_at_k);
        if (k == 10) sum_recall10[name] += recall_at_k;
      }
      row.push_back(strings::FormatDouble(latency_ms, 3));
      table.AddRow(row);
      telemetry->RecordValue(
          prefix + "/" + target->name() + "/" + name + "/latency_ms",
          latency_ms);
      sum_latency[name] += latency_ms;
    }
    table.AddSeparator();
  }
  table.Print(std::cout);

  // Aggregates + the acceptance gate: embedding recall@10 within 0.90x of
  // representative, at lower per-request latency.
  const double n = static_cast<double>(num_targets);
  for (const std::string& name : AvailableBackends(backends)) {
    telemetry->RecordValue(prefix + "/" + name + "/mean_recall@10",
                           sum_recall10[name] / n);
    telemetry->RecordValue(prefix + "/" + name + "/mean_latency_ms",
                           sum_latency[name] / n);
  }
  const double rep_recall = sum_recall10["representative"] / n;
  const double emb_recall = sum_recall10["embedding"] / n;
  const double recall_ratio =
      rep_recall > 0.0 ? emb_recall / rep_recall : 1.0;
  const bool accept_recall = recall_ratio >= 0.90;
  const bool accept_latency =
      sum_latency["embedding"] < sum_latency["representative"];
  telemetry->RecordValue(prefix + "/embedding_vs_representative_recall10",
                         recall_ratio);
  telemetry->RecordValue(prefix + "/accept_embedding_recall",
                         accept_recall ? 1.0 : 0.0);
  telemetry->RecordValue(prefix + "/accept_embedding_latency",
                         accept_latency ? 1.0 : 0.0);
  std::cout << "acceptance (" << prefix
            << "): embedding recall@10 >= 0.90x representative: "
            << (accept_recall ? "PASS" : "FAIL") << " (ratio "
            << strings::FormatDouble(recall_ratio, 3)
            << "), embedding latency < representative: "
            << (accept_latency ? "PASS" : "FAIL") << "\n\n";
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  tps::bench::BenchTelemetry telemetry("fig5_recall_quality");
  tps::bench::Report(tps::TaskDomain::kNLP, "NLP targets");
  tps::bench::Report(tps::TaskDomain::kCV, "CV targets");
  tps::bench::ReportBackends(tps::TaskDomain::kNLP, "NLP targets",
                             &telemetry);
  tps::bench::ReportBackends(tps::TaskDomain::kCV, "CV targets",
                             &telemetry);
  telemetry.WriteFileOrWarn();
  return 0;
}
