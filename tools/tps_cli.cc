// tps_cli — command-line front end for the two-phase model-selection
// library. Mirrors the workflow a model-repository operator runs:
//
//   tps_cli offline  --domain=nlp --store=store.log [--id=nlp]
//                    [--index] [--partitions=P]
//                    [--gen=N --gen-seed=S --gen-lineages=L --prefix=gen]
//       Build the offline artifacts (performance matrix + model
//       clustering) for the paper zoo and persist them, with the zoo's
//       model specs, into the model store. --index also builds the
//       sub-linear IVF recall index into the store. --gen=N swaps the paper
//       zoo for a generated zoo of N models (see zoo-gen); generated
//       zoos always get an index, and their serving clustering is derived
//       from the index partitioning (the hierarchical clusterer does not
//       scale to 10k+ models).
//
//   tps_cli zoo-gen  --domain=nlp --count=1000 [--seed=17] [--lineages=0]
//                    [--singleton-frac=0.05] [--jitter=0.02]
//                    [--prefix=gen] [--store=store.log] [--sample=10]
//       Generate a parameterized large model zoo (lineage-correlated,
//       seeded, deterministic), print a sample, and optionally register
//       every spec in a model store.
//
//   tps_cli recall   --domain=nlp --store=store.log [--id=nlp]
//                    --target=mnli [--k=10] [--proxy=leep | --proxies=a,b]
//                    [--nprobe=N]
//       Print the coarse-recall ranking for a target dataset, its proxy
//       cost and, when the artifacts carry a recall index, how many of
//       its partitions were probed.
//
//   tps_cli select   --domain=nlp --store=store.log [--id=nlp]
//                    --target=mnli [--k=10] [--threshold=0.0]
//                    [--repeat=N] [--targets=a,b,c] [--cache=4096]
//                    [--deadline=MS] [--backend=representative|embedding|
//                    hybrid] [--report=r.md] [--trace=t.json]
//       Run the full two-phase selection and print the selected model,
//       its accuracy, the survivors per epoch and the epoch cost.
//       --repeat / --targets reuse the loaded artifacts (and the proxy-
//       score cache) across requests. --backend routes recall phase 1
//       through a named RecallBackend (embedding/hybrid need trained
//       embeddings in the store, from `train-embed`). --report writes a
//       markdown report, --trace the SelectionTrace JSON that `trace`
//       prints.
//
//   tps_cli train-embed --domain=nlp --store=store.log [--id=nlp]
//                    [--dim=16] [--epochs=300] [--lr=0.5]
//                    [--temperature=0.2] [--acc-temperature=0.05]
//                    [--seed=7] [--threads=1]
//       Train the two-tower recall embeddings from the store's performance
//       matrix (full-batch GD, in-batch softmax negatives; deterministic
//       for any --threads). Persists them into the store under the
//       artifact id and prints the loss curve endpoints.
//
//   tps_cli baselines --domain=nlp --target=mnli
//       Compare brute force / successive halving / fine-selection /
//       two-phase on one target (fresh offline build).
//
//   tps_cli datasets --domain=nlp | models --domain=cv | card --model=NAME
//       Inventory inspection.
//
//   tps_cli store-info --store=store.log
//       Open a model store, print per-namespace entry counts and the
//       recovery stats (records replayed, torn-tail bytes truncated).
//
//   tps_cli store-compact --store=store.log
//       Compact a model store's log (drop overwritten/deleted records)
//       and print the log size before/after plus recovery stats.
//
//   tps_cli trace    --domain=nlp --store=store.log [--id=nlp]
//                    --target=mnli [--k=10] [--threshold=0.0] [--out=t.json]
//       Run the full two-phase selection and emit the structured
//       SelectionTrace as JSON (per-cluster recall scores, recalled set,
//       every rung's survivors and prunes, epoch totals) to stdout or
//       --out.
//
//   `recall`, `select` and `trace` are one pipeline: each loads the
//   artifacts into an in-process SelectionService (the one `serve` runs)
//   and runs its request through it, so for the same flags they recall,
//   select and charge identically and differ only in what they print.
//   Artifacts come from a model store (--store=s.log [--id=nlp]), opened
//   read-only: a missing store is an error and no file is created. The
//   artifacts pick the recall index: the store's IVF when it holds one,
//   else the exact index over the clustering. All three take the request
//   flags (--k >= 1, --threshold, --proxy/--proxies, --nprobe, --backend,
//   --deadline) and --threads / --cache.
//
//   tps_cli serve    --domain=nlp --store=store.log
//                    --socket=/tmp/tps.sock | --port=0 [--workers=2]
//                    [--queue=64] [--threads=1] [--cache=4096]
//                    [--deadline=MS]
//       Load the artifacts once and answer NDJSON selection requests over
//       a Unix/TCP socket until a client sends {"cmd":"shutdown"}. Same as
//       the standalone `tps_serve` binary.
//
//   tps_cli query    --socket=/tmp/tps.sock | --port=N --target=mnli
//                    [--cmd=select|ping|stats|reload|shutdown] [--k]
//                    [--threshold] [--proxy|--proxies] [--deadline=MS]
//                    [--trace]
//       Send one request to a running server and print the raw NDJSON
//       reply. Exit 0 iff the reply says "ok": true.
//
//   tps_cli reload   --socket=/tmp/tps.sock | --port=N
//                    --store=store.log [--id=nlp]
//       Hot-swap a running server onto new artifacts with zero downtime:
//       the server loads + validates the named artifacts off the serving
//       path and publishes them as the next artifact version. In-flight
//       requests finish on the version that admitted them. Shorthand for
//       `tps_cli query --cmd=reload`.
//
// All subcommands are deterministic; no flags are required beyond the ones
// shown (defaults in brackets). `offline`, `recall`, `select`, `trace` and
// `train-embed` accept --threads=N (default 1) to fan independent
// simulator/proxy work over a shared thread pool — output is bit-identical
// for every thread count.
//
// Any invocation additionally accepts --metrics[=PATH]: after the
// subcommand finishes, the process-wide MetricsRegistry (counters, gauges,
// latency histograms — see "Observability" in DESIGN.md) is dumped as JSON
// to stdout or PATH. Observability never changes results or exit codes of
// a successful command.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/report.h"
#include "core/two_phase.h"
#include "data/registry.h"
#include "index/ivf_index.h"
#include "model/model_card.h"
#include "model/paper_zoo.h"
#include "model/zoo_gen.h"
#include "recall/embed_trainer.h"
#include "recall/recall_embeddings.h"
#include "serve/cli_commands.h"
#include "store/model_store.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace tps {
namespace cli {
namespace {

using serve::DomainFromFlag;
using serve::Fail;
using serve::ThreadsFromFlag;

int Usage() {
  std::cerr
      << "usage: tps_cli <offline|zoo-gen|recall|select|trace|train-embed|"
         "baselines|datasets|models|card|store-info|store-compact|serve|"
         "query|reload> [--flags] [--metrics[=PATH]]\n"
         "run `head tools/tps_cli.cc` for the full flag reference\n";
  return 2;
}

/// Writes `text` to `path`, or to stdout when `path` is empty.
int EmitText(const std::string& text, const std::string& path,
             const char* what) {
  if (path.empty()) {
    std::cout << text << "\n";
    return 0;
  }
  std::ofstream out(path);
  if (out) out << text << "\n";
  if (!out) {
    return Fail(Status::IOError(std::string("cannot write ") + what + ": " +
                                path));
  }
  std::cout << what << " -> " << path << "\n";
  return 0;
}

/// The one pipeline of `recall`, `trace` and `select`: the request the
/// flags describe and a SelectionService over the artifacts they name.
struct Pipeline {
  serve::SelectionRequest request;
  std::unique_ptr<serve::SelectionService> service;
};

StatusOr<Pipeline> LoadPipeline(const FlagParser& flags) {
  TPS_ASSIGN_OR_RETURN(serve::ArtifactPaths paths,
                       serve::ArtifactPathsFromFlags(flags));
  TPS_ASSIGN_OR_RETURN(serve::SelectionRequest request,
                       serve::RequestFromFlags(flags));
  if (request.target.empty() && !flags.Has("targets")) {
    return Status::InvalidArgument("--target is required");
  }
  TPS_ASSIGN_OR_RETURN(serve::ServiceOptions options,
                       serve::ServiceOptionsFromFlags(flags));
  options.worker_threads = 0;  // Handle() runs on this thread.
  TPS_ASSIGN_OR_RETURN(serve::ServiceArtifacts artifacts,
                       serve::ServiceArtifacts::Load(paths));
  TPS_ASSIGN_OR_RETURN(
      std::unique_ptr<serve::SelectionService> service,
      serve::SelectionService::Create(std::move(artifacts), options));
  return Pipeline{std::move(request), std::move(service)};
}

int RunOffline(const FlagParser& flags) {
  auto paths_or = serve::ArtifactPathsFromFlags(flags);
  if (!paths_or.ok()) return Fail(paths_or.status());
  const TaskDomain domain = paths_or->domain;

  auto registry_or = DatasetRegistry::CreatePaperInventory();
  if (!registry_or.ok()) return Fail(registry_or.status());

  // Zoo: the paper zoo, or a generated one when --gen=N is given.
  auto gen_or = flags.GetInt("gen", 0);
  if (!gen_or.ok()) return Fail(gen_or.status());
  if (*gen_or < 0) {
    return Fail(Status::InvalidArgument("--gen must be >= 0"));
  }
  const size_t gen_count = static_cast<size_t>(*gen_or);
  StatusOr<ModelZoo> zoo_or = Status::Internal("unreachable");
  if (gen_count > 0) {
    ZooGenSpec gen_spec;
    gen_spec.domain = domain;
    gen_spec.num_models = gen_count;
    auto seed_or = flags.GetInt(
        "gen-seed", static_cast<int64_t>(gen_spec.seed));
    if (!seed_or.ok()) return Fail(seed_or.status());
    gen_spec.seed = static_cast<uint64_t>(*seed_or);
    auto lineages_or = flags.GetInt("gen-lineages", 0);
    if (!lineages_or.ok()) return Fail(lineages_or.status());
    if (*lineages_or < 0) {
      return Fail(Status::InvalidArgument("--gen-lineages must be >= 0"));
    }
    gen_spec.num_lineages = static_cast<size_t>(*lineages_or);
    gen_spec.name_prefix = flags.GetString("prefix", "gen");
    auto specs_or = GenerateZooSpecs(gen_spec);
    if (!specs_or.ok()) return Fail(specs_or.status());
    zoo_or = ModelZoo::Create(*specs_or);
  } else {
    zoo_or = PaperZoo(domain);
  }
  if (!zoo_or.ok()) return Fail(zoo_or.status());

  auto threads_or = ThreadsFromFlag(flags);
  if (!threads_or.ok()) return Fail(threads_or.status());

  FineTuneSimulator simulator;
  auto matrix_or = PerformanceMatrix::BuildParallel(
      *zoo_or, registry_or->Benchmarks(domain), simulator,
      Hyperparams::DefaultsFor(domain), *threads_or);
  if (!matrix_or.ok()) return Fail(matrix_or.status());

  // Recall index: always built for a generated zoo (its serving
  // clustering derives from the index partitioning — the hierarchical
  // clusterer is O(n^3) and does not scale there); opt-in via --index
  // for the paper zoo.
  const bool build_index = gen_count > 0 || flags.Has("index");
  std::optional<IvfIndex> index;
  if (build_index) {
    IvfIndexOptions index_options;
    auto partitions_or = flags.GetInt("partitions", 0);
    if (!partitions_or.ok()) return Fail(partitions_or.status());
    index_options.num_partitions = static_cast<int>(*partitions_or);
    auto index_or = IvfIndex::Build(matrix_or->ModelVectors(),
                                    matrix_or->ModelAverageAccuracies(),
                                    index_options);
    if (!index_or.ok()) return Fail(index_or.status());
    index = std::move(index_or).value();
  }

  StatusOr<ModelClustering> clustering_or = Status::Internal("unreachable");
  if (gen_count > 0) {
    clustering_or = ClusteringFromIndexStructure(index->structure());
  } else {
    ModelClusteringOptions options;
    auto threshold_or =
        flags.GetDouble("threshold", options.distance_threshold);
    if (!threshold_or.ok()) return Fail(threshold_or.status());
    options.distance_threshold = *threshold_or;
    auto topk_or =
        flags.GetInt("topk", static_cast<int64_t>(options.top_k));
    if (!topk_or.ok()) return Fail(topk_or.status());
    options.top_k = static_cast<size_t>(*topk_or);
    clustering_or = ClusterModels(*matrix_or, *zoo_or, options);
  }
  if (!clustering_or.ok()) return Fail(clustering_or.status());

  // Register the zoo and the artifacts in the store.
  const std::string& store_path = paths_or->store;
  const std::string id = paths_or->artifact_id();
  auto store_or = ModelStore::Open(store_path);
  if (!store_or.ok()) return Fail(store_or.status());
  ModelStore store = std::move(store_or).value();
  for (const PretrainedModel& model : zoo_or->models()) {
    Status put = store.PutModelSpec(model.spec());
    if (!put.ok()) return Fail(put);
  }
  Status put = store.PutPerformanceMatrix(id, *matrix_or);
  if (!put.ok()) return Fail(put);
  put = store.PutClustering(id, *clustering_or);
  if (!put.ok()) return Fail(put);
  if (index.has_value()) {
    put = store.PutRecallIndex(id, *index);
    if (!put.ok()) return Fail(put);
  }

  std::cout << "offline artifacts for " << ToString(domain) << ": "
            << matrix_or->num_models() << " models x "
            << matrix_or->num_datasets() << " benchmarks\n"
            << "  model store -> " << store_path << " (id " << id << ", "
            << store.size() << " entries)\n"
            << "  model clustering: "
            << clustering_or->NonSingletonClusters().size()
            << " non-singleton clusters\n";
  if (index.has_value()) {
    std::cout << "  recall index: " << index->num_partitions()
              << " partitions, default nprobe " << index->default_nprobe()
              << "\n";
  }
  return 0;
}

int RunZooGen(const FlagParser& flags) {
  auto domain_or = DomainFromFlag(flags);
  if (!domain_or.ok()) return Fail(domain_or.status());
  ZooGenSpec spec;
  spec.domain = *domain_or;
  auto count_or =
      flags.GetInt("count", static_cast<int64_t>(spec.num_models));
  if (!count_or.ok()) return Fail(count_or.status());
  if (*count_or < 1) {
    return Fail(Status::InvalidArgument("--count must be >= 1"));
  }
  spec.num_models = static_cast<size_t>(*count_or);
  auto seed_or = flags.GetInt("seed", static_cast<int64_t>(spec.seed));
  if (!seed_or.ok()) return Fail(seed_or.status());
  spec.seed = static_cast<uint64_t>(*seed_or);
  auto lineages_or = flags.GetInt("lineages", 0);
  if (!lineages_or.ok()) return Fail(lineages_or.status());
  if (*lineages_or < 0) {
    return Fail(Status::InvalidArgument("--lineages must be >= 0"));
  }
  spec.num_lineages = static_cast<size_t>(*lineages_or);
  auto frac_or =
      flags.GetDouble("singleton-frac", spec.singleton_fraction);
  if (!frac_or.ok()) return Fail(frac_or.status());
  spec.singleton_fraction = *frac_or;
  auto jitter_or = flags.GetDouble("jitter", spec.capability_jitter);
  if (!jitter_or.ok()) return Fail(jitter_or.status());
  spec.capability_jitter = *jitter_or;
  spec.name_prefix = flags.GetString("prefix", spec.name_prefix);

  auto specs_or = GenerateZooSpecs(spec);
  if (!specs_or.ok()) return Fail(specs_or.status());
  const std::vector<ModelSpec>& specs = *specs_or;

  const std::string store_path = flags.GetString("store");
  if (!store_path.empty()) {
    auto store_or = ModelStore::Open(store_path);
    if (!store_or.ok()) return Fail(store_or.status());
    ModelStore store = std::move(store_or).value();
    for (const ModelSpec& model : specs) {
      Status put = store.PutModelSpec(model);
      if (!put.ok()) return Fail(put);
    }
    std::cout << "model store -> " << store_path << " (" << store.size()
              << " entries)\n";
  }

  auto sample_or = flags.GetInt("sample", 10);
  if (!sample_or.ok()) return Fail(sample_or.status());
  if (*sample_or < 0) {
    return Fail(Status::InvalidArgument("--sample must be >= 0"));
  }
  const size_t sample = static_cast<size_t>(*sample_or);
  if (sample > 0) {
    TablePrinter table({"model", "family", "params (M)", "capability",
                        "fine-tune tags"});
    for (size_t i = 0; i < sample && i < specs.size(); ++i) {
      const ModelSpec& model = specs[i];
      table.AddRow({model.name, model.family,
                    strings::FormatDouble(model.scale_millions, 0),
                    strings::FormatDouble(model.capability, 3),
                    strings::Join(model.finetune_tags, " ")});
    }
    table.Print(std::cout);
  }
  std::cout << "generated " << specs.size() << " "
            << ToString(spec.domain) << " models (seed " << spec.seed
            << ", prefix '" << spec.name_prefix << "')\n";
  return 0;
}

int RunRecall(const FlagParser& flags) {
  auto pipeline_or = LoadPipeline(flags);
  if (!pipeline_or.ok()) return Fail(pipeline_or.status());
  const serve::SelectionRequest& request = pipeline_or->request;
  const serve::SelectionResponse response =
      pipeline_or->service->Handle(request);
  if (!response.status.ok()) return Fail(response.status);
  const auto snapshot = pipeline_or->service->snapshot();
  const serve::ServiceArtifacts& artifacts = snapshot->artifacts;
  const RecallResult& recall = response.report.recall;

  TablePrinter table({"rank", "model", "recall score", "prior acc",
                      "proxy", "propagated"});
  for (size_t r = 0; r < request.top_k && r < recall.ranked.size(); ++r) {
    const RecallEntry& entry = recall.ranked[r];
    table.AddRow({std::to_string(r),
                  artifacts.zoo.model(entry.model_index).name(),
                  strings::FormatDouble(entry.recall_score, 4),
                  strings::FormatDouble(entry.prior_accuracy, 4),
                  strings::FormatDouble(entry.proxy_component, 4),
                  entry.via_propagation ? "yes" : "no"});
  }
  table.Print(std::cout);
  std::cout << "proxy inference cost: " << response.inference_epochs
            << " epoch-equivalents (" << recall.proxies_computed
            << " forward passes)\n";
  if (artifacts.index != nullptr) {
    std::cout << "recall index: " << artifacts.index->name() << ", probed "
              << artifacts.index->ProbePartitions(request.nprobe).size()
              << " of " << artifacts.index->num_partitions()
              << " partitions\n";
  }
  return 0;
}

int RunSelect(const FlagParser& flags) {
  // Artifacts load once and every request in this process (--repeat x
  // --targets) reuses them plus the shared proxy-score cache.
  auto repeat_or = flags.GetInt("repeat", 1);
  if (!repeat_or.ok()) return Fail(repeat_or.status());
  if (*repeat_or < 1) {
    return Fail(Status::InvalidArgument("--repeat must be >= 1"));
  }
  const size_t repeat = static_cast<size_t>(*repeat_or);
  std::vector<std::string> targets = flags.GetList("targets");
  const size_t total = std::max<size_t>(targets.size(), 1) * repeat;
  const std::string trace_path = flags.GetString("trace");
  const std::string report_path = flags.GetString("report");
  if (total > 1 && (flags.Has("trace") || !report_path.empty())) {
    return Fail(Status::InvalidArgument(
        "--trace/--report apply to a single request; drop --repeat/"
        "--targets"));
  }
  if (flags.Has("trace") && trace_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--trace needs a file path (use `tps_cli trace` to print the "
        "trace to stdout)"));
  }

  auto pipeline_or = LoadPipeline(flags);
  if (!pipeline_or.ok()) return Fail(pipeline_or.status());
  serve::SelectionRequest& request = pipeline_or->request;
  serve::SelectionService& service = *pipeline_or->service;
  if (targets.empty()) targets.push_back(request.target);
  request.want_trace = !trace_path.empty();

  serve::SelectionResponse response;
  for (size_t run = 0; run < repeat; ++run) {
    for (const std::string& target : targets) {
      request.target = target;
      response = service.Handle(request);
      if (!response.status.ok()) return Fail(response.status);
      if (total > 1) {
        std::cout << "[" << target << " run " << (run + 1) << "/" << repeat
                  << "]\n";
      }
      std::cout << "selected: " << response.selected_model
                << "\naccuracy: " << response.selected_accuracy
                << "\nsurvivors per epoch:";
      for (size_t n : response.survivors_per_stage) {
        std::cout << " " << n;
      }
      std::cout << "\ncost: " << response.total_epochs
                << " epoch-equivalents (" << response.training_epochs
                << " training + " << response.inference_epochs
                << " proxy)\n";
    }
  }
  if (total > 1) {
    const serve::ServiceStats stats = service.Stats();
    std::cout << "served " << total << " requests; proxy cache: "
              << stats.cache_hits << " hits, " << stats.cache_misses
              << " misses, " << stats.cache_evictions << " evictions\n";
  }

  if (!report_path.empty()) {
    const auto snapshot = service.snapshot();
    auto target_or = snapshot->artifacts.registry.Find(request.target);
    if (!target_or.ok()) return Fail(target_or.status());
    std::ofstream out(report_path);
    if (!out) {
      return Fail(Status::IOError("cannot write report: " + report_path));
    }
    out << RenderSelectionReport(response.report, snapshot->artifacts.zoo,
                                 **target_or);
    std::cout << "markdown report -> " << report_path << "\n";
  }
  if (request.want_trace) {
    return EmitText(response.trace.ToJson(2), trace_path, "selection trace");
  }
  return 0;
}

int RunTrace(const FlagParser& flags) {
  auto pipeline_or = LoadPipeline(flags);
  if (!pipeline_or.ok()) return Fail(pipeline_or.status());
  pipeline_or->request.want_trace = true;
  const serve::SelectionResponse response =
      pipeline_or->service->Handle(pipeline_or->request);
  if (!response.status.ok()) return Fail(response.status);
  return EmitText(response.trace.ToJson(2), flags.GetString("out"),
                  "selection trace");
}

int RunTrainEmbed(const FlagParser& flags) {
  // The matrix comes from the model store (--store [+ --id]) and the
  // embeddings go back into it, through one open (each replays the whole
  // log). A mistyped --store must fail, not create an empty store.
  auto paths_or = serve::ArtifactPathsFromFlags(flags);
  if (!paths_or.ok()) return Fail(paths_or.status());
  const std::string& store_path = paths_or->store;
  const std::string id = paths_or->artifact_id();
  auto registry_or = DatasetRegistry::CreatePaperInventory();
  if (!registry_or.ok()) return Fail(registry_or.status());
  if (!Env::Default()->FileExists(store_path)) {
    return Fail(Status::NotFound("no store at " + store_path));
  }
  auto store_or = ModelStore::Open(store_path);
  if (!store_or.ok()) return Fail(store_or.status());
  auto matrix_or = store_or->GetPerformanceMatrix(id);
  if (!matrix_or.ok()) return Fail(matrix_or.status());
  const PerformanceMatrix& matrix = *matrix_or;

  // Benchmarks in matrix row order: the trainer validates names match.
  std::vector<const Dataset*> benchmarks;
  benchmarks.reserve(matrix.num_datasets());
  for (const std::string& name : matrix.dataset_names()) {
    auto dataset_or = registry_or->Find(name);
    if (!dataset_or.ok()) return Fail(dataset_or.status());
    benchmarks.push_back(*dataset_or);
  }

  recall::EmbeddingConfig config;
  auto dim_or = flags.GetInt("dim", static_cast<int64_t>(config.dim));
  if (!dim_or.ok()) return Fail(dim_or.status());
  if (*dim_or < 1) {
    return Fail(Status::InvalidArgument("--dim must be >= 1"));
  }
  config.dim = static_cast<size_t>(*dim_or);
  auto epochs_or =
      flags.GetInt("epochs", static_cast<int64_t>(config.epochs));
  if (!epochs_or.ok()) return Fail(epochs_or.status());
  if (*epochs_or < 1) {
    return Fail(Status::InvalidArgument("--epochs must be >= 1"));
  }
  config.epochs = static_cast<int>(*epochs_or);
  auto lr_or = flags.GetDouble("lr", config.learning_rate);
  if (!lr_or.ok()) return Fail(lr_or.status());
  config.learning_rate = *lr_or;
  auto temp_or = flags.GetDouble("temperature", config.temperature);
  if (!temp_or.ok()) return Fail(temp_or.status());
  config.temperature = *temp_or;
  auto acc_temp_or =
      flags.GetDouble("acc-temperature", config.accuracy_temperature);
  if (!acc_temp_or.ok()) return Fail(acc_temp_or.status());
  config.accuracy_temperature = *acc_temp_or;
  auto seed_or = flags.GetInt("seed", static_cast<int64_t>(config.seed));
  if (!seed_or.ok()) return Fail(seed_or.status());
  config.seed = static_cast<uint64_t>(*seed_or);

  auto threads_or = ThreadsFromFlag(flags);
  if (!threads_or.ok()) return Fail(threads_or.status());

  std::unique_ptr<ThreadPool> pool;
  if (*threads_or > 1) {
    pool = std::make_unique<ThreadPool>(
        ThreadPool::ClampThreads(*threads_or, matrix.num_datasets()));
  }
  auto trained_or =
      recall::TrainRecallEmbeddings(matrix, benchmarks, config, pool.get());
  if (!trained_or.ok()) return Fail(trained_or.status());
  const recall::EmbedTrainingResult& trained = *trained_or;

  Status put = store_or->PutRecallEmbeddings(id, trained.embeddings);
  if (!put.ok()) return Fail(put);
  std::cout << "recall embeddings -> " << store_path << " (id " << id
            << ")\n";
  std::cout << "trained " << trained.embeddings.num_models() << " model"
            << " embeddings (dim " << trained.embeddings.dim() << ") over "
            << matrix.num_datasets() << " benchmarks in " << config.epochs
            << " epochs\n"
            << "loss: " << strings::FormatDouble(
                   trained.epoch_losses.front(), 6)
            << " (init) -> " << strings::FormatDouble(
                   trained.epoch_losses.back(), 6)
            << " (final)\n";
  return 0;
}

int RunBaselines(const FlagParser& flags) {
  auto domain_or = DomainFromFlag(flags);
  if (!domain_or.ok()) return Fail(domain_or.status());
  auto artifacts_or = serve::ServiceArtifacts::Build(*domain_or);
  if (!artifacts_or.ok()) return Fail(artifacts_or.status());
  const serve::ServiceArtifacts& artifacts = *artifacts_or;
  const ModelZoo& zoo = artifacts.zoo;
  auto target_or = artifacts.registry.Find(flags.GetString("target"));
  if (!target_or.ok()) return Fail(target_or.status());

  FineTuneSimulator simulator;
  const Hyperparams hp = Hyperparams::DefaultsFor(*domain_or);
  std::vector<size_t> all(zoo.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;

  TablePrinter table({"method", "epochs", "selected model", "accuracy"});
  {
    BruteForceSelector bf(&zoo, &simulator);
    EpochBudget budget;
    auto outcome = bf.Select(all, **target_or, hp, &budget);
    if (!outcome.ok()) return Fail(outcome.status());
    table.AddRow({"brute force",
                  strings::FormatDouble(budget.total_epochs(), 1),
                  zoo.model(outcome->selected_model).name(),
                  strings::FormatDouble(outcome->selected_accuracy, 4)});
  }
  {
    SuccessiveHalvingSelector sh(&zoo, &simulator);
    EpochBudget budget;
    auto outcome = sh.Select(all, **target_or, hp, &budget);
    if (!outcome.ok()) return Fail(outcome.status());
    table.AddRow({"successive halving",
                  strings::FormatDouble(budget.total_epochs(), 1),
                  zoo.model(outcome->selected_model).name(),
                  strings::FormatDouble(outcome->selected_accuracy, 4)});
  }
  {
    TwoPhaseSelector selector(&zoo, &artifacts.matrix, &artifacts.clustering,
                              &simulator);
    auto report = selector.Select(**target_or, TwoPhaseOptions(), hp);
    if (!report.ok()) return Fail(report.status());
    table.AddRow(
        {"two-phase (CR+FS)",
         strings::FormatDouble(report->budget.total_epochs(), 1),
         zoo.model(report->selection.selected_model).name(),
         strings::FormatDouble(report->selection.selected_accuracy, 4)});
  }
  table.Print(std::cout);
  return 0;
}

int RunDatasets(const FlagParser& flags) {
  auto domain_or = DomainFromFlag(flags);
  if (!domain_or.ok()) return Fail(domain_or.status());
  auto registry_or = DatasetRegistry::CreatePaperInventory();
  if (!registry_or.ok()) return Fail(registry_or.status());
  TablePrinter table({"dataset", "role", "labels", "difficulty", "tags"});
  for (const Dataset& ds : registry_or->datasets()) {
    if (ds.spec().domain != *domain_or) continue;
    table.AddRow({ds.name(), ToString(ds.spec().role),
                  std::to_string(ds.spec().num_labels),
                  strings::FormatDouble(ds.spec().difficulty, 2),
                  strings::Join(ds.spec().tags, " ")});
  }
  table.Print(std::cout);
  return 0;
}

int RunModels(const FlagParser& flags) {
  auto domain_or = DomainFromFlag(flags);
  if (!domain_or.ok()) return Fail(domain_or.status());
  auto zoo_or = PaperZoo(*domain_or);
  if (!zoo_or.ok()) return Fail(zoo_or.status());
  TablePrinter table({"model", "family", "params (M)", "capability",
                      "fine-tune tags"});
  for (const PretrainedModel& model : zoo_or->models()) {
    table.AddRow({model.name(), model.spec().family,
                  strings::FormatDouble(model.spec().scale_millions, 0),
                  strings::FormatDouble(model.capability(), 3),
                  strings::Join(model.spec().finetune_tags, " ")});
  }
  table.Print(std::cout);
  return 0;
}

int RunCard(const FlagParser& flags) {
  const std::string name = flags.GetString("model");
  if (name.empty()) {
    return Fail(Status::InvalidArgument("--model is required"));
  }
  for (TaskDomain domain : {TaskDomain::kNLP, TaskDomain::kCV}) {
    auto zoo_or = PaperZoo(domain);
    if (!zoo_or.ok()) return Fail(zoo_or.status());
    auto model_or = zoo_or->Find(name);
    if (model_or.ok()) {
      std::cout << GenerateModelCard((*model_or)->spec());
      return 0;
    }
  }
  return Fail(Status::NotFound("model not found in either zoo: " + name));
}

/// Prints the line both store subcommands share: what recovery found when
/// the log was replayed. This is the observable face of torn-tail
/// recovery — a crashed writer shows up here as a torn tail (truncated by
/// store-compact, left on disk by the read-only store-info).
void PrintRecoveryStats(const ModelStore& store) {
  std::cout << "recovery: " << store.recovery_stats().ToString() << "\n";
}

int RunStoreInfo(const FlagParser& flags) {
  const std::string store_path = flags.GetString("store");
  if (store_path.empty()) {
    return Fail(Status::InvalidArgument("--store is required"));
  }
  // Read-only: inspecting a store never creates it, and a torn tail that a
  // writer may still be appending is reported, not truncated.
  auto store_or = ModelStore::OpenReadOnly(store_path);
  if (!store_or.ok()) return Fail(store_or.status());
  const ModelStore& store = *store_or;

  std::cout << "model store: " << store_path << "\n";
  PrintRecoveryStats(store);
  std::cout << "log records: " << store.log_records() << " ("
            << store.size() << " live entries)\n";
  TablePrinter table({"namespace", "entries", "ids"});
  const auto row = [&table](const char* ns, std::vector<std::string> ids) {
    constexpr size_t kMaxShown = 4;
    const size_t total = ids.size();
    std::string shown;
    if (total > kMaxShown) {
      ids.resize(kMaxShown);
      shown = strings::Join(ids, " ") + " ... +" +
              std::to_string(total - kMaxShown) + " more";
    } else {
      shown = strings::Join(ids, " ");
    }
    table.AddRow({ns, std::to_string(total), shown});
  };
  row("model", store.ListModels());
  row("dataset", store.ListDatasets());
  row("matrix", store.ListMatrices());
  row("clustering", store.ListClusterings());
  row("index", store.ListIndexes());
  row("embed", store.ListEmbeddings());
  table.Print(std::cout);
  return 0;
}

int RunStoreCompact(const FlagParser& flags) {
  const std::string store_path = flags.GetString("store");
  if (store_path.empty()) {
    return Fail(Status::InvalidArgument("--store is required"));
  }
  // Compacting rewrites an existing log; it never creates an empty one.
  if (!Env::Default()->FileExists(store_path)) {
    return Fail(Status::NotFound("no store at " + store_path));
  }
  auto store_or = ModelStore::Open(store_path);
  if (!store_or.ok()) return Fail(store_or.status());
  ModelStore store = std::move(store_or).value();

  PrintRecoveryStats(store);
  const size_t before = store.log_records();
  Status compacted = store.Compact();
  if (!compacted.ok()) return Fail(compacted);
  std::cout << "compacted " << store_path << ": " << before << " -> "
            << store.log_records() << " log records (" << store.size()
            << " live entries)\n";
  return 0;
}

int Dispatch(const std::string& command, const FlagParser& flags) {
  if (command == "offline") return RunOffline(flags);
  if (command == "zoo-gen") return RunZooGen(flags);
  if (command == "recall") return RunRecall(flags);
  if (command == "select") return RunSelect(flags);
  if (command == "trace") return RunTrace(flags);
  if (command == "train-embed") return RunTrainEmbed(flags);
  if (command == "baselines") return RunBaselines(flags);
  if (command == "datasets") return RunDatasets(flags);
  if (command == "models") return RunModels(flags);
  if (command == "card") return RunCard(flags);
  if (command == "store-info") return RunStoreInfo(flags);
  if (command == "store-compact") return RunStoreCompact(flags);
  if (command == "serve") return serve::RunServe(flags);
  if (command == "query") return serve::RunQuery(flags);
  if (command == "reload") return serve::RunReload(flags);
  return Usage();
}

int Main(int argc, char** argv) {
  auto flags_or = FlagParser::Parse(argc, argv);
  if (!flags_or.ok()) return Fail(flags_or.status());
  const FlagParser& flags = *flags_or;
  if (flags.positionals().empty()) return Usage();
  const int code = Dispatch(flags.positionals()[0], flags);
  if (flags.Has("metrics")) {
    // Dump even after a failed command: the counters recorded up to the
    // failure are exactly what a postmortem wants. A dump failure never
    // masks the command's own exit code.
    const int metrics_code = EmitText(MetricsRegistry::Default()->ToJson(2),
                                      flags.GetString("metrics"), "metrics");
    if (code == 0 && metrics_code != 0) return metrics_code;
  }
  return code;
}

}  // namespace
}  // namespace cli
}  // namespace tps

int main(int argc, char** argv) { return tps::cli::Main(argc, argv); }
