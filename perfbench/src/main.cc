// Wire-level benchmark of the selection server. One run builds a workload's artifacts cold,
// serves them through the real SelectionService + SelectionServer on a
// Unix socket, drives an open-loop window against it, checks every reply
// against an oracle, and prints one JSON result line. With --trace 1 it
// then replays the workload through each layer's public calls and prints
// per-layer metrics instead. See README.md for the workloads and metrics.
//
//   perfbench --workload warm_nlp --seed 1 --seconds 45 --trace 0

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/coarse_recall.h"
#include "core/convergence_trend.h"
#include "core/evaluation.h"
#include "core/fine_selection.h"
#include "core/model_clusterer.h"
#include "core/performance_matrix.h"
#include "data/registry.h"
#include "index/ivf_index.h"
#include "loadgen.h"
#include "model/paper_zoo.h"
#include "model/zoo_gen.h"
#include "recall/embed_trainer.h"
#include "recall/recall_backend.h"
#include "serve/artifacts.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/hyperparams.h"
#include "store/model_store.h"
#include "transfer/proxy_scorer.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/socket.h"
#include "util/stats.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using tps::Dataset;
using tps::DatasetRegistry;
using tps::DatasetSpec;
using tps::MetricsRegistry;
using tps::Status;
using tps::StatusOr;
using tps::TaskDomain;
using tps::serve::ArtifactPaths;
using tps::serve::ArtifactSnapshot;
using tps::serve::SelectionRequest;
using tps::serve::SelectionResponse;
using tps::serve::SelectionServer;
using tps::serve::SelectionService;
using tps::serve::ServiceArtifacts;
using tps::serve::ServiceOptions;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Calls `fn` `reps` times and returns the median wall time of one call in
/// microseconds. Short calls run in batches of `batch` so the clock's own
/// cost stays out of the figure.
double MedianMicros(size_t reps, size_t batch,
                    const std::function<void()>& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (size_t r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    for (size_t b = 0; b < batch; ++b) fn();
    us.push_back(SecondsSince(start) * 1e6 / static_cast<double>(batch));
  }
  return tps::stats::Median(us);
}

template <typename T>
T OrDie(StatusOr<T> value, const std::string& what) {
  if (!value.ok()) {
    std::cerr << "perfbench: " << what << ": " << value.status().ToString()
              << "\n";
    std::exit(1);
  }
  return std::move(value).value();
}

void OrDie(const Status& status, const std::string& what) {
  if (!status.ok()) {
    std::cerr << "perfbench: " << what << ": " << status.ToString() << "\n";
    std::exit(1);
  }
}

// --------------------------------------------------------------------------
// Command line.

struct Args {
  Workload workload = Workload::kWarmNlp;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores and the socket, relative to the cwd.
  std::string workdir = ".bench_build/work";
  /// Provenance passed in by run.py.
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      return Status::InvalidArgument("flag --" + arg + " needs a value");
    }
  }
  Args args;
  try {
    for (const auto& [name, value] : flags) {
      if (name == "workload") {
        TPS_ASSIGN_OR_RETURN(args.workload, ParseWorkload(value));
      } else if (name == "seed") {
        args.seed = std::stoull(value);
      } else if (name == "seconds") {
        args.seconds = std::stod(value);
      } else if (name == "trace") {
        args.trace = std::stoi(value) != 0;
      } else if (name == "workdir") {
        args.workdir = value;
      } else if (name == "commit") {
        args.commit = value;
      } else if (name == "source-digest") {
        args.source_digest = value;
      } else {
        return Status::InvalidArgument("unknown flag --" + name);
      }
    }
  } catch (const std::exception&) {
    return Status::InvalidArgument("malformed numeric flag value");
  }
  if (flags.count("workload") == 0) {
    return Status::InvalidArgument("--workload is required");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
    return Status::InvalidArgument("--seconds must be in (0, 120]");
  }
  return args;
}

// --------------------------------------------------------------------------
// Workload plans: everything generated from the seed, fixed before any
// timing starts.

struct Plan {
  Workload workload = Workload::kWarmNlp;
  TaskDomain domain = TaskDomain::kNLP;
  /// Generated zoo size; 0 = the paper zoo.
  size_t gen_models = 0;
  /// Extra target datasets registered for serving: seeded ones the mix
  /// uses, and fixed ones only the quality pass uses.
  std::vector<DatasetSpec> novel_targets;
  std::vector<DatasetSpec> quality_targets;
  /// The round-robin request mix.
  std::vector<SelectionRequest> mix;
  /// Store ids of the artifact sets; the first one is served at start.
  std::vector<std::string> set_ids;
  /// Cold set-ups per run (the median is reported).
  int setups = 1;
  ScheduleSpec schedule_spec;
  /// Requests whose answers give epochs_per_select, selected_acc and
  /// recall_at_10. Independent of the seed, so quality moves only with the
  /// program.
  std::vector<SelectionRequest> quality;
  /// Reloads timed on an idle server after the window (workloads without
  /// reloads in the window) and in-process by the traced mode.
  int reload_samples = 3;
};

std::vector<std::string> DomainTargets(TaskDomain domain) {
  std::vector<std::string> names;
  for (const DatasetSpec& spec : domain == TaskDomain::kNLP
                                     ? tps::NlpTargetSpecs()
                                     : tps::CvTargetSpecs()) {
    names.push_back(spec.name);
  }
  return names;
}

SelectionRequest Select(const std::string& target,
                        const std::string& backend = "") {
  SelectionRequest request;
  request.target = target;
  request.recall_backend = backend;
  return request;
}

Plan MakePlan(Workload workload, uint64_t seed, double seconds) {
  Plan plan;
  plan.workload = workload;
  const int connections = std::min(
      kMaxConnections,
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  plan.schedule_spec.seconds = seconds;
  plan.schedule_spec.connections = connections;
  switch (workload) {
    case Workload::kWarmNlp:
      plan.domain = TaskDomain::kNLP;
      for (const std::string& t : DomainTargets(plan.domain)) {
        plan.mix.push_back(Select(t));
      }
      plan.set_ids = {"nlp"};
      plan.setups = 21;
      plan.schedule_spec.rate_qps = 300.0;
      plan.reload_samples = 45;
      break;
    case Workload::kColdGen10k:
      plan.domain = TaskDomain::kNLP;
      plan.gen_models = 10000;
      plan.novel_targets = NovelNlpTargets(512, seed);
      for (const DatasetSpec& spec : plan.novel_targets) {
        plan.mix.push_back(Select(spec.name));
      }
      plan.set_ids = {"gen10k"};
      plan.setups = 1;
      plan.schedule_spec.rate_qps = 40.0;
      // recall@10 over the paper targets plus a fixed set of novel ones:
      // the truth costs a simulator run per model and target.
      for (const std::string& t : DomainTargets(plan.domain)) {
        plan.quality.push_back(Select(t));
      }
      plan.quality_targets = NovelNlpTargets(28, kQualitySeed);
      for (DatasetSpec& spec : plan.quality_targets) {
        spec.name = "quality_" + spec.name;
        plan.quality.push_back(Select(spec.name));
      }
      break;
    case Workload::kSwapCv:
      plan.domain = TaskDomain::kCV;
      for (const std::string& t : DomainTargets(plan.domain)) {
        for (const char* backend : {"", "embedding", "hybrid"}) {
          plan.mix.push_back(Select(t, backend));
        }
      }
      plan.set_ids = {"cv_a", "cv_b"};
      plan.setups = 15;
      plan.schedule_spec.rate_qps = 200.0;
      plan.schedule_spec.reload_every_s = 1.0;
      break;
  }
  plan.schedule_spec.mix_size = plan.mix.size();
  if (plan.quality.empty()) plan.quality = plan.mix;
  return plan;
}

StatusOr<DatasetRegistry> ServingRegistry(const Plan& plan) {
  std::vector<DatasetSpec> specs;
  for (auto* list : {&tps::NlpBenchmarkSpecs, &tps::NlpTargetSpecs,
                     &tps::CvBenchmarkSpecs, &tps::CvTargetSpecs}) {
    for (DatasetSpec& spec : (*list)()) specs.push_back(std::move(spec));
  }
  for (const auto* extra : {&plan.novel_targets, &plan.quality_targets}) {
    specs.insert(specs.end(), extra->begin(), extra->end());
  }
  return DatasetRegistry::Create(specs);
}

// --------------------------------------------------------------------------
// Cold set-up: offline build -> store -> load -> service -> server -> first
// select answered.

/// Wall time of each set-up stage, seconds.
struct SetupTimes {
  double total_s = 0.0;
  double matrix_s = 0.0;
  double cluster_s = 0.0;
  double index_s = 0.0;
  double embed_s = 0.0;
  double store_write_s = 0.0;
  double load_s = 0.0;
};

/// A running server. Members are destroyed bottom-up: the server stops
/// before the service, the service before its metrics sink.
struct Serving {
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<SelectionService> service;
  std::unique_ptr<SelectionServer> server;
};

ArtifactPaths PathsFor(const Plan& plan, const std::string& store,
                       const std::string& id) {
  ArtifactPaths paths;
  paths.domain = plan.domain;
  paths.store = store;
  paths.id = id;
  return paths;
}

/// Loads one artifact set and registers the plan's extra targets.
StatusOr<ServiceArtifacts> LoadArtifacts(const Plan& plan,
                                         const std::string& store,
                                         const std::string& id,
                                         DatasetRegistry* registry) {
  TPS_ASSIGN_OR_RETURN(ServiceArtifacts artifacts,
                       ServiceArtifacts::Load(PathsFor(plan, store, id)));
  if (registry != nullptr) artifacts.registry = std::move(*registry);
  return artifacts;
}

StatusOr<SelectionResponse> WireSelect(tps::Socket& socket,
                                       const SelectionRequest& request) {
  TPS_RETURN_NOT_OK(
      socket.SendAll(tps::serve::RequestToLine(request) + "\n"));
  std::string buffer;
  TPS_ASSIGN_OR_RETURN(std::string line, socket.RecvLine(&buffer));
  return tps::serve::ParseResponseLine(line);
}

StatusOr<Serving> ColdSetup(const Plan& plan, const std::string& store,
                            const std::string& socket_path,
                            std::optional<DatasetRegistry> serving_registry,
                            SetupTimes* times) {
  std::filesystem::remove(store);
  const Clock::time_point start = Clock::now();
  tps::FineTuneSimulator simulator;
  const tps::Hyperparams hp = tps::Hyperparams::DefaultsFor(plan.domain);
  TPS_ASSIGN_OR_RETURN(DatasetRegistry registry,
                       DatasetRegistry::CreatePaperInventory());
  std::vector<tps::ModelSpec> specs;
  if (plan.gen_models > 0) {
    tps::ZooGenSpec gen;
    gen.domain = plan.domain;
    gen.num_models = plan.gen_models;
    TPS_ASSIGN_OR_RETURN(specs, tps::GenerateZooSpecs(gen));
  } else {
    specs = plan.domain == TaskDomain::kNLP ? tps::NlpPaperZooSpecs()
                                            : tps::CvPaperZooSpecs();
  }
  TPS_ASSIGN_OR_RETURN(tps::ModelZoo zoo, tps::ModelZoo::Create(specs));
  const std::vector<const Dataset*> benchmarks =
      registry.Benchmarks(plan.domain);

  Clock::time_point stage = Clock::now();
  TPS_ASSIGN_OR_RETURN(tps::PerformanceMatrix matrix,
                       tps::PerformanceMatrix::BuildParallel(
                           zoo, benchmarks, simulator, hp, 1));
  times->matrix_s = SecondsSince(stage);

  // Generated zoos serve through the IVF index and derive their clustering
  // from its partitions (hierarchical clustering is cubic in the zoo).
  std::optional<tps::IvfIndex> index;
  std::vector<tps::ModelClustering> clusterings;
  stage = Clock::now();
  if (plan.gen_models > 0) {
    TPS_ASSIGN_OR_RETURN(index, tps::IvfIndex::Build(
                                    matrix.ModelVectors(),
                                    matrix.ModelAverageAccuracies(),
                                    tps::IvfIndexOptions()));
    times->index_s = SecondsSince(stage);
    stage = Clock::now();
    TPS_ASSIGN_OR_RETURN(tps::ModelClustering clustering,
                         tps::ClusteringFromIndexStructure(index->structure()));
    clusterings.push_back(std::move(clustering));
  } else {
    TPS_ASSIGN_OR_RETURN(tps::ModelClustering clustering,
                         tps::ClusterModels(matrix, zoo,
                                            tps::ModelClusteringOptions()));
    clusterings.push_back(std::move(clustering));
  }
  // The second artifact set re-clusters into a fixed three clusters, so
  // the two sets recall differently.
  if (plan.set_ids.size() > 1) {
    tps::ModelClusteringOptions fixed;
    fixed.num_clusters = 3;
    TPS_ASSIGN_OR_RETURN(tps::ModelClustering clustering,
                         tps::ClusterModels(matrix, zoo, fixed));
    clusterings.push_back(std::move(clustering));
  }
  times->cluster_s = SecondsSince(stage);

  std::vector<tps::recall::RecallEmbeddings> embeddings;
  if (plan.workload == Workload::kSwapCv) {
    stage = Clock::now();
    for (size_t s = 0; s < plan.set_ids.size(); ++s) {
      tps::recall::EmbeddingConfig config;
      config.seed = 7 + 4 * s;
      TPS_ASSIGN_OR_RETURN(
          tps::recall::EmbedTrainingResult trained,
          tps::recall::TrainRecallEmbeddings(matrix, benchmarks, config));
      embeddings.push_back(std::move(trained.embeddings));
    }
    times->embed_s = SecondsSince(stage);
  }

  stage = Clock::now();
  {
    TPS_ASSIGN_OR_RETURN(tps::ModelStore out, tps::ModelStore::Open(store));
    for (const tps::PretrainedModel& model : zoo.models()) {
      TPS_RETURN_NOT_OK(out.PutModelSpec(model.spec()));
    }
    for (const Dataset& dataset : registry.datasets()) {
      if (dataset.spec().domain != plan.domain) continue;
      TPS_RETURN_NOT_OK(out.PutDatasetSpec(dataset.spec()));
    }
    for (size_t s = 0; s < plan.set_ids.size(); ++s) {
      const std::string& id = plan.set_ids[s];
      TPS_RETURN_NOT_OK(out.PutPerformanceMatrix(id, matrix));
      TPS_RETURN_NOT_OK(out.PutClustering(id, clusterings[s]));
      if (index.has_value()) {
        TPS_RETURN_NOT_OK(out.PutRecallIndex(id, *index));
      }
      if (!embeddings.empty()) {
        TPS_RETURN_NOT_OK(out.PutRecallEmbeddings(id, embeddings[s]));
      }
    }
  }
  times->store_write_s = SecondsSince(stage);

  stage = Clock::now();
  TPS_ASSIGN_OR_RETURN(
      ServiceArtifacts artifacts,
      LoadArtifacts(plan, store, plan.set_ids[0],
                    serving_registry ? &*serving_registry : nullptr));
  times->load_s = SecondsSince(stage);

  Serving serving;
  serving.metrics = std::make_unique<MetricsRegistry>();
  ServiceOptions options;
  options.metrics = serving.metrics.get();
  TPS_ASSIGN_OR_RETURN(serving.service,
                       SelectionService::Create(std::move(artifacts), options));
  tps::serve::ServerOptions server_options;
  server_options.unix_path = socket_path;
  TPS_ASSIGN_OR_RETURN(
      serving.server,
      SelectionServer::Start(serving.service.get(), server_options));
  TPS_ASSIGN_OR_RETURN(tps::Socket socket, tps::ConnectUnix(socket_path));
  TPS_RETURN_NOT_OK(WireSelect(socket, plan.mix.front()).status());
  times->total_s = SecondsSince(start);
  return serving;
}

// --------------------------------------------------------------------------
// Oracle: each (request, artifact set)'s answer, computed single-request
// by Handle on a separate, cache-less service instance.

/// The parts of a reply the oracle pins, as they read after a trip
/// through the wire codec.
struct Answer {
  std::string selected_model;
  double total_epochs = 0.0;
};

Answer ToAnswer(const SelectionResponse& response) {
  const SelectionResponse wire = OrDie(
      tps::serve::ParseResponseLine(tps::serve::ResponseToLine(response)),
      "oracle reply round trip");
  return {wire.selected_model, wire.total_epochs};
}

bool SameAnswer(const Answer& want, const SelectionResponse& got) {
  return got.selected_model == want.selected_model &&
         got.total_epochs == want.total_epochs;
}

/// Runs Handle over every mix request on `threads` callers at once.
std::vector<SelectionResponse> HandleAll(
    SelectionService& service, const std::vector<SelectionRequest>& mix,
    int threads) {
  std::vector<SelectionResponse> out(mix.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < mix.size();
           i = next.fetch_add(1)) {
        out[i] = service.Handle(mix[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return out;
}

// --------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += tps::json::EscapeString(metrics[i].name) +
           ": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": " + tps::json::EscapeString(metrics[i].unit) + "}";
  }
  return out + "}";
}

struct CounterSnapshot {
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t flight_leaders = 0, flight_waiters = 0;
  uint64_t proxies = 0, epoch_steps = 0, sim_runs = 0;
  double queue_wait_sum = 0.0;
  uint64_t queue_wait_count = 0;
};

CounterSnapshot ReadCounters(MetricsRegistry& m) {
  CounterSnapshot s;
  s.cache_hits = m.counter("proxy_cache.hits").value();
  s.cache_misses = m.counter("proxy_cache.misses").value();
  s.flight_leaders = m.counter("proxy_flight.leaders").value();
  s.flight_waiters = m.counter("proxy_flight.waiters").value();
  s.proxies = m.counter("recall.proxies_computed").value();
  s.epoch_steps = m.counter("fine.epoch_steps").value();
  // The simulator reports to the process-wide registry.
  s.sim_runs = MetricsRegistry::Default()->counter("sim.runs").value();
  const tps::Histogram& wait = m.histogram("serve.queue_wait_us");
  s.queue_wait_sum = wait.sum();
  s.queue_wait_count = wait.count();
  return s;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --------------------------------------------------------------------------
// Traced mode: spans from this file around each layer's public calls,
// replayed single-threaded on the workload's own targets and artifacts.

struct TraceInputs {
  const Plan* plan = nullptr;
  SelectionService* service = nullptr;   // Measured instance, post-window.
  size_t cursor = 0;   // Mix position the window stopped at.
  size_t selects = 0;  // Completed selects of the window.
  CounterSnapshot before, after;
  const SetupTimes* setup = nullptr;
  double latency_p50_ms = 0.0;
  double late_p50_ms = 0.0, late_p99_ms = 0.0;
  std::string store;
};

std::vector<Metric> TraceLayers(TraceInputs& in) {
  const Plan& plan = *in.plan;
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    out.push_back({name, value, unit});
  };
  MetricsRegistry quiet(false);
  const std::shared_ptr<const ArtifactSnapshot> snap = in.service->snapshot();
  const ServiceArtifacts& art = snap->artifacts;
  const tps::Hyperparams hp = tps::Hyperparams::DefaultsFor(plan.domain);

  // Embedding and hybrid recall: the served backends where the workload
  // has trained embeddings, otherwise embeddings trained here for the
  // replay only.
  std::optional<tps::recall::RecallEmbeddings> own_embeddings;
  std::optional<tps::IvfIndex> own_embedding_index;
  double embed_train_s = in.setup->embed_s;
  std::vector<std::unique_ptr<tps::recall::RecallBackend>> own_backends;
  std::vector<const tps::recall::RecallBackend*> backends;
  if (art.embeddings != nullptr) {
    for (const char* name : {"embedding", "hybrid"}) {
      backends.push_back(OrDie(snap->backends.Find(name), "backend"));
    }
  } else {
    std::vector<const Dataset*> rows;
    for (const std::string& name : art.matrix.dataset_names()) {
      rows.push_back(OrDie(art.registry.Find(name), "benchmark"));
    }
    const Clock::time_point start = Clock::now();
    own_embeddings = OrDie(tps::recall::TrainRecallEmbeddings(
                               art.matrix, rows,
                               tps::recall::EmbeddingConfig()),
                           "train embeddings")
                         .embeddings;
    embed_train_s = SecondsSince(start);
    own_embedding_index = OrDie(
        tps::IvfIndex::Build(own_embeddings->model_embeddings(),
                             own_embeddings->prior(), tps::IvfIndexOptions()),
        "embedding index");
    const tps::recall::RecallBackendContext context{
        &art.zoo, &art.matrix, &art.clustering, &*own_embeddings,
        &*own_embedding_index};
    for (const char* name : {"embedding", "hybrid"}) {
      own_backends.push_back(
          OrDie(tps::recall::CreateRecallBackend(name, context), "backend"));
      backends.push_back(own_backends.back().get());
    }
  }

  // Recall exactly as the service runs it (its cache, flights, epoch and
  // index), then fine selection on the recalled candidates.
  auto recall_options = [&](const SelectionRequest& r) {
    tps::RecallOptions o;
    o.top_k_models = r.top_k;
    o.proxy = r.proxy;
    o.score_cache = in.service->cache();
    o.flight_group = in.service->flight_group();
    o.artifact_epoch = snap->version;
    if (art.index != nullptr) {
      o.index = art.index.get();
      o.nprobe = r.nprobe;
    }
    return o;
  };
  tps::CoarseRecall coarse(&art.zoo, &art.matrix, &art.clustering);
  tps::ConvergenceTrendMiner miner(&art.matrix);
  tps::FineSelectionSelector fine(&art.zoo, &snap->simulator, &miner);

  // One interleaved replay: each round times Handle, then default recall
  // plus fine selection, then each learned backend, every call on a fresh
  // mix position after the window's last one (so a workload whose working
  // set misses the cache keeps missing). Interleaving keeps the ratios
  // between layers honest while the host's speed drifts.
  auto next_request = [&] {
    SelectionRequest r = plan.mix[in.cursor++ % plan.mix.size()];
    const Dataset* target = OrDie(art.registry.Find(r.target), "target");
    return std::make_pair(r, target);
  };
  const size_t rounds = std::min<size_t>(plan.mix.size() * 16, 64);
  std::vector<double> handle_us, recall_us, fine_us;
  std::vector<std::vector<double>> backend_us(backends.size());
  std::vector<std::pair<const Dataset*, std::vector<size_t>>> recalled;
  for (size_t round = 0; round < rounds; ++round) {
    auto [request, target] = next_request();
    Clock::time_point start = Clock::now();
    OrDie(in.service->Handle(request).status, "trace handle");
    handle_us.push_back(SecondsSince(start) * 1e6);

    std::tie(request, target) = next_request();
    const tps::RecallOptions options = recall_options(request);
    start = Clock::now();
    const tps::RecallResult result = OrDie(
        coarse.Recall(*target, options, nullptr, nullptr, &quiet),
        "trace recall");
    recall_us.push_back(SecondsSince(start) * 1e6);
    const std::vector<size_t> candidates = result.TopModels(request.top_k);
    tps::EpochBudget budget;
    start = Clock::now();
    OrDie(fine.Select(candidates, *target, hp, &budget, nullptr, &quiet),
          "trace fine");
    fine_us.push_back(SecondsSince(start) * 1e6);
    recalled.emplace_back(target, candidates);

    for (size_t b = 0; b < backends.size(); ++b) {
      std::tie(request, target) = next_request();
      start = Clock::now();
      OrDie(backends[b]->Recall(*target, recall_options(request), nullptr,
                                nullptr, &quiet),
            "trace backend recall");
      backend_us[b].push_back(SecondsSince(start) * 1e6);
    }
    // Skip one position, so over the rounds every layer sees every mix
    // entry even when the mix size is a multiple of the calls per round.
    ++in.cursor;
  }
  const double handle_p50 = tps::stats::Median(handle_us) / 1e3;
  const double recall_p50 = tps::stats::Median(recall_us);
  const double fine_p50 = tps::stats::Median(fine_us);

  // Wire codec and snapshot acquire.
  std::vector<std::string> lines;
  for (const SelectionRequest& r : plan.mix) {
    lines.push_back(tps::serve::RequestToLine(r));
  }
  size_t li = 0;
  const double parse_us = MedianMicros(101, 64, [&] {
    OrDie(tps::serve::ParseRequestLine(lines[li++ % lines.size()]), "parse");
  });
  std::vector<SelectionResponse> replies;
  for (size_t i = 0; i < std::min<size_t>(8, plan.mix.size()); ++i) {
    replies.push_back(in.service->Handle(next_request().first));
  }
  size_t ri = 0;
  const double encode_us = MedianMicros(101, 64, [&] {
    const std::string line =
        tps::serve::ResponseToLine(replies[ri++ % replies.size()]);
    if (line.empty()) std::exit(1);
  });
  const double snapshot_us = MedianMicros(101, 256, [&] {
    if (in.service->snapshot() == nullptr) std::exit(1);
  });

  // Proxy kernel, trend mining and simulator runs, per call.
  auto scorer = OrDie(tps::MakeProxyScorer("leep"), "leep scorer");
  std::vector<double> proxy_us, mine_us, sim_us;
  for (const auto& [target, candidates] : recalled) {
    for (size_t m : candidates) {
      const tps::PretrainedModel& model = art.zoo.model(m);
      Clock::time_point start = Clock::now();
      OrDie(scorer->Score(model, *target), "leep");
      proxy_us.push_back(SecondsSince(start) * 1e6);
      for (int stage = 0; stage < hp.epochs; ++stage) {
        start = Clock::now();
        OrDie(miner.MineTrends(m, stage), "mine trends");
        mine_us.push_back(SecondsSince(start) * 1e6);
      }
      start = Clock::now();
      OrDie(snap->simulator.Run(model, *target, hp), "simulate");
      sim_us.push_back(SecondsSince(start) * 1e6);
    }
  }

  // Trend mines per select, from the rung entrants of traced answers.
  double mines = 0.0;
  size_t traced = 0;
  for (size_t i = 0; i < std::min<size_t>(16, plan.mix.size()); ++i) {
    SelectionRequest r = next_request().first;
    r.want_trace = true;
    const SelectionResponse resp = in.service->Handle(r);
    OrDie(resp.status, "traced select");
    for (const tps::TraceStage& stage : resp.trace.stages) {
      if (stage.entrants.size() > 1) {
        mines += static_cast<double>(stage.entrants.size());
      }
    }
    ++traced;
  }

  // Offline layers not already timed by this workload's set-up.
  double index_s = in.setup->index_s;
  if (art.index == nullptr) {
    const Clock::time_point start = Clock::now();
    OrDie(tps::IvfIndex::Build(art.matrix.ModelVectors(),
                               art.matrix.ModelAverageAccuracies(),
                               tps::IvfIndexOptions()),
          "index build");
    index_s = SecondsSince(start);
  }

  // Hot swap in-process. Last, because a reload re-reads the registry from
  // the store and drops the workload's own targets.
  std::vector<double> reload_ms;
  for (int r = 0; r < plan.reload_samples; ++r) {
    const std::string& id =
        plan.set_ids[static_cast<size_t>(r) % plan.set_ids.size()];
    const Clock::time_point start = Clock::now();
    OrDie(in.service->Reload(PathsFor(plan, in.store, id)), "trace reload");
    reload_ms.push_back(SecondsSince(start) * 1e3);
  }

  const double selects = static_cast<double>(std::max<size_t>(1, in.selects));
  const CounterSnapshot& a = in.after;
  const CounterSnapshot& b = in.before;
  const double hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double misses = static_cast<double>(a.cache_misses - b.cache_misses);
  const double leaders =
      static_cast<double>(a.flight_leaders - b.flight_leaders);
  const double waiters =
      static_cast<double>(a.flight_waiters - b.flight_waiters);

  add("serve.handle_ms", handle_p50, "ms");
  add("serve.wire_overhead_ms", in.latency_p50_ms - handle_p50, "ms");
  add("serve.parse_us", parse_us, "us");
  add("serve.encode_us", encode_us, "us");
  add("serve.snapshot_us", snapshot_us, "us");
  add("serve.queue_wait_us",
      Ratio(a.queue_wait_sum - b.queue_wait_sum,
            static_cast<double>(a.queue_wait_count - b.queue_wait_count)),
      "us");
  add("serve.reload_ms", tps::stats::Median(reload_ms), "ms");
  add("recall.call_us.default", recall_p50, "us");
  add("recall.call_us.embedding", tps::stats::Median(backend_us[0]), "us");
  add("recall.call_us.hybrid", tps::stats::Median(backend_us[1]), "us");
  add("recall.proxies_per_select",
      static_cast<double>(a.proxies - b.proxies) / selects, "count");
  add("transfer.proxy_us", tps::stats::Median(proxy_us), "us");
  add("transfer.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  add("transfer.flight_share", Ratio(waiters, leaders + waiters), "ratio");
  add("fine.call_us", fine_p50, "us");
  add("fine.trend_mine_us", tps::stats::Median(mine_us), "us");
  add("fine.trend_mines_per_select",
      mines / static_cast<double>(std::max<size_t>(1, traced)), "count");
  add("fine.epoch_steps_per_select",
      static_cast<double>(a.epoch_steps - b.epoch_steps) / selects, "count");
  add("sim.run_us", tps::stats::Median(sim_us), "us");
  add("sim.runs_per_select",
      static_cast<double>(a.sim_runs - b.sim_runs) / selects, "count");
  add("offline.matrix_s", in.setup->matrix_s, "s");
  add("offline.cluster_s", in.setup->cluster_s, "s");
  add("index.build_s", index_s, "s");
  add("offline.embed_train_s", embed_train_s, "s");
  add("offline.store_write_s", in.setup->store_write_s, "s");
  add("offline.load_s", in.setup->load_s, "s");
  add("gen.late_ms.p50", in.late_p50_ms, "ms");
  add("gen.late_ms.p99", in.late_p99_ms, "ms");
  add("trace.coverage", Ratio(recall_p50 + fine_p50, handle_p50 * 1e3),
      "ratio");
  return out;
}

/// Prints whether the workload loaded the layer it exists for. The result
/// is a report, not a correctness gate: a change may legitimately move a
/// layer's share (e.g. a cheaper fine phase on warm_nlp).
void PrintLayerChecks(Workload workload, const std::vector<Metric>& layers,
                      size_t versions_seen) {
  auto value = [&](const std::string& name) {
    for (const Metric& m : layers) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const double hit_ratio = value("transfer.cache_hit_ratio");
  const bool fine_larger =
      value("fine.call_us") > value("recall.call_us.default");
  auto verdict = [](bool ok) { return ok ? "yes" : "NO"; };
  std::cout << "layer check: ";
  switch (workload) {
    case Workload::kWarmNlp:
      std::cout << "cache_hit_ratio >= 0.99: " << verdict(hit_ratio >= 0.99)
                << "; fine larger than recall: " << verdict(fine_larger);
      break;
    case Workload::kColdGen10k:
      std::cout << "cache_hit_ratio <= 0.01: " << verdict(hit_ratio <= 0.01)
                << "; fine smaller than recall: " << verdict(!fine_larger);
      break;
    case Workload::kSwapCv:
      std::cout << "artifact versions seen >= 2: "
                << verdict(versions_seen >= 2);
      break;
  }
  std::cout << "\n";
}

// --------------------------------------------------------------------------

/// Each mix request's answer on every artifact set, and answer quality
/// over the fixed request set, from a separate, cache-less instance (so
/// the measured cache stays as cold as the workload needs).
struct OracleResult {
  std::vector<std::vector<Answer>> answers;  // [artifact set][mix entry]
  double epochs = 0.0;
  double accuracy = 0.0;
  double recall_at_10 = 0.0;
};

OracleResult RunOracle(const Plan& plan, const std::string& store) {
  std::optional<DatasetRegistry> registry;
  if (!plan.novel_targets.empty()) {
    registry = OrDie(ServingRegistry(plan), "oracle registry");
  }
  ServiceOptions options;
  options.worker_threads = 0;
  options.cache_capacity = 0;
  MetricsRegistry quiet(false);
  options.metrics = &quiet;
  std::unique_ptr<SelectionService> oracle = OrDie(
      SelectionService::Create(
          OrDie(LoadArtifacts(plan, store, plan.set_ids[0],
                              registry ? &*registry : nullptr),
                "oracle artifacts"),
          options),
      "oracle service");
  const int callers = plan.schedule_spec.connections;
  OracleResult out;
  std::vector<SelectionResponse> quality;
  for (size_t s = 0; s < plan.set_ids.size(); ++s) {
    if (s > 0) {
      OrDie(oracle->Reload(PathsFor(plan, store, plan.set_ids[s])),
            "oracle reload");
    }
    out.answers.emplace_back();
    for (const SelectionResponse& r : HandleAll(*oracle, plan.mix, callers)) {
      OrDie(r.status, "oracle select " + r.target);
      out.answers.back().push_back(ToAnswer(r));
    }
    for (SelectionResponse& r : HandleAll(*oracle, plan.quality, callers)) {
      OrDie(r.status, "quality select " + r.target);
      quality.push_back(std::move(r));
    }
  }

  // Epoch cost, the selected model's accuracy, and recall@10 against the
  // simulator's true top 10, averaged over every artifact set.
  const std::shared_ptr<const ArtifactSnapshot> snap = oracle->snapshot();
  const ServiceArtifacts& art = snap->artifacts;
  const tps::Hyperparams hp = tps::Hyperparams::DefaultsFor(plan.domain);
  std::map<std::string, std::vector<size_t>> truth_top;
  for (const SelectionResponse& r : quality) {
    out.epochs += r.total_epochs;
    out.accuracy += r.selected_accuracy;
    std::vector<size_t>& want = truth_top[r.target];
    if (want.empty()) {
      const Dataset* target = OrDie(art.registry.Find(r.target), "target");
      want = tps::TopKByAccuracy(
          OrDie(tps::TrueFinalAccuracies(art.zoo, *target, snap->simulator,
                                         hp),
                "truth"),
          10);
    }
    const std::vector<size_t> top = r.report.recall.TopModels(10);
    const std::set<size_t> got(top.begin(), top.end());
    size_t hit = 0;
    for (size_t m : want) hit += got.count(m);
    out.recall_at_10 +=
        static_cast<double>(hit) / static_cast<double>(want.size());
  }
  const double n = static_cast<double>(quality.size());
  out.epochs /= n;
  out.accuracy /= n;
  out.recall_at_10 /= n;
  return out;
}

/// The window's replies, checked against the oracle.
struct WindowCheck {
  size_t selects = 0;
  size_t completed = 0;  // Answered OK.
  size_t matched = 0;    // Answered OK with the oracle's answer.
  size_t wrong = 0;      // Answered OK with another answer or version.
  size_t reloads_sent = 0;
  size_t reloads_ok = 0;
  std::vector<double> latency_ms;  // Completed selects.
  std::vector<double> late_ms;     // Every event.
  std::vector<double> reload_ms;   // Send to ack.
  std::set<uint64_t> versions_seen;
};

bool IsReloadAck(const std::string& reply, uint64_t* version) {
  auto doc = tps::json::Parse(reply);
  if (!doc.ok()) return false;
  const tps::json::Value* ok = doc->Find("ok");
  const tps::json::Value* v = doc->Find("artifact_version");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value() || v == nullptr ||
      !v->is_number()) {
    return false;
  }
  *version = static_cast<uint64_t>(v->number());
  return true;
}

/// `start_version` is the version the server publishes when the window
/// starts, always of artifact set 0.
WindowCheck CheckWindow(const Schedule& schedule, const WindowResult& window,
                        const std::vector<std::vector<Answer>>& answers,
                        uint64_t start_version) {
  WindowCheck check;
  // Published versions, from the reload acks: version -> artifact set.
  std::map<uint64_t, size_t> version_set = {{start_version, 0}};
  for (size_t i = 0; i < schedule.events.size(); ++i) {
    const Event& e = schedule.events[i];
    const EventResult& r = window.events[i];
    check.late_ms.push_back(r.late_ms);
    if (!e.reload) continue;
    ++check.reloads_sent;
    check.reload_ms.push_back(r.service_ms);
    uint64_t version = 0;
    if (IsReloadAck(r.reply, &version)) {
      version_set[version] = e.index;
      ++check.reloads_ok;
    }
  }
  for (size_t i = 0; i < schedule.events.size(); ++i) {
    const Event& e = schedule.events[i];
    if (e.reload) continue;
    ++check.selects;
    auto reply = tps::serve::ParseResponseLine(window.events[i].reply);
    if (!reply.ok()) continue;
    ++check.completed;
    check.latency_ms.push_back(window.events[i].latency_ms);
    check.versions_seen.insert(reply->artifact_version);
    const auto set = version_set.find(reply->artifact_version);
    if (set != version_set.end() &&
        SameAnswer(answers[set->second][e.index], *reply)) {
      ++check.matched;
    } else {
      ++check.wrong;
    }
  }
  return check;
}

std::string ReloadLine(const std::string& store, const std::string& id) {
  return "{\"cmd\":\"reload\",\"store\":" + tps::json::EscapeString(store) +
         ",\"id\":" + tps::json::EscapeString(id) + "}";
}

int Run(const Args& args) {
  const Plan plan = MakePlan(args.workload, args.seed, args.seconds);
  const Schedule schedule = MakeSchedule(plan.schedule_spec, args.seed);
  std::filesystem::create_directories(args.workdir);
  const std::string tag = args.workdir + "/" + WorkloadName(plan.workload) +
                          "-" + std::to_string(::getpid());
  const std::string store = tag + ".store";
  const std::string socket_path = tag + ".sock";

  // Cold set-ups: the first half before the window, the last of which keeps
  // serving, and the rest after it (untraced runs only), so their median
  // spans the host's spells over the whole run rather than its first
  // seconds.
  std::vector<SetupTimes> setups;
  std::optional<Serving> serving;
  auto cold_setup = [&] {
    serving.reset();
    std::optional<DatasetRegistry> registry;
    if (!plan.novel_targets.empty()) {
      registry = OrDie(ServingRegistry(plan), "serving registry");
    }
    SetupTimes times;
    serving = OrDie(
        ColdSetup(plan, store, socket_path, std::move(registry), &times),
        "cold set-up");
    setups.push_back(times);
  };
  const int setups_before = (plan.setups + 1) / 2;
  for (int s = 0; s < setups_before; ++s) cold_setup();
  const SetupTimes serving_setup = setups.back();

  const OracleResult oracle = RunOracle(plan, store);

  // Workloads without reloads in the window time them on an idle server,
  // half before the window and half after it, so their median spans the
  // run as the set-ups' does. A workload with its own targets reloads only
  // after the window: a reload re-reads the registry from the store, which
  // drops them.
  std::vector<double> idle_reload_ms;
  size_t idle_reloads_ok = 0;
  auto idle_reloads = [&](int count) {
    tps::Socket socket =
        OrDie(tps::ConnectUnix(socket_path), "reload connect");
    std::string buffer;
    for (int r = 0; r < count; ++r) {
      // Spaced out, so the median spans the host's slow and fast spells
      // the way the window's reloads on swap_cv do.
      if (r > 0) std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const Clock::time_point start = Clock::now();
      OrDie(socket.SendAll(ReloadLine(store, plan.set_ids[0]) + "\n"),
            "reload send");
      const std::string ack = OrDie(socket.RecvLine(&buffer), "reload ack");
      idle_reload_ms.push_back(SecondsSince(start) * 1e3);
      uint64_t version = 0;
      idle_reloads_ok += IsReloadAck(ack, &version);
    }
  };
  const bool idle = plan.schedule_spec.reload_every_s <= 0.0;
  const int reloads_before =
      idle && plan.novel_targets.empty() ? plan.reload_samples / 2 : 0;
  idle_reloads(reloads_before);

  // The oracle's copy of the artifacts and the versions the reloads replaced
  // are gone; restart the peak-RSS count so the figure is the server's (plus
  // the generator's) during the window.
  const bool peak_reset = ResetPeakRss();

  // Warm-up over the wire with the last entries of the mix: the whole mix
  // where it fits in the proxy cache, so the window starts warm; on a mix
  // that cannot fit, entries the window reaches only after they have been
  // evicted, so its misses stay honest.
  {
    tps::Socket socket =
        OrDie(tps::ConnectUnix(socket_path), "warm-up connect");
    const size_t warm = std::min<size_t>(plan.mix.size(), 16);
    for (size_t i = plan.mix.size() - warm; i < plan.mix.size(); ++i) {
      OrDie(WireSelect(socket, plan.mix[i]).status(), "warm-up select");
    }
  }

  // The measured window.
  const uint64_t start_version = serving->service->snapshot()->version;
  const CounterSnapshot before = ReadCounters(*serving->metrics);
  const WindowResult window = OrDie(
      RunOpenLoop(socket_path, schedule,
                  [&](const Event& e) {
                    return e.reload
                               ? ReloadLine(store, plan.set_ids[e.index])
                               : tps::serve::RequestToLine(plan.mix[e.index]);
                  }),
      "open-loop window");
  const CounterSnapshot after = ReadCounters(*serving->metrics);
  const double peak_rss_mb = PeakRssMb();
  WindowCheck check = CheckWindow(schedule, window, oracle.answers, start_version);
  const double p50 = tps::stats::Percentile(check.latency_ms, 50.0);
  const double late_p50 = tps::stats::Percentile(check.late_ms, 50.0);
  const double late_p99 = tps::stats::Percentile(check.late_ms, 99.0);

  std::vector<Metric> layers;
  if (args.trace) {
    TraceInputs in;
    in.plan = &plan;
    in.service = serving->service.get();
    in.cursor = schedule.events.size();
    in.selects = check.completed;
    in.before = before;
    in.after = after;
    in.setup = &serving_setup;
    in.latency_p50_ms = p50;
    in.late_p50_ms = late_p50;
    in.late_p99_ms = late_p99;
    in.store = store;
    layers = TraceLayers(in);
  }

  if (idle) idle_reloads(plan.reload_samples - reloads_before);
  check.reload_ms.insert(check.reload_ms.end(), idle_reload_ms.begin(),
                         idle_reload_ms.end());
  check.reloads_sent += idle_reload_ms.size();
  check.reloads_ok += idle_reloads_ok;

  if (!args.trace) {
    for (int s = setups_before; s < plan.setups; ++s) cold_setup();
  }
  serving.reset();
  std::filesystem::remove(store);
  std::filesystem::remove(socket_path);
  std::vector<double> setup_totals;
  for (const SetupTimes& t : setups) setup_totals.push_back(t.total_s);

  // A swap workload must really have swapped.
  const bool swapped = plan.schedule_spec.reload_every_s <= 0.0 ||
                       check.versions_seen.size() >= 2;
  const bool correct = check.wrong == 0 &&
                       check.reloads_ok == check.reloads_sent && swapped;
  const size_t attempted = check.selects + check.reloads_sent;
  const size_t failed = (check.selects - check.matched) +
                        (check.reloads_sent - check.reloads_ok);

  std::cout << "provenance: {\"workload\": \"" << WorkloadName(plan.workload)
            << "\", \"seed\": " << args.seed
            << ", \"seconds\": " << FormatNumber(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": " << tps::json::EscapeString(__VERSION__)
            << ", \"commit\": " << tps::json::EscapeString(args.commit)
            << ", \"source_digest\": "
            << tps::json::EscapeString(args.source_digest)
            << ", \"gen_late_ms_p50\": " << FormatNumber(late_p50)
            << ", \"gen_late_ms_p99\": " << FormatNumber(late_p99) << "}\n";
  std::cout << "window: " << check.selects << " selects ("
            << check.completed << " answered, " << check.matched
            << " matched the oracle, " << check.wrong << " wrong), "
            << check.reloads_ok << "/" << check.reloads_sent
            << " reloads ok, versions seen " << check.versions_seen.size()
            << "; latency p50 " << FormatNumber(p50) << " ms, p90 "
            << FormatNumber(tps::stats::Percentile(check.latency_ms, 90.0))
            << " ms, p99 "
            << FormatNumber(tps::stats::Percentile(check.latency_ms, 99.0))
            << " ms over " << check.latency_ms.size() << " samples; setups "
            << setup_totals.size() << ", reload samples "
            << check.reload_ms.size() << "; peak RSS "
            << (peak_reset ? "of the window" : "since start") << "\n";

  std::vector<Metric> metrics;
  if (args.trace) {
    PrintLayerChecks(plan.workload, layers, check.versions_seen.size());
    metrics = layers;
  } else {
    metrics = {
        {"setup_s", tps::stats::Median(setup_totals), "s"},
        {"latency_p50_ms", p50, "ms"},
        {"cpu_ms_per_select",
         ServerCpuMsPerOp(window.process_cpu_s, window.generator_cpu_s,
                          check.completed),
         "ms"},
        {"ok_share", Ratio(static_cast<double>(check.matched),
                           static_cast<double>(check.selects)),
         "ratio"},
        {"epochs_per_select", oracle.epochs, "epochs"},
        {"selected_acc", oracle.accuracy, "accuracy"},
        {"recall_at_10", oracle.recall_at_10, "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"reload_ms", tps::stats::Median(check.reload_ms), "ms"},
    };
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto args = perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << "perfbench: " << args.status().ToString() << "\n"
              << "usage: perfbench --workload "
                 "warm_nlp|cold_gen10k|swap_cv --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  return perfbench::Run(*args);
}
