// Serving-layer throughput: a closed-loop load generator drives the
// SelectionService through its admission path (Submit) with N concurrent
// clients and reports per-request latency percentiles, sustained QPS and
// the proxy-score cache hit rate, cold vs warm vs cache-off. The headline
// number is the warm-over-cold speedup: once the cache holds the proxy
// scores for the request mix, the recall phase stops recomputing them.
//
// A second experiment measures the cold path itself: a stampede of clients
// hitting the same never-seen target at once, with the proxy-score cache
// off, so cross-request proxy coalescing is the only thing that collapses
// the duplicate work.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "bench/lib/dispatch.h"
#include "bench/telemetry.h"
#include "serve/service.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tps {
namespace bench {
namespace {

using serve::SelectionRequest;
using serve::SelectionService;
using serve::ServiceArtifacts;
using serve::ServiceOptions;
using serve::ServiceStats;

constexpr int kClients = 4;
constexpr int kRequestsPerClient = 25;
constexpr int kStampedeClients = 8;

struct LoadResult {
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  ServiceStats stats;
};

/// Closed loop: each client thread issues its next request only after the
/// previous one resolved, round-robining over the domain's target sets.
LoadResult RunLoad(SelectionService& service,
                   const std::vector<const Dataset*>& targets) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::vector<double>> latencies(kClients);
  std::atomic<uint64_t> failures{0};
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      latencies[c].reserve(kRequestsPerClient);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        SelectionRequest request;
        request.target =
            targets[(c * kRequestsPerClient + i) % targets.size()]->name();
        const auto begin = Clock::now();
        const auto response = Submit(service, std::move(request)).get();
        latencies[c].push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - begin)
                .count());
        if (!response.status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  if (failures.load() > 0) {
    std::cerr << "warning: " << failures.load()
              << " requests failed during the load run\n";
  }

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  LoadResult result;
  result.wall_ms = wall_ms;
  result.qps = static_cast<double>(all.size()) / (wall_ms / 1000.0);
  result.p50_ms = stats::Percentile(all, 50.0);
  result.p99_ms = stats::Percentile(all, 99.0);
  result.stats = service.Stats();
  return result;
}

/// Cold-request stampede: for every target in turn, kStampedeClients
/// clients submit the identical request simultaneously against a service
/// with no proxy-score cache. Every measured request is cold; coalescing
/// is the only thing that collapses the duplicate work. The
/// requests ask for the full proxy suite — the per-model scoring kernels
/// are the cold path the stampede is designed to stress.
LoadResult RunStampede(SelectionService& service,
                       const std::vector<const Dataset*>& targets) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> all;
  std::mutex mu;
  std::atomic<uint64_t> failures{0};
  const auto start = Clock::now();
  for (const Dataset* target : targets) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kStampedeClients; ++c) {
      clients.emplace_back([&, target] {
        SelectionRequest request;
        request.target = target->name();
        request.proxies = {"leep", "nce", "logme", "knn"};
        const auto begin = Clock::now();
        const auto response = Submit(service, std::move(request)).get();
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - begin)
                .count();
        if (!response.status.ok()) failures.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        all.push_back(ms);
      });
    }
    for (std::thread& client : clients) client.join();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  if (failures.load() > 0) {
    std::cerr << "warning: " << failures.load()
              << " requests failed during the stampede run\n";
  }
  LoadResult result;
  result.wall_ms = wall_ms;
  result.qps = static_cast<double>(all.size()) / (wall_ms / 1000.0);
  result.p50_ms = stats::Percentile(all, 50.0);
  result.p99_ms = stats::Percentile(all, 99.0);
  result.stats = service.Stats();
  return result;
}

double HitRate(const ServiceStats& stats) {
  const double total =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  return total == 0.0 ? 0.0
                      : static_cast<double>(stats.cache_hits) / total;
}

void Report() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int build_threads = std::max(1, hw - 1);
  BenchTelemetry telemetry("serve_throughput");

  std::cout << "=== Serving throughput: closed-loop load against the "
               "SelectionService ===\n"
            << kClients << " clients x " << kRequestsPerClient
            << " requests, NLP targets round-robin, workers="
            << kClients << "\n\n";

  ServiceArtifacts artifacts = ExitIfError(
      ServiceArtifacts::Build(TaskDomain::kNLP, build_threads), "artifacts");
  const std::vector<const Dataset*> targets =
      Targets(artifacts.registry, TaskDomain::kNLP);

  TablePrinter table({"run", "QPS", "p50 ms", "p99 ms", "cache hit rate",
                      "hits", "misses"});
  const auto record = [&](const std::string& name, const LoadResult& r) {
    table.AddRow({name, strings::FormatDouble(r.qps, 1),
                  strings::FormatDouble(r.p50_ms, 3),
                  strings::FormatDouble(r.p99_ms, 3),
                  strings::Format("%.1f%%", 100.0 * HitRate(r.stats)),
                  std::to_string(r.stats.cache_hits),
                  std::to_string(r.stats.cache_misses)});
    telemetry.RecordPhase("NLP/" + name, r.wall_ms, 0.0, 0.0);
    telemetry.RecordValue("NLP/" + name + "/qps", r.qps);
    telemetry.RecordValue("NLP/" + name + "/p50_ms", r.p50_ms);
    telemetry.RecordValue("NLP/" + name + "/p99_ms", r.p99_ms);
    telemetry.RecordValue("NLP/" + name + "/cache_hit_rate",
                          HitRate(r.stats));
  };

  ServiceOptions options;
  options.worker_threads = kClients;
  options.max_queue = 2 * kClients * kRequestsPerClient;

  // Cache off: every request recomputes every proxy score.
  LoadResult off;
  {
    ServiceOptions no_cache = options;
    no_cache.cache_capacity = 0;
    auto service = ExitIfError(
        SelectionService::Create(artifacts, no_cache), "service (no cache)");
    off = RunLoad(*service, targets);
    record("cache_off", off);
  }

  // Cold: fresh cache, the first pass over the target mix fills it.
  auto service = ExitIfError(SelectionService::Create(artifacts, options),
                             "service");
  const LoadResult cold = RunLoad(*service, targets);
  record("cold_cache", cold);

  // Warm: same service, same mix — recall now hits instead of scoring.
  const LoadResult warm = RunLoad(*service, targets);
  ServiceStats warm_stats = warm.stats;
  // Stats are cumulative across both runs on this service; isolate the
  // warm pass so the hit rate reflects it alone.
  warm_stats.cache_hits -= cold.stats.cache_hits;
  warm_stats.cache_misses -= cold.stats.cache_misses;
  LoadResult warm_only = warm;
  warm_only.stats = warm_stats;
  record("warm_cache", warm_only);

  // Cold-request stampede. The cache is disabled so every measured
  // request is genuinely cold — otherwise late arrivals in a wave hit
  // entries inserted by early finishers and the run degenerates into the
  // warm-cache measurement above. The flight group still collapses each
  // wave to a single computation per proxy.
  ServiceOptions stampede_options = options;
  stampede_options.worker_threads = kStampedeClients;
  stampede_options.max_queue = 4 * kStampedeClients;
  stampede_options.cache_capacity = 0;
  auto stampede_service = ExitIfError(
      SelectionService::Create(artifacts, stampede_options),
      "service (stampede)");
  record("stampede_batched_coalesced",
         RunStampede(*stampede_service, targets));

  table.Print(std::cout);
  const double speedup = warm.p50_ms > 0.0 ? off.p50_ms / warm.p50_ms : 0.0;
  std::cout << "\nwarm-cache p50 speedup vs cache-off: "
            << strings::Format("%.2fx", speedup) << "\n";
  telemetry.RecordValue("NLP/warm_vs_off_p50_speedup", speedup);
  telemetry.WriteFileOrWarn();
}

}  // namespace
}  // namespace bench
}  // namespace tps

int main() {
  tps::bench::Report();
  return 0;
}
