#ifndef TPS_SERVE_SERVICE_H_
#define TPS_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cancellation.h"
#include "core/selection_trace.h"
#include "core/two_phase.h"
#include "serve/artifact_slot.h"
#include "serve/artifacts.h"
#include "sim/finetune_simulator.h"
#include "transfer/kernels.h"
#include "transfer/proxy_flight.h"
#include "transfer/score_cache.h"
#include "util/metrics.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace tps {
namespace serve {

/// Tuning knobs for one SelectionService ("Serving" in DESIGN.md).
struct ServiceOptions {
  /// Request worker threads draining the admission queue (Submit path).
  /// 0 is valid: Submit then queues without ever draining — only useful
  /// for tests that drive the queue by hand via Handle.
  int worker_threads = 2;
  /// Bounded queue capacity. A Submit that finds the queue full is
  /// rejected immediately with an Unavailable response (explicit
  /// backpressure), never blocked.
  size_t max_queue = 64;
  /// Inner pipeline parallelism: > 1 creates one shared ThreadPool that
  /// all requests' recall/fine fan-outs run on. 1 = serial pipeline.
  int pipeline_threads = 1;
  /// Proxy-score cache entries shared by all requests; 0 disables the
  /// cache.
  size_t cache_capacity = 4096;
  /// Default per-request deadline in milliseconds; 0 = no deadline.
  /// Requests may override per call.
  double default_deadline_ms = 0.0;
  /// Cross-request proxy coalescing: concurrent requests needing the same
  /// (target, model, scorer) proxy share one computation (single-flight on
  /// the cache key, with cancellation-safe leader handoff). Bit-identical
  /// to independent computation — tests/serve/coalescing_test.cc — so this
  /// only changes cost, never answers.
  bool coalesce_proxies = true;
  /// Kernel family for the proxy hot path (forwarded to
  /// RecallOptions::kernel_mode). kBatched = SoA vectorized kernels;
  /// kReference = original scalar loops. Bit-identical by contract.
  kernels::KernelMode kernel_mode = kernels::KernelMode::kBatched;
  /// Metrics sink; nullptr -> MetricsRegistry::Default().
  MetricsRegistry* metrics = nullptr;
  /// Test-only hook: invoked by a worker thread immediately before it
  /// starts processing a dequeued request. Lets tests hold a worker on a
  /// latch to fill the queue deterministically. Never set in production.
  std::function<void()> pre_handle_hook;
};

/// One selection query.
struct SelectionRequest {
  std::string target;           // Dataset name, e.g. "mnli".
  size_t top_k = 10;            // Recall size handed to fine selection.
  double threshold = 0.0;       // Fine-filter threshold.
  std::string proxy = "leep";   // Single proxy scorer.
  std::vector<std::string> proxies;  // Multi-proxy override (may be empty).
  /// Per-request deadline in ms, measured from admission (Submit) or from
  /// Handle entry; <= 0 uses the service default; 0 default = none.
  double deadline_ms = 0.0;
  /// When true the response carries the full SelectionTrace.
  bool want_trace = false;
  /// Scored partitions to probe when the published artifacts carry a
  /// recall index; 0 = the index's default. Probing every scored partition
  /// reproduces the exact index over the serving clustering only when the
  /// published index propagates exactly (an IvfIndex built with
  /// propagation_neighbors = 0; the default keeps 8 neighbors). No effect
  /// when the artifacts have no index.
  size_t nprobe = 0;
  /// Recall backend routing ("Recall backends" in DESIGN.md): empty (the
  /// default) runs the built-in representative path exactly as before the
  /// backend interface existed; "representative" / "embedding" / "hybrid"
  /// route phase 1 through the named backend of the admission snapshot.
  /// Unknown names fail with NotFound, names the published artifacts
  /// cannot serve (no trained embeddings) with FailedPrecondition. For
  /// the embedding backend `nprobe` bounds the embedding-space IVF probe.
  std::string recall_backend;
};

/// One selection answer. `status` is OK on success; on failure every other
/// field except `target` is default-initialized (no partial results).
struct SelectionResponse {
  Status status;
  std::string target;
  std::string selected_model;
  double selected_accuracy = 0.0;
  double training_epochs = 0.0;
  double inference_epochs = 0.0;
  double total_epochs = 0.0;
  std::vector<size_t> survivors_per_stage;
  /// Wall time spent inside the pipeline (excludes queue wait).
  double wall_ms = 0.0;
  /// Cache hits/misses recorded by this request's recall phase.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  bool has_trace = false;
  SelectionTrace trace;
  /// Artifact version this request was served against (1 = the artifacts
  /// the service started with; each Reload bumps it). Set on failures too,
  /// so swap-under-load harnesses can attribute every answer to exactly
  /// one version.
  uint64_t artifact_version = 0;
  /// Recall index backend that served this request ("ivf", ...), empty
  /// when recall ranked through the exact index over the clustering.
  std::string index_backend;
  /// Recall backend that served this request, echoed from the request;
  /// empty when the built-in path ran unrouted.
  std::string recall_backend;
  /// Full pipeline report (recall ranking, outcome, budget) for embedded
  /// callers that need more than the summary fields (e.g. markdown report
  /// rendering). Never serialized onto the wire.
  TwoPhaseReport report;
};

/// Point-in-time service counters (the `stats` wire command and tests).
struct ServiceStats {
  size_t queue_depth = 0;
  /// Currently published artifact version (1 until the first Reload).
  uint64_t artifact_version = 0;
  /// Successful Reload calls over the service lifetime.
  uint64_t reloads = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t errors = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_entries = 0;
};

/// The embeddable serving layer: owns the published artifact versions, the
/// shared pipeline ThreadPool, the proxy-score cache, and a bounded request
/// queue with admission control, and answers many concurrent selection
/// requests without reloading anything per call.
///
/// Two entry points:
///  - Handle(): synchronous, runs the pipeline on the calling thread.
///    Thread-safe — any number of callers may Handle concurrently; they
///    share the cache and pool. Used by `tps_cli select` and tests.
///  - Submit(): admission-controlled. The request either takes a queue
///    slot (drained by worker threads) or is rejected immediately with an
///    Unavailable response. Deadlines start at admission, so time spent
///    queued counts against them. Used by the socket front end.
///
/// Hot artifact swap ("Serving: hot artifact swap" in DESIGN.md): Reload()
/// publishes new ServiceArtifacts with zero downtime. Every request
/// acquires an ArtifactSnapshot at admission and runs entirely against it;
/// Reload validates the new artifacts, publishes them RCU-style, and the
/// old version is destroyed when its last in-flight request finishes. The
/// proxy-score cache and flight group are epoch-tagged by artifact
/// version, so no response ever mixes scores from two versions.
///
/// Shutdown: the destructor stops the workers; requests still queued are
/// answered with Unavailable("service shutting down") rather than dropped.
///
/// Metrics (prefix `serve.`): requests/admitted/rejected/completed/
/// deadline_exceeded/errors/reloads counters, queue_depth gauge (current +
/// peak), artifact_version gauge, request_latency_us + queue_wait_us
/// histograms; plus the cache's own proxy_cache.* instruments.
class SelectionService {
 public:
  static StatusOr<std::unique_ptr<SelectionService>> Create(
      ServiceArtifacts artifacts, const ServiceOptions& options);

  ~SelectionService();

  SelectionService(const SelectionService&) = delete;
  SelectionService& operator=(const SelectionService&) = delete;

  /// Runs one request synchronously on the calling thread. Never queues.
  SelectionResponse Handle(const SelectionRequest& request);

  /// Admission control: queue the request or reject it now. The returned
  /// future always resolves (Unavailable on rejection/shutdown,
  /// DeadlineExceeded if it expired in the queue, the pipeline's answer
  /// otherwise).
  std::future<SelectionResponse> Submit(SelectionRequest request);

  /// Zero-downtime artifact hot swap: validates `artifacts`, publishes
  /// them as the next version, and returns. In-flight requests keep the
  /// version they were admitted against; requests admitted after Reload
  /// returns see the new one. Never blocks the serving path beyond the
  /// slot's pointer swap. On validation failure nothing is published and
  /// the current version keeps serving.
  Status Reload(ServiceArtifacts artifacts);

  /// As above, loading the artifacts from a store or plain files first —
  /// the whole load runs off the serving path (on the caller's thread).
  Status Reload(const ArtifactPaths& source);

  ServiceStats Stats() const;

  /// The currently published artifact snapshot (version, zoo, registry,
  /// ...). The returned shared_ptr pins that version alive; drop it
  /// promptly so retired versions can be freed after a Reload.
  std::shared_ptr<const ArtifactSnapshot> snapshot() const {
    return slot_.Acquire();
  }
  /// Version of the currently published artifacts (starts at 1).
  uint64_t artifact_version() const { return slot_.version(); }
  ProxyScoreCache* cache() { return cache_.get(); }
  ProxyFlightGroup* flight_group() { return flight_.get(); }
  size_t queue_depth() const;

 private:
  struct QueuedRequest {
    SelectionRequest request;
    std::promise<SelectionResponse> promise;
    /// Artifact version acquired at admission: the whole request runs
    /// against this snapshot no matter how many Reloads land while it
    /// waits in the queue.
    std::shared_ptr<const ArtifactSnapshot> snapshot;
    /// Deadline armed at admission (null when the request has none).
    std::shared_ptr<CancelToken> token;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  SelectionService(ServiceArtifacts artifacts, const ServiceOptions& options);

  /// Core pipeline: resolve target, build TwoPhaseOptions (cache, cancel,
  /// trace), run the selector, fill the response. `token` may be null;
  /// `snapshot` is the version acquired at admission.
  SelectionResponse Run(const SelectionRequest& request,
                        const CancelToken* token,
                        const ArtifactSnapshot& snapshot);

  void WorkerLoop();

  const ServiceOptions options_;
  MetricsRegistry* const metrics_;
  ArtifactSlot slot_;
  std::unique_ptr<ThreadPool> pool_;      // Null when pipeline_threads == 1.
  std::unique_ptr<ProxyScoreCache> cache_;  // Null when capacity == 0.
  std::unique_ptr<ProxyFlightGroup> flight_;  // Null when coalescing is off.

  /// Serializes Reload callers (version allocation + publish); never held
  /// while serving.
  std::mutex reload_mu_;

  mutable std::mutex mu_;
  std::condition_variable queue_ready_;
  std::deque<QueuedRequest> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;

  // Local stats mirrors (exact reads for Stats() independent of the
  // registry).
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> reloads_{0};
};

}  // namespace serve
}  // namespace tps

#endif  // TPS_SERVE_SERVICE_H_
