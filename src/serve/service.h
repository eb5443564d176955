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
#include "transfer/proxy_flight.h"
#include "transfer/score_cache.h"
#include "util/metrics.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace tps {
namespace serve {

/// Tuning knobs for one SelectionService ("Serving" in DESIGN.md).
struct ServiceOptions {
  /// Run slots: at most this many admitted requests run their pipeline at
  /// once. One worker thread per slot drains the admission queue, and a
  /// Serve caller that finds a free slot and an empty queue takes the slot
  /// and runs on its own thread; both share the same slots. 0 is valid for
  /// Handle-only services: admitted requests then queue without ever
  /// running.
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
  /// Metrics sink; nullptr -> MetricsRegistry::Default().
  MetricsRegistry* metrics = nullptr;
  /// Test-only hook: invoked immediately before an admitted request starts
  /// its pipeline, on whichever thread runs it (a worker, or the Serve
  /// caller). Lets tests hold a run slot on a latch to fill the queue
  /// deterministically. Never set in production.
  std::function<void()> pre_handle_hook;
  /// Test-only hook: invoked on the admitting thread right after a request
  /// joins the admission queue, outside the service lock. Lets tests wait
  /// for a queue depth on a latch instead of polling. Never set in
  /// production.
  std::function<void()> queued_hook;
};

/// One selection query.
struct SelectionRequest {
  std::string target;           // Dataset name, e.g. "mnli".
  size_t top_k = 10;            // Recall size handed to fine selection.
  double threshold = 0.0;       // Fine-filter threshold.
  std::string proxy = "leep";   // Single proxy scorer.
  std::vector<std::string> proxies;  // Multi-proxy override (may be empty).
  /// Per-request deadline in ms, measured from admission (Submit, Serve)
  /// or from Handle entry; <= 0 uses the service default; 0 default = none.
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
  /// Recall backend routing ("Recall backends" in DESIGN.md):
  /// "representative" / "embedding" / "hybrid" route phase 1 through the
  /// named backend of the admission snapshot; empty (the default) means
  /// "representative", the same CoarseRecall, but is not echoed in the
  /// reply. Unknown names fail with NotFound, names the published
  /// artifacts cannot serve (no trained embeddings) with
  /// FailedPrecondition. For the embedding backend `nprobe` bounds the
  /// embedding-space IVF probe.
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
  /// Proxy-cache lookups of this request's own recall phase that hit /
  /// missed; requests running concurrently never count each other's.
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
/// shared pipeline ThreadPool, the proxy-score cache, the proxy flight
/// group (concurrent requests needing the same proxy always share one
/// computation — bit-identical to computing alone,
/// tests/serve/coalescing_test.cc), and a bounded request queue with
/// admission control, and answers many concurrent selection requests
/// without reloading anything per call.
///
/// Three entry points:
///  - Handle(): synchronous, runs the pipeline on the calling thread
///    outside admission control. Thread-safe — any number of callers may
///    Handle concurrently; they share the cache and pool. Used by
///    `tps_cli select` and tests.
///  - Submit(): admission-controlled. The request either takes a queue
///    slot (drained by worker threads) or is rejected immediately with an
///    Unavailable response. Deadlines start at admission, so time spent
///    queued counts against them.
///  - Serve(): the same admission, blocking. A request that finds a free
///    run slot and an empty queue runs on the calling thread; otherwise
///    it queues like Submit and the caller waits for its answer. Used by
///    the socket front end, so an uncontended select never changes
///    threads.
///
/// Hot artifact swap ("Serving: hot artifact swap" in DESIGN.md): Reload()
/// publishes new ServiceArtifacts with zero downtime. Every request
/// acquires an ArtifactSnapshot at admission and runs entirely against it;
/// Reload validates the new artifacts, publishes them RCU-style, and the
/// old version is destroyed when its last in-flight request finishes. The
/// proxy-score cache and flight group are tagged by the snapshot's cache
/// epoch, which a reload keeps only when it keeps the served zoo object,
/// so no response ever reads a score computed over another zoo.
///
/// Shutdown: the destructor stops the workers; requests still queued are
/// answered with Unavailable("service shutting down") rather than dropped.
/// Handle and Serve callers must return before the service is destroyed.
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

  /// Blocking admission control: admits exactly as Submit does, then runs
  /// the request on the calling thread when a run slot is free and nothing
  /// is queued, and otherwise waits for a worker to answer it. Returns
  /// what Submit's future would resolve to.
  SelectionResponse Serve(SelectionRequest request);

  /// Zero-downtime artifact hot swap: validates `artifacts`, publishes
  /// them as the next version, and returns. In-flight requests keep the
  /// version they were admitted against; requests admitted after Reload
  /// returns see the new one. Never blocks the serving path beyond the
  /// slot's pointer swap. On validation failure nothing is published and
  /// the current version keeps serving. Artifacts whose zoo shares the
  /// served zoo's model vector keep the served cache epoch, so cached
  /// proxy scores survive the swap.
  Status Reload(ServiceArtifacts artifacts);

  /// As above, loading the artifacts from a model store first —
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
  ProxyFlightGroup* flight_group() { return &flight_; }
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
    std::chrono::steady_clock::time_point admitted_at;
  };

  enum class Admission { kRejected, kQueued, kRunHere };

  SelectionService(ServiceArtifacts artifacts, const ServiceOptions& options);

  /// Core pipeline: resolve target, build TwoPhaseOptions (cache, cancel,
  /// trace), run the selector, fill the response. `token` may be null;
  /// `snapshot` is the version acquired at admission.
  SelectionResponse Run(const SelectionRequest& request,
                        const CancelToken* token,
                        const ArtifactSnapshot& snapshot);

  /// Admission shared by Submit and Serve: counts the request, pins the
  /// snapshot and arms the deadline on `queued`, then under mu_ takes a
  /// free run slot (kRunHere; only when `may_run_here` and nothing is
  /// queued, so queued requests keep FIFO order), or moves `queued` into
  /// the queue (kQueued), or rejects it (kRejected; `queued` is intact).
  Admission Admit(QueuedRequest& queued, bool may_run_here);

  /// The Unavailable answer to a request Admit rejected.
  SelectionResponse Rejection(const QueuedRequest& queued) const;

  /// Runs a request that holds a run slot on the calling thread — hook,
  /// queue-wait record, pipeline — and then frees the slot.
  SelectionResponse RunAdmitted(const QueuedRequest& queued);

  void WorkerLoop();

  const ServiceOptions options_;
  MetricsRegistry* const metrics_;
  ArtifactSlot slot_;
  std::unique_ptr<ThreadPool> pool_;      // Null when pipeline_threads == 1.
  std::unique_ptr<ProxyScoreCache> cache_;  // Null when capacity == 0.
  /// Coalesces concurrent requests' identical proxy computations.
  ProxyFlightGroup flight_;

  /// Serializes Reload callers (version allocation + publish); never held
  /// while serving.
  std::mutex reload_mu_;

  mutable std::mutex mu_;
  std::condition_variable queue_ready_;
  std::deque<QueuedRequest> queue_;
  bool shutting_down_ = false;
  /// Run slots taken, by workers and Serve callers alike; at most
  /// options_.worker_threads.
  int running_ = 0;
  std::vector<std::thread> workers_;

  // Local stats mirrors (exact reads for Stats() independent of the
  // registry).
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> reloads_{0};

  // Registry instruments, resolved once at construction.
  Counter& requests_counter_;
  Counter& admitted_counter_;
  Counter& rejected_counter_;
  Counter& completed_counter_;
  Counter& deadline_exceeded_counter_;
  Counter& errors_counter_;
  Counter& reloads_counter_;
  Gauge& queue_depth_gauge_;
  Gauge& version_gauge_;
  Histogram& request_latency_histogram_;
  Histogram& queue_wait_histogram_;
};

}  // namespace serve
}  // namespace tps

#endif  // TPS_SERVE_SERVICE_H_
