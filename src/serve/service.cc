#include "serve/service.h"

#include <utility>

#include "util/timer.h"

namespace tps {
namespace serve {

StatusOr<std::unique_ptr<SelectionService>> SelectionService::Create(
    ServiceArtifacts artifacts, const ServiceOptions& options) {
  if (options.worker_threads < 0) {
    return Status::InvalidArgument("worker_threads must be >= 0");
  }
  if (options.max_queue == 0) {
    return Status::InvalidArgument("max_queue must be >= 1");
  }
  if (options.pipeline_threads < 1) {
    return Status::InvalidArgument("pipeline_threads must be >= 1");
  }
  if (options.default_deadline_ms < 0.0) {
    return Status::InvalidArgument("default_deadline_ms must be >= 0");
  }
  TPS_RETURN_NOT_OK(artifacts.Validate());
  // unique_ptr over make_unique: the constructor is private.
  return std::unique_ptr<SelectionService>(
      new SelectionService(std::move(artifacts), options));
}

SelectionService::SelectionService(ServiceArtifacts artifacts,
                                   const ServiceOptions& options)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : MetricsRegistry::Default()),
      slot_(std::make_shared<const ArtifactSnapshot>(std::move(artifacts),
                                                     /*version=*/1)) {
  if (options_.pipeline_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(ThreadPool::ClampThreads(
        options_.pipeline_threads, slot_.Acquire()->artifacts.zoo.size()));
  }
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ProxyScoreCache>(options_.cache_capacity,
                                               metrics_);
  }
  if (options_.coalesce_proxies) {
    flight_ = std::make_unique<ProxyFlightGroup>(metrics_);
  }
  metrics_->gauge("serve.artifact_version").Set(1.0);
  workers_.reserve(static_cast<size_t>(options_.worker_threads));
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SelectionService::~SelectionService() {
  std::deque<QueuedRequest> abandoned;
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    abandoned.swap(queue_);
  }
  queue_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  for (QueuedRequest& queued : abandoned) {
    SelectionResponse response;
    response.target = queued.request.target;
    response.artifact_version = queued.snapshot->version;
    response.status = Status::Unavailable("service shutting down");
    queued.promise.set_value(std::move(response));
  }
}

Status SelectionService::Reload(ServiceArtifacts artifacts) {
  // Validate BEFORE publishing: a malformed artifact set must never
  // replace a healthy serving version.
  TPS_RETURN_NOT_OK(artifacts.Validate());
  {
    std::lock_guard<std::mutex> lock(reload_mu_);
    const uint64_t next_version = slot_.version() + 1;
    slot_.Publish(std::make_shared<const ArtifactSnapshot>(
        std::move(artifacts), next_version));
    // The retired snapshot (Publish's return value) is dropped here; it is
    // destroyed once the last in-flight request releases its reference.
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  metrics_->counter("serve.reloads").Increment();
  metrics_->gauge("serve.artifact_version")
      .Set(static_cast<double>(slot_.version()));
  return Status::OK();
}

Status SelectionService::Reload(const ArtifactPaths& source) {
  // The load + validation run on the caller's thread; serving threads see
  // nothing until the pointer swap inside Reload(ServiceArtifacts).
  TPS_ASSIGN_OR_RETURN(ServiceArtifacts artifacts,
                       ServiceArtifacts::Load(source));
  return Reload(std::move(artifacts));
}

SelectionResponse SelectionService::Handle(const SelectionRequest& request) {
  metrics_->counter("serve.requests").Increment();
  const std::shared_ptr<const ArtifactSnapshot> snapshot = slot_.Acquire();
  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  CancelToken token;
  const CancelToken* token_ptr = nullptr;
  if (deadline_ms > 0.0) {
    token.SetDeadlineAfterMillis(deadline_ms);
    token_ptr = &token;
  }
  return Run(request, token_ptr, *snapshot);
}

std::future<SelectionResponse> SelectionService::Submit(
    SelectionRequest request) {
  metrics_->counter("serve.requests").Increment();
  QueuedRequest queued;
  queued.request = std::move(request);
  // Snapshot acquired at admission: whatever Reloads land while this
  // request is queued, it runs against the version that admitted it.
  queued.snapshot = slot_.Acquire();
  queued.enqueued_at = std::chrono::steady_clock::now();
  const double deadline_ms = queued.request.deadline_ms > 0.0
                                 ? queued.request.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    // Armed at admission: queue wait burns deadline budget.
    queued.token = std::make_shared<CancelToken>();
    queued.token->SetDeadlineAfterMillis(deadline_ms);
  }
  std::future<SelectionResponse> future = queued.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!shutting_down_ && queue_.size() < options_.max_queue) {
      queue_.push_back(std::move(queued));
      metrics_->gauge("serve.queue_depth")
          .Set(static_cast<double>(queue_.size()));
      metrics_->gauge("serve.queue_depth")
          .SetMax(static_cast<double>(queue_.size()));
      admitted_.fetch_add(1, std::memory_order_relaxed);
      metrics_->counter("serve.admitted").Increment();
      lock.unlock();
      queue_ready_.notify_one();
      return future;
    }
  }
  // Rejected: explicit backpressure, never blocking the caller.
  rejected_.fetch_add(1, std::memory_order_relaxed);
  metrics_->counter("serve.rejected").Increment();
  SelectionResponse response;
  response.target = queued.request.target;
  response.artifact_version = queued.snapshot->version;
  response.status = Status::Unavailable(
      "request queue full (" + std::to_string(options_.max_queue) +
      " deep); retry later");
  queued.promise.set_value(std::move(response));
  return future;
}

void SelectionService::WorkerLoop() {
  for (;;) {
    QueuedRequest queued;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_ready_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (shutting_down_) return;  // Destructor answers leftovers.
      queued = std::move(queue_.front());
      queue_.pop_front();
      metrics_->gauge("serve.queue_depth")
          .Set(static_cast<double>(queue_.size()));
    }
    if (options_.pre_handle_hook) options_.pre_handle_hook();
    const double queue_wait_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - queued.enqueued_at)
            .count();
    metrics_->histogram("serve.queue_wait_us").Record(queue_wait_us);
    queued.promise.set_value(
        Run(queued.request, queued.token.get(), *queued.snapshot));
    // queued goes out of scope here, releasing the snapshot reference —
    // the last release after a Reload destroys the retired version.
  }
}

SelectionResponse SelectionService::Run(const SelectionRequest& request,
                                        const CancelToken* token,
                                        const ArtifactSnapshot& snapshot) {
  WallTimer timer;
  SelectionResponse response;
  response.target = request.target;
  response.artifact_version = snapshot.version;

  const uint64_t hits_before = cache_ != nullptr ? cache_->hits() : 0;
  const uint64_t misses_before = cache_ != nullptr ? cache_->misses() : 0;

  const ServiceArtifacts& artifacts = snapshot.artifacts;
  auto run = [&]() -> Status {
    // A request that expired in the queue is answered without touching
    // the pipeline.
    TPS_RETURN_NOT_OK(CheckCancel(token, "admission"));
    TPS_ASSIGN_OR_RETURN(const Dataset* target,
                         artifacts.registry.Find(request.target));
    if (target->spec().domain != artifacts.domain) {
      return Status::InvalidArgument(
          "target '" + request.target + "' is a " +
          std::string(ToString(target->spec().domain)) +
          " dataset but the service holds " +
          std::string(ToString(artifacts.domain)) + " artifacts");
    }
    TwoPhaseOptions options;
    options.recall.top_k_models = request.top_k;
    options.recall.proxy = request.proxy;
    options.recall.proxies = request.proxies;
    options.recall.score_cache = cache_.get();
    options.recall.flight_group = flight_.get();
    options.recall.kernel_mode = options_.kernel_mode;
    // Cache/flight entries are tagged with the snapshot's version, so two
    // versions never exchange scores — even for requests racing a swap.
    options.recall.artifact_epoch = snapshot.version;
    // Sub-linear recall: serve through the snapshot's index when it has
    // one. The index lives inside the snapshot, so it stays alive for the
    // whole request even if a Reload retires this version mid-flight.
    if (artifacts.index != nullptr) {
      options.recall.index = artifacts.index.get();
      options.recall.nprobe = request.nprobe;
      response.index_backend = artifacts.index->name();
    }
    // Recall backend routing: an empty name is the legacy built-in path
    // (provably untouched — no backend pointer is even set); a named
    // backend resolves against this snapshot's own backend set, so the
    // backend and the artifacts it reads are always the same version.
    if (!request.recall_backend.empty()) {
      TPS_ASSIGN_OR_RETURN(options.recall.backend,
                           snapshot.backends.Find(request.recall_backend));
      response.recall_backend = request.recall_backend;
    }
    options.fine_selection.threshold = request.threshold;
    options.metrics = metrics_;
    options.cancel = token;
    if (request.want_trace) options.trace = &response.trace;

    TPS_ASSIGN_OR_RETURN(
        TwoPhaseReport report,
        snapshot.selector.Select(
            *target, options,
            Hyperparams::DefaultsFor(target->spec().domain), pool_.get()));
    response.selected_model =
        artifacts.zoo.model(report.selection.selected_model).name();
    response.selected_accuracy = report.selection.selected_accuracy;
    response.training_epochs = report.budget.training_epochs();
    response.inference_epochs = report.budget.inference_epochs();
    response.total_epochs = report.budget.total_epochs();
    response.survivors_per_stage = report.selection.survivors_per_stage;
    response.has_trace = request.want_trace;
    response.report = std::move(report);
    return Status::OK();
  };
  response.status = run();
  if (!response.status.ok()) {
    // No partial results: wipe everything the failed attempt may have
    // started to fill (the trace in particular).
    const std::string target_name = response.target;
    const Status status = response.status;
    response = SelectionResponse();
    response.target = target_name;
    response.status = status;
    response.artifact_version = snapshot.version;
  }

  response.wall_ms = timer.ElapsedMillis();
  if (cache_ != nullptr) {
    response.cache_hits = cache_->hits() - hits_before;
    response.cache_misses = cache_->misses() - misses_before;
  }
  metrics_->histogram("serve.request_latency_us")
      .Record(response.wall_ms * 1e3);
  if (response.status.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    metrics_->counter("serve.completed").Increment();
  } else if (response.status.IsDeadlineExceeded()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    metrics_->counter("serve.deadline_exceeded").Increment();
  } else {
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics_->counter("serve.errors").Increment();
  }
  return response;
}

ServiceStats SelectionService::Stats() const {
  ServiceStats stats;
  stats.queue_depth = queue_depth();
  stats.artifact_version = slot_.version();
  stats.reloads = reloads_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) {
    stats.cache_hits = cache_->hits();
    stats.cache_misses = cache_->misses();
    stats.cache_evictions = cache_->evictions();
    stats.cache_entries = cache_->size();
  }
  return stats;
}

size_t SelectionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace serve
}  // namespace tps
