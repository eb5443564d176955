#include "serve/service.h"

#include <memory>
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
      slot_(std::make_shared<const ArtifactSnapshot>(
          std::move(artifacts), /*version=*/1, /*cache_epoch=*/1)),
      flight_(metrics_),
      requests_counter_(metrics_->counter("serve.requests")),
      admitted_counter_(metrics_->counter("serve.admitted")),
      rejected_counter_(metrics_->counter("serve.rejected")),
      completed_counter_(metrics_->counter("serve.completed")),
      deadline_exceeded_counter_(
          metrics_->counter("serve.deadline_exceeded")),
      errors_counter_(metrics_->counter("serve.errors")),
      reloads_counter_(metrics_->counter("serve.reloads")),
      queue_depth_gauge_(metrics_->gauge("serve.queue_depth")),
      version_gauge_(metrics_->gauge("serve.artifact_version")),
      request_latency_histogram_(
          metrics_->histogram("serve.request_latency_us")),
      queue_wait_histogram_(metrics_->histogram("serve.queue_wait_us")) {
  if (options_.pipeline_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(ThreadPool::ClampThreads(
        options_.pipeline_threads, slot_.Acquire()->artifacts.zoo.size()));
  }
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ProxyScoreCache>(options_.cache_capacity,
                                               metrics_);
  }
  version_gauge_.Set(1.0);
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
    const std::shared_ptr<const ArtifactSnapshot> served = slot_.Acquire();
    const uint64_t next_version = served->version + 1;
    // Proxy scores are pure functions of (target, model, scorer), and one
    // zoo object maps each name to one model: a reload that keeps the
    // served zoo object keeps its scores. Any other zoo, even one over the
    // same specs, opens a fresh epoch named by its first version.
    const bool same_zoo =
        artifacts.zoo.size() > 0 &&
        &artifacts.zoo.models() == &served->artifacts.zoo.models();
    slot_.Publish(std::make_shared<const ArtifactSnapshot>(
        std::move(artifacts), next_version,
        same_zoo ? served->cache_epoch : next_version));
    // The retired snapshot (`served`, and Publish's return value) is
    // dropped here; it is destroyed once the last in-flight request
    // releases its reference.
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  reloads_counter_.Increment();
  version_gauge_.Set(static_cast<double>(slot_.version()));
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
  requests_counter_.Increment();
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
  QueuedRequest queued;
  queued.request = std::move(request);
  std::future<SelectionResponse> future = queued.promise.get_future();
  if (Admit(queued, /*may_run_here=*/false) == Admission::kRejected) {
    queued.promise.set_value(Rejection(queued));
  }
  return future;
}

SelectionResponse SelectionService::Serve(SelectionRequest request) {
  QueuedRequest queued;
  queued.request = std::move(request);
  std::future<SelectionResponse> future = queued.promise.get_future();
  switch (Admit(queued, /*may_run_here=*/true)) {
    case Admission::kRunHere:
      return RunAdmitted(queued);
    case Admission::kQueued:
      return future.get();
    case Admission::kRejected:
      break;
  }
  return Rejection(queued);
}

SelectionService::Admission SelectionService::Admit(QueuedRequest& queued,
                                                    bool may_run_here) {
  requests_counter_.Increment();
  // Snapshot acquired at admission: whatever Reloads land while this
  // request is queued, it runs against the version that admitted it.
  queued.snapshot = slot_.Acquire();
  queued.admitted_at = std::chrono::steady_clock::now();
  const double deadline_ms = queued.request.deadline_ms > 0.0
                                 ? queued.request.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    // Armed at admission: queue wait burns deadline budget.
    queued.token = std::make_shared<CancelToken>();
    queued.token->SetDeadlineAfterMillis(deadline_ms);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!shutting_down_) {
      // Running here is allowed only with an empty queue, so a caller
      // never overtakes a request that is already waiting.
      if (may_run_here && queue_.empty() &&
          running_ < options_.worker_threads) {
        ++running_;
        admitted_.fetch_add(1, std::memory_order_relaxed);
        admitted_counter_.Increment();
        return Admission::kRunHere;
      }
      if (queue_.size() < options_.max_queue) {
        queue_.push_back(std::move(queued));
        queue_depth_gauge_.Set(static_cast<double>(queue_.size()));
        queue_depth_gauge_.SetMax(static_cast<double>(queue_.size()));
        admitted_.fetch_add(1, std::memory_order_relaxed);
        admitted_counter_.Increment();
        lock.unlock();
        queue_ready_.notify_one();
        if (options_.queued_hook) options_.queued_hook();
        return Admission::kQueued;
      }
    }
  }
  // Rejected: explicit backpressure, never blocking the caller.
  rejected_.fetch_add(1, std::memory_order_relaxed);
  rejected_counter_.Increment();
  return Admission::kRejected;
}

SelectionResponse SelectionService::Rejection(
    const QueuedRequest& queued) const {
  SelectionResponse response;
  response.target = queued.request.target;
  response.artifact_version = queued.snapshot->version;
  response.status = Status::Unavailable(
      "request queue full (" + std::to_string(options_.max_queue) +
      " deep); retry later");
  return response;
}

SelectionResponse SelectionService::RunAdmitted(const QueuedRequest& queued) {
  if (options_.pre_handle_hook) options_.pre_handle_hook();
  queue_wait_histogram_.Record(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - queued.admitted_at)
          .count());
  SelectionResponse response =
      Run(queued.request, queued.token.get(), *queued.snapshot);
  bool backlog = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    backlog = !queue_.empty();
  }
  // The freed slot may be the one a queued request waits for.
  if (backlog) queue_ready_.notify_one();
  return response;
}

void SelectionService::WorkerLoop() {
  for (;;) {
    QueuedRequest queued;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_ready_.wait(lock, [this] {
        return shutting_down_ ||
               (!queue_.empty() && running_ < options_.worker_threads);
      });
      if (shutting_down_) return;  // Destructor answers leftovers.
      queued = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      queue_depth_gauge_.Set(static_cast<double>(queue_.size()));
    }
    queued.promise.set_value(RunAdmitted(queued));
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
    options.recall.flight_group = &flight_;
    // Cache/flight entries are tagged with the snapshot's cache epoch:
    // versions that serve the same zoo object share scores, and no other
    // two versions ever exchange one, even for requests racing a swap.
    options.recall.artifact_epoch = snapshot.cache_epoch;
    // Sub-linear recall: serve through the snapshot's index when it has
    // one. The index lives inside the snapshot, so it stays alive for the
    // whole request even if a Reload retires this version mid-flight.
    if (artifacts.index != nullptr) {
      options.recall.index = artifacts.index.get();
      options.recall.nprobe = request.nprobe;
      response.index_backend = artifacts.index->name();
    }
    // Recall backend routing: the name (empty = "representative", the
    // selector's own CoarseRecall) resolves against this snapshot's own
    // backend set, so the backend and the artifacts it reads are always
    // the same version. Only a named backend is echoed in the reply.
    TPS_ASSIGN_OR_RETURN(
        const recall::RecallBackend* backend,
        snapshot.backends.Find(request.recall_backend.empty()
                                   ? "representative"
                                   : request.recall_backend));
    response.recall_backend = request.recall_backend;
    options.fine_selection.threshold = request.threshold;
    options.metrics = metrics_;
    options.cancel = token;
    if (request.want_trace) options.trace = &response.trace;

    TPS_ASSIGN_OR_RETURN(
        TwoPhaseReport report,
        snapshot.selector.Select(
            *target, options,
            Hyperparams::DefaultsFor(target->spec().domain), pool_.get(),
            *backend));
    response.selected_model =
        artifacts.zoo.model(report.selection.selected_model).name();
    response.selected_accuracy = report.selection.selected_accuracy;
    response.training_epochs = report.budget.training_epochs();
    response.inference_epochs = report.budget.inference_epochs();
    response.total_epochs = report.budget.total_epochs();
    response.survivors_per_stage = report.selection.survivors_per_stage;
    response.cache_hits = report.recall.cache_hits;
    response.cache_misses = report.recall.cache_misses;
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
  request_latency_histogram_.Record(response.wall_ms * 1e3);
  if (response.status.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    completed_counter_.Increment();
  } else if (response.status.IsDeadlineExceeded()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    deadline_exceeded_counter_.Increment();
  } else {
    errors_.fetch_add(1, std::memory_order_relaxed);
    errors_counter_.Increment();
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
