#ifndef TPS_UTIL_METRICS_H_
#define TPS_UTIL_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tps {

/// Lightweight always-compiled-in metrics: named counters, gauges and
/// fixed-bucket histograms with scoped wall-clock timers.
///
/// Design rules (see "Observability" in DESIGN.md):
///  - Recording is wait-free (relaxed atomics; the histogram min/max use
///    short CAS loops) so instruments can sit on the hot path of the
///    parallel pipeline and stay TSan-clean.
///  - Metrics NEVER feed back into computation. The inertness test suite
///    (tests/core/metrics_inertness_test.cc) proves a run with a live
///    registry is bit-identical to one with a disabled registry.
///  - Instrument pointers are stable for the registry's lifetime, so hot
///    call sites may cache them.
///  - Names are `component.metric[_unit]`, e.g. `recall.proxies_computed`,
///    `threadpool.task_latency_us`.
///
/// A registry constructed with `enabled = false` is a no-op sink: every
/// Record/Increment/Set is a cheap early return. `MetricsRegistry::Default()`
/// is the process-global enabled instance that library-internal
/// instrumentation (thread pool, store, simulator) reports to.

class Counter {
 public:
  explicit Counter(bool enabled) : enabled_(enabled) {}

  void Increment(uint64_t delta = 1) {
    if (!enabled_) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  const bool enabled_;
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  explicit Gauge(bool enabled) : enabled_(enabled) {}

  void Set(double value) {
    if (!enabled_) return;
    value_.store(value, std::memory_order_relaxed);
  }

  /// Retains the maximum of all Set/SetMax values (e.g. peak queue depth).
  void SetMax(double value) {
    if (!enabled_) return;
    double current = max_.load(std::memory_order_relaxed);
    while (value > current &&
           !max_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  double max_value() const { return max_.load(std::memory_order_relaxed); }

 private:
  const bool enabled_;
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts samples <= bounds[i]; one
/// implicit overflow bucket counts the rest. Also tracks count/sum/min/max.
class Histogram {
 public:
  Histogram(bool enabled, std::vector<double> bucket_bounds);

  /// Default bounds: 1-2-5 decades from 1 to 1e6 — microsecond latencies
  /// from sub-us kernels to multi-second phases.
  static std::vector<double> DefaultLatencyBounds();

  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  // 0 when empty.
  double max() const;  // 0 when empty.
  const std::vector<double>& bucket_bounds() const { return bounds_; }
  /// bucket_count(i) for i in [0, bucket_bounds().size()]; the last index
  /// is the overflow bucket.
  uint64_t bucket_count(size_t i) const;

 private:
  const bool enabled_;
  const std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

class MetricsRegistry;

/// The instruments every two-phase select records into — coarse recall,
/// fine selection and the selector itself — resolved by name once per
/// registry (`MetricsRegistry::pipeline()`), so a select records through
/// references and never takes the registry lock or builds a name.
struct PipelineInstruments {
  explicit PipelineInstruments(MetricsRegistry& registry);

  Counter& recall_runs;
  Counter& recall_proxies_computed;
  Counter& recall_models_ranked;
  Histogram& recall_wall_us;
  Counter& fine_stages;
  Counter& fine_epoch_steps;
  Counter& fine_trend_prunes;
  Counter& fine_halving_drops;
  Counter& fine_runs;
  Counter& fine_curve_hits;
  Counter& fine_curve_misses;
  Histogram& fine_wall_us;
  Counter& two_phase_runs;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-global enabled registry. Never destroyed; instrument pointers
  /// from it are valid for the life of the process.
  static MetricsRegistry* Default();

  bool enabled() const { return enabled_; }

  /// Finds or creates the named instrument. The returned reference is
  /// valid for the registry's lifetime. Creating the same name as two
  /// different instrument kinds is a programming error (checked).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First creation fixes the bucket bounds; later callers get the
  /// existing histogram regardless of the bounds they pass.
  Histogram& histogram(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> bucket_bounds);

  /// The pipeline's instruments, resolved on the first call (under
  /// std::call_once) and valid for the registry's lifetime.
  const PipelineInstruments& pipeline();

  /// JSON snapshot of every instrument, keys sorted by name:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson(int indent = 2) const;

 private:
  const bool enabled_;
  std::once_flag pipeline_once_;
  std::unique_ptr<const PipelineInstruments> pipeline_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Records the elapsed wall time (in microseconds) into a histogram when
/// destroyed. `histogram` may be null (no-op) so call sites can be
/// unconditionally scoped.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram* histogram)
      : histogram_(histogram), start_(Clock::now()) {}

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

  ~ScopedLatencyTimer() {
    if (histogram_ == nullptr) return;
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start_)
            .count();
    histogram_->Record(us);
  }

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* histogram_;
  Clock::time_point start_;
};

}  // namespace tps

#endif  // TPS_UTIL_METRICS_H_
