#include "util/metrics.h"

#include <algorithm>
#include <limits>

#include "util/json.h"
#include "util/logging.h"

namespace tps {

Histogram::Histogram(bool enabled, std::vector<double> bucket_bounds)
    : enabled_(enabled),
      bounds_(std::move(bucket_bounds)),
      buckets_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  TPS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

std::vector<double> Histogram::DefaultLatencyBounds() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
  }
  return bounds;
}

void Histogram::Record(double value) {
  if (!enabled_) return;
  // Linear scan: the fixed bucket lists are short (~21 entries) and the
  // scan is branch-predictable, so this beats binary search at this size.
  size_t bucket = bounds_.size();
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  double current_min = min_.load(std::memory_order_relaxed);
  while (value < current_min &&
         !min_.compare_exchange_weak(current_min, value,
                                     std::memory_order_relaxed)) {
  }
  double current_max = max_.load(std::memory_order_relaxed);
  while (value > current_max &&
         !max_.compare_exchange_weak(current_max, value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

uint64_t Histogram::bucket_count(size_t i) const {
  TPS_CHECK(i < buckets_.size());
  return buckets_[i].load(std::memory_order_relaxed);
}

MetricsRegistry* MetricsRegistry::Default() {
  // Intentionally leaked: instrumented code (including other static-storage
  // objects) may record during shutdown.
  static MetricsRegistry* const registry = new MetricsRegistry(true);
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  TPS_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>(enabled_)).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  TPS_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>(enabled_)).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histogram(name, Histogram::DefaultLatencyBounds());
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bucket_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  TPS_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(
                                enabled_, std::move(bucket_bounds)))
             .first;
  }
  return *it->second;
}

std::string MetricsRegistry::ToJson(int indent) const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value root = json::Value::Object();

  json::Value counters = json::Value::Object();
  for (const auto& [name, counter] : counters_) {
    counters.Set(name, json::Value::Uint(counter->value()));
  }
  root.Set("counters", std::move(counters));

  json::Value gauges = json::Value::Object();
  for (const auto& [name, gauge] : gauges_) {
    json::Value g = json::Value::Object();
    g.Set("value", json::Value::Number(gauge->value()));
    g.Set("max", json::Value::Number(gauge->max_value()));
    gauges.Set(name, std::move(g));
  }
  root.Set("gauges", std::move(gauges));

  json::Value histograms = json::Value::Object();
  for (const auto& [name, histogram] : histograms_) {
    json::Value h = json::Value::Object();
    h.Set("count", json::Value::Uint(histogram->count()));
    h.Set("sum", json::Value::Number(histogram->sum()));
    h.Set("min", json::Value::Number(histogram->min()));
    h.Set("max", json::Value::Number(histogram->max()));
    json::Value buckets = json::Value::Array();
    const std::vector<double>& bounds = histogram->bucket_bounds();
    for (size_t i = 0; i <= bounds.size(); ++i) {
      const uint64_t count = histogram->bucket_count(i);
      if (count == 0) continue;  // Sparse dump: most buckets are empty.
      json::Value bucket = json::Value::Object();
      if (i < bounds.size()) {
        bucket.Set("le", json::Value::Number(bounds[i]));
      } else {
        bucket.Set("le", json::Value::String("inf"));
      }
      bucket.Set("count", json::Value::Uint(count));
      buckets.Append(std::move(bucket));
    }
    h.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(h));
  }
  root.Set("histograms", std::move(histograms));
  return root.Dump(indent);
}

PipelineInstruments::PipelineInstruments(MetricsRegistry& registry)
    : recall_runs(registry.counter("recall.runs")),
      recall_proxies_computed(registry.counter("recall.proxies_computed")),
      recall_models_ranked(registry.counter("recall.models_ranked")),
      recall_wall_us(registry.histogram("recall.wall_us")),
      fine_stages(registry.counter("fine.stages")),
      fine_epoch_steps(registry.counter("fine.epoch_steps")),
      fine_trend_prunes(registry.counter("fine.trend_prunes")),
      fine_halving_drops(registry.counter("fine.halving_drops")),
      fine_runs(registry.counter("fine.runs")),
      fine_curve_hits(registry.counter("fine.curve_hits")),
      fine_curve_misses(registry.counter("fine.curve_misses")),
      fine_curve_memo_entries(registry.gauge("fine.curve_memo_entries")),
      fine_wall_us(registry.histogram("fine.wall_us")),
      two_phase_runs(registry.counter("two_phase.runs")) {}

const PipelineInstruments& MetricsRegistry::pipeline() {
  std::call_once(pipeline_once_, [this] {
    pipeline_ = std::make_unique<const PipelineInstruments>(*this);
  });
  return *pipeline_;
}

}  // namespace tps
