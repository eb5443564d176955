#ifndef TPS_TRANSFER_SCORE_CACHE_H_
#define TPS_TRANSFER_SCORE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "util/metrics.h"

namespace tps {

/// Stable identity of a (simulated) dataset for cache keying. Mixes every
/// spec field that feeds example generation (name-derived seed, domain,
/// label space, example count, difficulty, chance/ceiling overrides, tags)
/// so two datasets produce the same fingerprint iff they generate the same
/// examples. Deterministic across processes and platforms (FNV-1a over a
/// canonical serialization; no pointers, no ASLR).
uint64_t DatasetFingerprint(const Dataset& dataset);

/// Cache key: which proxy number is this? One entry per (artifact epoch,
/// target dataset, model, scorer kind) tuple. `artifact_epoch` names the
/// model zoo the score was computed over ("Serving: hot artifact swap" in
/// DESIGN.md): the serving layer stamps the snapshot's cache epoch, the
/// version that first published its zoo object, so versions that serve
/// the same zoo share scores and a score computed over one zoo never
/// answers a request against another. Epoch-tagging the key (instead of
/// flushing the cache on swap) keeps in-flight requests on a retired zoo
/// correct too — they keep hitting their own epoch's entries while new
/// requests warm the next epoch, and retired epochs age out through
/// normal LRU eviction. Embedded callers that never swap artifacts leave
/// it 0.
struct ProxyCacheKey {
  uint64_t dataset_fingerprint = 0;
  std::string model;   // PretrainedModel name (unique within a zoo).
  std::string scorer;  // ProxyScorer::name(): "leep", "nce", ...
  uint64_t artifact_epoch = 0;

  bool operator==(const ProxyCacheKey& other) const {
    return dataset_fingerprint == other.dataset_fingerprint &&
           artifact_epoch == other.artifact_epoch &&
           model == other.model && scorer == other.scorer;
  }
};

struct ProxyCacheKeyHash {
  size_t operator()(const ProxyCacheKey& key) const;
};

/// Thread-safe LRU cache of proxy scores ("Serving" in DESIGN.md).
///
/// Inertness contract: proxy scores are pure functions of (dataset, model,
/// scorer), so serving a cached double is bit-identical to recomputing it —
/// tests/serve/cache_inertness_test.cc proves cache-on == cache-off for
/// whole selection reports, serial and parallel. Recall reads and fills
/// the cache only through ProxyFlightGroup::GetOrCompute, whose leaders
/// insert successful scores; Status errors always propagate live.
///
/// Eviction is strict LRU over a doubly-linked list guarded by one mutex,
/// so the eviction order is a deterministic function of the access
/// sequence (tests/serve/score_cache_test.cc pins it).
///
/// Observability: hit/miss/eviction counters and an entry gauge are
/// reported both to the MetricsRegistry passed at construction
/// (`proxy_cache.hits` / `.misses` / `.evictions` / `.entries`) and to
/// local atomics exposed as accessors, so tests and the serve stats
/// endpoint read exact values without scraping the global registry.
class ProxyScoreCache {
 public:
  /// `capacity` is the maximum number of entries; 0 disables caching
  /// entirely (every lookup misses, nothing is stored). `metrics` defaults
  /// to MetricsRegistry::Default().
  explicit ProxyScoreCache(size_t capacity,
                           MetricsRegistry* metrics = nullptr);

  ProxyScoreCache(const ProxyScoreCache&) = delete;
  ProxyScoreCache& operator=(const ProxyScoreCache&) = delete;

  /// Returns the cached score and refreshes recency, or nullopt on miss.
  std::optional<double> Lookup(const ProxyCacheKey& key);

  /// Inserts (or refreshes) a score, evicting the least-recently-used
  /// entry when at capacity. No-op when capacity is 0.
  void Insert(const ProxyCacheKey& key, double score);

  size_t capacity() const { return capacity_; }
  size_t size() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  using Entry = std::pair<ProxyCacheKey, double>;

  const size_t capacity_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recent.
  std::unordered_map<ProxyCacheKey, std::list<Entry>::iterator,
                     ProxyCacheKeyHash>
      index_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};

  // Registry instruments, resolved once at construction.
  Counter& hit_counter_;
  Counter& miss_counter_;
  Counter& eviction_counter_;
  Gauge& entries_gauge_;
};

}  // namespace tps

#endif  // TPS_TRANSFER_SCORE_CACHE_H_
