#ifndef TPS_SERVE_ARTIFACT_SLOT_H_
#define TPS_SERVE_ARTIFACT_SLOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/two_phase.h"
#include "recall/recall_backend.h"
#include "serve/artifacts.h"
#include "sim/finetune_simulator.h"

namespace tps {
namespace serve {

/// One immutable published artifact version plus the pipeline objects that
/// point into it ("Serving: hot artifact swap" in DESIGN.md). Requests
/// acquire a shared_ptr to the snapshot at admission and keep it for their
/// whole lifetime, so everything one request reads — zoo, matrix,
/// clustering, selector — comes from a single version even while a newer
/// one is being published. Construct via make_shared only: the selector
/// holds pointers into this object's own members, so the snapshot must
/// never be moved or copied after construction.
struct ArtifactSnapshot {
  ArtifactSnapshot(ServiceArtifacts artifacts_in, uint64_t version_in,
                   uint64_t cache_epoch_in)
      : artifacts(std::move(artifacts_in)),
        version(version_in),
        cache_epoch(cache_epoch_in),
        selector(&artifacts.zoo, &artifacts.matrix, &artifacts.clustering,
                 &simulator),
        backends(selector.coarse_recall(),
                 recall::RecallBackendContext{
                     &artifacts.zoo, &artifacts.matrix, &artifacts.clustering,
                     artifacts.embeddings.get(),
                     artifacts.embedding_index.get()}) {}

  ArtifactSnapshot(const ArtifactSnapshot&) = delete;
  ArtifactSnapshot& operator=(const ArtifactSnapshot&) = delete;

  const ServiceArtifacts artifacts;
  /// Monotonic artifact version, starting at 1 for the artifacts the
  /// service was created with.
  const uint64_t version;
  /// The proxy cache/flight epoch (ProxyCacheKey::artifact_epoch) this
  /// version's requests score under: the version that first published
  /// this snapshot's zoo object. A reload that keeps the zoo (the same
  /// shared model vector) inherits the served epoch, so its proxy scores
  /// stay warm; any other zoo starts a fresh epoch equal to its version.
  const uint64_t cache_epoch;
  FineTuneSimulator simulator;
  TwoPhaseSelector selector;
  /// Per-version recall backends ("Recall backends" in DESIGN.md), built
  /// over this snapshot's own artifacts so a request routed to one can
  /// never mix versions mid-swap. "representative" is the selector's own
  /// CoarseRecall. Backends the version cannot support (no trained
  /// embeddings) are absent, not errors.
  const recall::RecallBackendSet backends;
};

/// RCU-style holder for the current ArtifactSnapshot. Readers (requests)
/// call Acquire() once at admission and never block on a publisher;
/// Publish() swaps the current pointer under a short critical section and
/// returns the retired version to whoever still holds it — the old
/// snapshot is destroyed when the last in-flight request drops its
/// shared_ptr, never under a lock and never while anyone can still read
/// it. There is no reader registry and no quiescent-state tracking; the
/// shared_ptr control block IS the grace period.
class ArtifactSlot {
 public:
  explicit ArtifactSlot(std::shared_ptr<const ArtifactSnapshot> initial);

  ArtifactSlot(const ArtifactSlot&) = delete;
  ArtifactSlot& operator=(const ArtifactSlot&) = delete;

  /// The current snapshot (never null). O(1), wait-free for practical
  /// purposes: one uncontended mutex acquisition and a shared_ptr copy.
  std::shared_ptr<const ArtifactSnapshot> Acquire() const;

  /// Atomically replaces the current snapshot and returns the retired one
  /// (so a caller may inspect or log it; dropping the return value retires
  /// it as soon as in-flight requests finish).
  std::shared_ptr<const ArtifactSnapshot> Publish(
      std::shared_ptr<const ArtifactSnapshot> next);

  /// Version of the currently published snapshot (lock-free read).
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ArtifactSnapshot> current_;
  std::atomic<uint64_t> version_;
};

}  // namespace serve
}  // namespace tps

#endif  // TPS_SERVE_ARTIFACT_SLOT_H_
