#ifndef TPS_DATA_DATASET_H_
#define TPS_DATA_DATASET_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset_spec.h"
#include "util/statusor.h"

namespace tps {

/// One labelled example: a feature vector in the latent space plus its
/// class label. Features stand in for the input embedding a real model
/// would see.
struct Example {
  std::vector<double> features;
  int label = 0;
};

/// A (simulated) dataset: a spec, a latent domain vector, label prototypes,
/// and generated labelled examples.
///
/// Create builds the spec, domain vector and prototypes; the examples are
/// built on first read of examples(), once, thread-safely, and shared by
/// every copy of the Dataset (a copy is a refcount bump, never a rebuild).
/// Each dataset draws its examples from its own name-seeded Rng, so they
/// are the same bits whichever copy or thread reads them first.
///
/// Example generation: each label has a prototype direction; an example of
/// label y is normalize(w_domain * theta_d + w_label * proto_y + w_noise *
/// noise). The label component dominates (class structure is salient, as in
/// real embedding spaces); the domain component ties all examples of a
/// dataset together; the noise term creates intra-class spread.
class Dataset {
 public:
  /// Builds the dataset deterministically from its spec. Fails on invalid
  /// specs (fewer than 2 labels, no examples, empty name).
  static StatusOr<Dataset> Create(const DatasetSpec& spec);

  const DatasetSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  /// The labelled examples, built on the first call (by any copy). Each
  /// build counts once in `data.examples_built` on MetricsRegistry::Default().
  const std::vector<Example>& examples() const;
  /// spec().num_examples (0 once moved from); never builds the examples.
  size_t size() const {
    return examples_ == nullptr ? 0 : static_cast<size_t>(spec_.num_examples);
  }

  /// The dataset's latent domain vector (unit norm).
  const std::vector<double>& domain_vector() const { return domain_vector_; }

  /// Deterministic seed derived from the dataset name; used to key all of
  /// the dataset's internal randomness.
  uint64_t seed() const { return seed_; }

 private:
  /// The examples and the once-flag guarding their construction, held
  /// behind a shared_ptr so Dataset stays copyable and movable.
  struct LazyExamples {
    std::once_flag once;
    std::vector<Example> examples;
  };

  Dataset() = default;

  DatasetSpec spec_;
  uint64_t seed_ = 0;
  std::vector<double> domain_vector_;
  /// Prototype direction of each label (unit norm).
  std::vector<std::vector<double>> label_prototypes_;
  std::shared_ptr<LazyExamples> examples_;
};

}  // namespace tps

#endif  // TPS_DATA_DATASET_H_
