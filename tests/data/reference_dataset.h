#ifndef TPS_TESTS_DATA_REFERENCE_DATASET_H_
#define TPS_TESTS_DATA_REFERENCE_DATASET_H_

#include <vector>

#include "data/dataset.h"
#include "data/dataset_spec.h"

namespace tps {

/// Test-only oracle: the examples of a (valid) spec, generated eagerly and
/// directly from the spec — name-hashed seed, tag-mixed domain vector,
/// per-label prototypes, then one Rng stream over every example in order.
/// Dataset::examples() builds its examples lazily, once per dataset, on
/// first read; it must reproduce this bit for bit whatever the order or
/// thread that first reads them.
std::vector<Example> ReferenceExamples(const DatasetSpec& spec);

}  // namespace tps

#endif  // TPS_TESTS_DATA_REFERENCE_DATASET_H_
