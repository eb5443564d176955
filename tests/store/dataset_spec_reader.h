#ifndef TPS_TESTS_STORE_DATASET_SPEC_READER_H_
#define TPS_TESTS_STORE_DATASET_SPEC_READER_H_

#include <string>

#include "data/dataset_spec.h"
#include "util/statusor.h"

namespace tps {

/// Parses a `tps-dataset-spec v1` record written by SerializeDatasetSpec.
/// The store writes dataset specs but nothing shipped reads them back, so
/// the reader lives with the round-trip and fuzz tests. Malformed text is
/// InvalidArgument, never a crash.
StatusOr<DatasetSpec> DeserializeDatasetSpec(const std::string& text);

}  // namespace tps

#endif  // TPS_TESTS_STORE_DATASET_SPEC_READER_H_
