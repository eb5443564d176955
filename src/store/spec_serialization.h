#ifndef TPS_STORE_SPEC_SERIALIZATION_H_
#define TPS_STORE_SPEC_SERIALIZATION_H_

#include <string>
#include <string_view>

#include "data/dataset_spec.h"
#include "model/model_spec.h"
#include "util/statusor.h"

namespace tps {

/// Line-oriented `field<TAB>value` serialization for the registry specs
/// the model store keeps. Tags are tab-joined on one line. Field names and
/// values must not contain tabs or newlines, and numbers must be finite
/// (validated on write; numbers read through util/text_codec.h). Dataset
/// specs are written for the record only: nothing shipped reads them back
/// (tests/store/dataset_spec_reader.h parses them for the round-trip
/// tests, with the field readers of spec_fields.h).

StatusOr<std::string> SerializeModelSpec(const ModelSpec& spec);
StatusOr<ModelSpec> DeserializeModelSpec(std::string_view text);

StatusOr<std::string> SerializeDatasetSpec(const DatasetSpec& spec);

}  // namespace tps

#endif  // TPS_STORE_SPEC_SERIALIZATION_H_
