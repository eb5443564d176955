#include "store/dataset_spec_reader.h"

#include "store/spec_fields.h"

namespace tps {

StatusOr<DatasetSpec> DeserializeDatasetSpec(const std::string& text) {
  using namespace spec_fields;
  TPS_ASSIGN_OR_RETURN(const Fields fields,
                       ParseRecord(text, "tps-dataset-spec v1"));
  DatasetSpec spec;
  TPS_ASSIGN_OR_RETURN(spec.name, SingleValue(fields, "name"));
  TPS_ASSIGN_OR_RETURN(spec.domain, DomainValue(fields));
  TPS_ASSIGN_OR_RETURN(std::string role, SingleValue(fields, "role"));
  if (role == "benchmark") {
    spec.role = DatasetRole::kBenchmark;
  } else if (role == "target") {
    spec.role = DatasetRole::kTarget;
  } else {
    return Status::InvalidArgument("unknown role: " + role);
  }
  TPS_ASSIGN_OR_RETURN(spec.num_labels, IntValue(fields, "num_labels"));
  TPS_ASSIGN_OR_RETURN(spec.difficulty, DoubleValue(fields, "difficulty"));
  spec.tags = TagsValue(fields, "tags");
  TPS_ASSIGN_OR_RETURN(spec.num_examples, IntValue(fields, "num_examples"));
  TPS_ASSIGN_OR_RETURN(spec.chance_accuracy,
                       DoubleValue(fields, "chance_accuracy"));
  TPS_ASSIGN_OR_RETURN(spec.ceiling_accuracy,
                       DoubleValue(fields, "ceiling_accuracy"));
  return spec;
}

}  // namespace tps
