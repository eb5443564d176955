#include "store/spec_serialization.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "store/spec_fields.h"
#include "util/string_util.h"
#include "util/text_codec.h"

namespace tps {

namespace {

Status CheckClean(const std::string& value, const std::string& what) {
  if (value.find('\t') != std::string::npos ||
      value.find('\n') != std::string::npos) {
    return Status::InvalidArgument(what + " must not contain tabs/newlines");
  }
  return Status::OK();
}

Status AppendField(std::ostringstream& out, const std::string& name,
                   const std::string& value) {
  TPS_RETURN_NOT_OK(CheckClean(value, "field " + name));
  out << name << "\t" << value << "\n";
  return Status::OK();
}

/// Reading a record rejects a non-finite number, so writing one fails.
Status AppendDouble(std::ostringstream& out, const std::string& name,
                    double value) {
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("field " + name + " must be finite");
  }
  return AppendField(out, name, strings::Format("%.17g", value));
}

Status AppendTags(std::ostringstream& out, const std::string& name,
                  const std::vector<std::string>& tags) {
  for (const std::string& tag : tags) {
    TPS_RETURN_NOT_OK(CheckClean(tag, "tag in " + name));
  }
  out << name;
  for (const std::string& tag : tags) out << "\t" << tag;
  out << "\n";
  return Status::OK();
}

}  // namespace

namespace spec_fields {

StatusOr<Fields> ParseRecord(std::string_view text,
                             const std::string& header) {
  text::TextCursor in(text);
  std::string_view line;
  if (!in.Line(&line) || line != header) {
    return Status::InvalidArgument("bad record header, expected " + header);
  }
  Fields fields;
  while (in.Line(&line)) {
    if (line.empty()) continue;
    std::vector<std::string> parts = strings::Split(std::string(line), '\t');
    if (parts.empty() || parts[0].empty()) {
      return Status::InvalidArgument("malformed spec line: " +
                                     std::string(line));
    }
    const std::string name = parts[0];
    parts.erase(parts.begin());
    fields[name] = std::move(parts);
  }
  return fields;
}

StatusOr<std::string> SingleValue(const Fields& fields,
                                  const std::string& name) {
  auto it = fields.find(name);
  if (it == fields.end() || it->second.size() != 1) {
    return Status::InvalidArgument("missing or malformed field: " + name);
  }
  return it->second[0];
}

StatusOr<double> DoubleValue(const Fields& fields, const std::string& name) {
  TPS_ASSIGN_OR_RETURN(std::string raw, SingleValue(fields, name));
  double value = 0.0;
  if (!text::ParseDouble(raw, &value)) {
    return Status::InvalidArgument("field " + name + " is not a number");
  }
  return value;
}

StatusOr<int> IntValue(const Fields& fields, const std::string& name) {
  TPS_ASSIGN_OR_RETURN(double value, DoubleValue(fields, name));
  if (!(value >= std::numeric_limits<int>::min() &&
        value <= std::numeric_limits<int>::max())) {
    return Status::InvalidArgument("field " + name + " is out of range");
  }
  return static_cast<int>(value);
}

StatusOr<TaskDomain> DomainValue(const Fields& fields) {
  TPS_ASSIGN_OR_RETURN(std::string raw, SingleValue(fields, "domain"));
  if (raw == "NLP") return TaskDomain::kNLP;
  if (raw == "CV") return TaskDomain::kCV;
  return Status::InvalidArgument("unknown domain: " + raw);
}

std::vector<std::string> TagsValue(const Fields& fields,
                                   const std::string& name) {
  auto it = fields.find(name);
  if (it == fields.end()) return {};
  std::vector<std::string> tags = it->second;
  // A lone empty token means "no tags".
  if (tags.size() == 1 && tags[0].empty()) tags.clear();
  return tags;
}

}  // namespace spec_fields

StatusOr<std::string> SerializeModelSpec(const ModelSpec& spec) {
  std::ostringstream out;
  out << "tps-model-spec v1\n";
  TPS_RETURN_NOT_OK(AppendField(out, "name", spec.name));
  TPS_RETURN_NOT_OK(AppendField(out, "domain", ToString(spec.domain)));
  TPS_RETURN_NOT_OK(AppendField(out, "family", spec.family));
  TPS_RETURN_NOT_OK(AppendDouble(out, "scale_millions", spec.scale_millions));
  TPS_RETURN_NOT_OK(AppendDouble(out, "capability", spec.capability));
  TPS_RETURN_NOT_OK(AppendTags(out, "pretrain_tags", spec.pretrain_tags));
  TPS_RETURN_NOT_OK(AppendTags(out, "finetune_tags", spec.finetune_tags));
  TPS_RETURN_NOT_OK(
      AppendDouble(out, "finetune_strength", spec.finetune_strength));
  TPS_RETURN_NOT_OK(AppendField(out, "num_source_labels",
                                std::to_string(spec.num_source_labels)));
  TPS_RETURN_NOT_OK(AppendField(out, "description", spec.description));
  return out.str();
}

StatusOr<ModelSpec> DeserializeModelSpec(std::string_view text) {
  using namespace spec_fields;
  TPS_ASSIGN_OR_RETURN(const Fields fields,
                       ParseRecord(text, "tps-model-spec v1"));
  ModelSpec spec;
  TPS_ASSIGN_OR_RETURN(spec.name, SingleValue(fields, "name"));
  TPS_ASSIGN_OR_RETURN(spec.domain, DomainValue(fields));
  TPS_ASSIGN_OR_RETURN(spec.family, SingleValue(fields, "family"));
  TPS_ASSIGN_OR_RETURN(spec.scale_millions,
                       DoubleValue(fields, "scale_millions"));
  TPS_ASSIGN_OR_RETURN(spec.capability, DoubleValue(fields, "capability"));
  spec.pretrain_tags = TagsValue(fields, "pretrain_tags");
  spec.finetune_tags = TagsValue(fields, "finetune_tags");
  TPS_ASSIGN_OR_RETURN(spec.finetune_strength,
                       DoubleValue(fields, "finetune_strength"));
  TPS_ASSIGN_OR_RETURN(spec.num_source_labels,
                       IntValue(fields, "num_source_labels"));
  // description may legitimately be empty; SingleValue rejects that, so
  // read it leniently.
  auto it = fields.find("description");
  spec.description = (it != fields.end() && !it->second.empty())
                         ? it->second[0]
                         : "";
  return spec;
}

StatusOr<std::string> SerializeDatasetSpec(const DatasetSpec& spec) {
  std::ostringstream out;
  out << "tps-dataset-spec v1\n";
  TPS_RETURN_NOT_OK(AppendField(out, "name", spec.name));
  TPS_RETURN_NOT_OK(AppendField(out, "domain", ToString(spec.domain)));
  TPS_RETURN_NOT_OK(AppendField(out, "role", ToString(spec.role)));
  TPS_RETURN_NOT_OK(
      AppendField(out, "num_labels", std::to_string(spec.num_labels)));
  TPS_RETURN_NOT_OK(AppendDouble(out, "difficulty", spec.difficulty));
  TPS_RETURN_NOT_OK(AppendTags(out, "tags", spec.tags));
  TPS_RETURN_NOT_OK(AppendField(out, "num_examples",
                                std::to_string(spec.num_examples)));
  TPS_RETURN_NOT_OK(
      AppendDouble(out, "chance_accuracy", spec.chance_accuracy));
  TPS_RETURN_NOT_OK(
      AppendDouble(out, "ceiling_accuracy", spec.ceiling_accuracy));
  return out.str();
}

}  // namespace tps
