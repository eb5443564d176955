#ifndef TPS_STORE_SPEC_FIELDS_H_
#define TPS_STORE_SPEC_FIELDS_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset_spec.h"
#include "util/statusor.h"

/// Readers of the `field<TAB>value` records spec_serialization.h writes.
/// DeserializeModelSpec is built on them; so is the dataset-spec reader of
/// the store's round-trip tests. Malformed text is InvalidArgument, never a
/// crash.
namespace tps::spec_fields {

/// Field name -> its tab-separated tokens.
using Fields = std::map<std::string, std::vector<std::string>>;

/// Checks that the first line of `text` is `header`, then parses the
/// lines after it.
StatusOr<Fields> ParseRecord(std::string_view text,
                             const std::string& header);

/// The field's one token.
StatusOr<std::string> SingleValue(const Fields& fields,
                                  const std::string& name);
/// The field's one token, parsed as a number.
StatusOr<double> DoubleValue(const Fields& fields, const std::string& name);
/// The field's one number, truncated to an int; out of int's range is
/// InvalidArgument.
StatusOr<int> IntValue(const Fields& fields, const std::string& name);
/// The `domain` field.
StatusOr<TaskDomain> DomainValue(const Fields& fields);
/// The field's tokens; a missing field or a lone empty token is no tags.
std::vector<std::string> TagsValue(const Fields& fields,
                                   const std::string& name);

}  // namespace tps::spec_fields

#endif  // TPS_STORE_SPEC_FIELDS_H_
