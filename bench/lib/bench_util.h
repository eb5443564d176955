#ifndef TPS_BENCH_LIB_BENCH_UTIL_H_
#define TPS_BENCH_LIB_BENCH_UTIL_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "data/registry.h"
#include "model/model_spec.h"
#include "recall/recall_backend.h"
#include "util/table_printer.h"

namespace tps {

/// Hardware concurrency with a floor of 1 (hardware_concurrency() may
/// report 0).
int DefaultThreads();

/// The registry's target datasets of `domain`, in registry order.
std::vector<const Dataset*> Targets(const DatasetRegistry& registry,
                                    TaskDomain domain);

/// Names of the recall backends `backends` can serve, sorted.
std::vector<std::string> AvailableBackends(
    const recall::RecallBackendSet& backends);

/// Generates a synthetic zoo of `count` models for scaling experiments:
/// random family/capability/fine-tune-dataset combinations over the given
/// domain's tag vocabulary (SyntheticTagVocabulary), seeded
/// deterministically.
std::vector<ModelSpec> SyntheticZooSpecs(TaskDomain domain, size_t count,
                                         uint64_t seed);

/// A TablePrinter whose rows come in sections: AddSeparator() draws a
/// horizontal rule, the same as the table's border, before the next row.
class SectionedTable {
 public:
  explicit SectionedTable(std::vector<std::string> header)
      : table_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { table_.AddRow(std::move(row)); }
  void AddSeparator() { separators_.push_back(table_.num_rows()); }

  void Print(std::ostream& os) const { os << ToString(); }
  std::string ToString() const { return table_.ToString(separators_); }

 private:
  TablePrinter table_;
  /// Row counts at each AddSeparator, ascending: TablePrinter draws a rule
  /// before each of those rows.
  std::vector<size_t> separators_;
};

}  // namespace tps

#endif  // TPS_BENCH_LIB_BENCH_UTIL_H_
