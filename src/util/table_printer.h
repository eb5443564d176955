#ifndef TPS_UTIL_TABLE_PRINTER_H_
#define TPS_UTIL_TABLE_PRINTER_H_

#include <ostream>
#include <string>
#include <vector>

namespace tps {

/// Renders rows of strings as an aligned ASCII table. Used by the benchmark
/// harnesses to print paper tables in a stable, diffable format.
///
///   TablePrinter t({"Dataset", "Runtime", "Speedup"});
///   t.AddRow({"MNLI", "19", "10.53x"});
///   t.Print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Adds a data row. Rows shorter than the header are padded with empty
  /// cells; longer rows extend the column count.
  void AddRow(std::vector<std::string> row);

  /// Writes the table. Every column is padded to its widest cell.
  void Print(std::ostream& os) const;

  /// Renders to a string (same output as Print). For each entry r of
  /// `rules_before` (ascending), a rule the same as the table's border is
  /// drawn before row r; r == num_rows() draws it after the last row.
  std::string ToString(const std::vector<size_t>& rules_before = {}) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tps

#endif  // TPS_UTIL_TABLE_PRINTER_H_
