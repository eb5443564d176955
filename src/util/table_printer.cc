#include "util/table_printer.h"

#include <algorithm>
#include <sstream>

namespace tps {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const { os << ToString(); }

std::string TablePrinter::ToString(
    const std::vector<size_t>& rules_before) const {
  size_t columns = header_.size();
  for (const std::vector<std::string>& row : rows_) {
    columns = std::max(columns, row.size());
  }
  std::vector<size_t> widths(columns, 0);
  auto account = [&](const std::vector<std::string>& cells) {
    for (size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  account(header_);
  for (const std::vector<std::string>& row : rows_) account(row);

  std::ostringstream os;
  auto emit_separator = [&] {
    os << "+";
    for (size_t w : widths) os << std::string(w + 2, '-') << "+";
    os << "\n";
  };
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (size_t i = 0; i < columns; ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      os << " " << cell << std::string(widths[i] - cell.size(), ' ') << " |";
    }
    os << "\n";
  };

  emit_separator();
  emit_row(header_);
  emit_separator();
  auto rule = rules_before.begin();
  for (size_t r = 0; r <= rows_.size(); ++r) {
    for (; rule != rules_before.end() && *rule == r; ++rule) emit_separator();
    if (r < rows_.size()) emit_row(rows_[r]);
  }
  emit_separator();
  return os.str();
}

}  // namespace tps
