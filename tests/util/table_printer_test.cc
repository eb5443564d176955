#include "util/table_printer.h"

#include <gtest/gtest.h>

#include "bench/lib/bench_util.h"
#include "util/string_util.h"
#include "util/test_helpers.h"

namespace tps {
namespace {

TEST(TablePrinterTest, AlignsColumnsToWidestCell) {
  TablePrinter t({"name", "v"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  const std::string out = t.ToString();
  // All lines have equal width.
  const auto lines = strings::Split(out, '\n');
  ASSERT_GE(lines.size(), 5u);
  const size_t width = lines[0].size();
  for (const auto& line : lines) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), width) << line;
    }
  }
  EXPECT_TRUE(strings::Contains(out, "long-name"));
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"1"});
  const std::string out = t.ToString();
  EXPECT_TRUE(strings::Contains(out, "| 1 |"));
}

TEST(TablePrinterTest, LongRowsExtendColumnCount) {
  TablePrinter t({"a"});
  t.AddRow({"1", "2", "3"});
  EXPECT_TRUE(strings::Contains(t.ToString(), "3"));
}

TEST(TablePrinterTest, SeparatorEmitsRule) {
  // Sections are the benches' SectionedTable over TablePrinter.
  SectionedTable t({"h"});
  t.AddRow({"x"});
  t.AddSeparator();
  t.AddRow({"long"});
  t.AddSeparator();
  const auto lines = strings::Split(t.ToString(), '\n');
  int rules = 0;
  for (const auto& line : lines) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 5);  // Top, under-header, two explicit, bottom.
  EXPECT_EQ(t.ToString(),
            "+------+\n| h    |\n+------+\n| x    |\n+------+\n| long |\n"
            "+------+\n+------+\n");
}

TEST(TablePrinterTest, CountsRows) {
  TablePrinter t({"h"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.AddRow({"x"});
  t.AddRow({"y"});
  EXPECT_EQ(t.num_rows(), 2u);
}

}  // namespace
}  // namespace tps
