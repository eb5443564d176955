#include "util/string_util.h"
#include "util/test_helpers.h"

#include <gtest/gtest.h>

namespace tps {
namespace strings {
namespace {

TEST(StringUtilTest, SplitKeepsEmptyTokens) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("Hello World 123"), "hello world 123");
}

TEST(StringUtilTest, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("prefix-rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(Contains("haystack", "stack"));
  EXPECT_FALSE(Contains("haystack", "needle"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringUtilTest, FormatBehavesLikePrintf) {
  EXPECT_EQ(Format("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(Format("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(Format("%.2f", 3.14159), "3.14");
}

TEST(StringUtilTest, FormatLongStringsAllocateCorrectly) {
  const std::string big(500, 'x');
  EXPECT_EQ(Format("%s!", big.c_str()), big + "!");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(2.5, 0), "2");  // Round-half-to-even via printf.
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(-1.5, 1), "-1.5");
}

}  // namespace
}  // namespace strings
}  // namespace tps
