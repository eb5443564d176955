#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace tps {
namespace json {
namespace {

TEST(JsonValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_FALSE(Value::Bool(false).bool_value());
  EXPECT_DOUBLE_EQ(Value::Number(2.5).number(), 2.5);
  EXPECT_DOUBLE_EQ(Value::Int(7).number(), 7.0);
  EXPECT_EQ(Value::String("hi").string(), "hi");
  EXPECT_TRUE(Value::Array().is_array());
  EXPECT_TRUE(Value::Object().is_object());
}

TEST(JsonValueTest, ObjectKeepsInsertionOrderAndOverwrites) {
  Value obj = Value::Object();
  obj.Set("z", Value::Int(1));
  obj.Set("a", Value::Int(2));
  obj.Set("z", Value::Int(3));  // Overwrite keeps the original position.
  EXPECT_EQ(obj.Dump(), R"({"z":3,"a":2})");
  ASSERT_NE(obj.Find("a"), nullptr);
  EXPECT_EQ(obj.Find("missing"), nullptr);
}

TEST(JsonDumpTest, CompactForm) {
  Value root = Value::Object();
  root.Set("n", Value::Int(42));
  root.Set("s", Value::String("x"));
  Value arr = Value::Array();
  arr.Append(Value::Bool(true));
  arr.Append(Value::Null());
  root.Set("a", std::move(arr));
  EXPECT_EQ(root.Dump(), R"({"n":42,"s":"x","a":[true,null]})");
}

TEST(JsonDumpTest, IntegralDoublesPrintAsIntegers) {
  EXPECT_EQ(Value::Number(3.0).Dump(), "3");
  EXPECT_EQ(Value::Number(-17.0).Dump(), "-17");
  EXPECT_EQ(Value::Int(1234567890123).Dump(), "1234567890123");
}

TEST(JsonDumpTest, UnsignedIntegersPrintEveryDigit) {
  // Below 2^53 the bytes of Int; past it, every digit, where Int rounds.
  for (uint64_t u : {uint64_t{0}, uint64_t{42}, (uint64_t{1} << 53) - 1}) {
    std::string exact;
    std::string rounded;
    Writer(&exact).Uint(u);
    Writer(&rounded).Int(static_cast<int64_t>(u));
    EXPECT_EQ(exact, rounded) << u;
    EXPECT_EQ(Value::Uint(u).Dump(), exact) << u;
    EXPECT_EQ(Value::Uint(u).Dump(), Value::Int(static_cast<int64_t>(u)).Dump())
        << u;
  }
  for (uint64_t u : {(uint64_t{1} << 53) + 1, uint64_t{1} << 63,
                     std::numeric_limits<uint64_t>::max()}) {
    std::string exact;
    Writer(&exact).BeginArray().Uint(u).Uint(u).EndArray();
    EXPECT_EQ(exact, "[" + std::to_string(u) + "," + std::to_string(u) + "]");
    EXPECT_EQ(Value::Uint(u).Dump(), std::to_string(u));
    EXPECT_EQ(Value::Uint(u).number(), static_cast<double>(u));
    // The rounded double is another value, and dumps otherwise.
    EXPECT_NE(Value::Uint(u).Dump(),
              Value::Number(static_cast<double>(u)).Dump());
    EXPECT_NE(Value::Uint(u).Dump(), Value::Uint(u - 1).Dump());
  }
}

TEST(JsonDumpTest, DoublesRoundTripLosslessly) {
  const double values[] = {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324,
                           -2.2250738585072014e-308,
                           std::numeric_limits<double>::max()};
  for (double v : values) {
    auto parsed = Parse(Value::Number(v).Dump());
    ASSERT_TRUE(parsed.ok()) << v;
    EXPECT_EQ(parsed->number(), v);  // Exact: %.17g is lossless.
  }
}

TEST(JsonDumpTest, NonFiniteNumbersDumpAsNull) {
  EXPECT_EQ(Value::Number(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(Value::Number(std::nan("")).Dump(), "null");
}

TEST(JsonDumpTest, StringEscapes) {
  EXPECT_EQ(Value::String("a\"b\\c\n\t\x01").Dump(),
            R"("a\"b\\c\n\t\u0001")");
  // Bytes >= 0x20 pass through verbatim (UTF-8 or not).
  EXPECT_EQ(Value::String("caf\xC3\xA9").Dump(), "\"caf\xC3\xA9\"");
}

TEST(JsonDumpTest, EqualValuesDumpIdenticalBytes) {
  Value a = Value::Object();
  a.Set("k", Value::Number(0.30000000000000004));
  Value b = Value::Object();
  b.Set("k", Value::Number(0.1 + 0.2));
  EXPECT_EQ(a.Dump(), b.Dump());
  EXPECT_EQ(a.Dump(2), b.Dump(2));
}

TEST(JsonParseTest, RoundTripsDocument) {
  const std::string doc =
      R"({"a":[1,2.5,"x",true,null],"b":{"nested":[[]]},"c":-0.125})";
  auto parsed = Parse(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), doc);
}

TEST(JsonParseTest, AcceptsEscapesAndUnicode) {
  auto parsed = Parse(R"("a\u0041\n\u00e9")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string(), "aA\n\xC3\xA9");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",        "{",        "[1,",      "\"unterminated", "{\"k\":}",
      "tru",     "01",       "1.",       "- 1",            "[1 2]",
      "{\"a\" 1}", "\"\\x\"", "\"\\u12\"", "nulll",        "1e",
      "{\"a\":1,}", "[,]",   "+1",       ".5",             "[1e+]",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Parse(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonParseTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("{} x").ok());
  EXPECT_FALSE(Parse("1 2").ok());
  EXPECT_TRUE(Parse(" {} \n").ok());
}

TEST(JsonParseTest, DepthLimitBlocksDeepNesting) {
  std::string deep(kMaxParseDepth + 1, '[');
  deep += std::string(kMaxParseDepth + 1, ']');
  EXPECT_FALSE(Parse(deep).ok());
  std::string ok_depth(kMaxParseDepth - 1, '[');
  ok_depth += std::string(kMaxParseDepth - 1, ']');
  EXPECT_TRUE(Parse(ok_depth).ok());
}

TEST(JsonParseTest, RejectsNonFiniteLiterals) {
  EXPECT_FALSE(Parse("1e999").ok());
  EXPECT_FALSE(Parse("NaN").ok());
  EXPECT_FALSE(Parse("Infinity").ok());
}

// Numbers read through the shared text codec keep strtod's answer for
// every valid JSON number: underflow is 0 (signed) or a subnormal, rounding
// is correct to the last bit, and overflow is an error.
TEST(JsonParseTest, NumbersReadAsStrtodReadsThem) {
  const char* valid[] = {
      "0",        "-0",          "1e-400",      "-1e-400",
      "2e-320",   "4.9406564584124654e-324",    "2.4703282292062328e-324",
      "1e-310",   "2.2250738585072011e-308",    "1.7976931348623157e308",
      "0.1",      "123456789012345678901234567890", "1E+2",
      "9007199254740993", "-2.5e-3",
  };
  for (const char* text : valid) {
    auto parsed = Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    const double want = std::strtod(text, nullptr);
    const double got = parsed->number();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << text;
  }
  EXPECT_TRUE(std::signbit(Parse("-1e-400")->number()));
  EXPECT_EQ(Parse("1e-400")->number(), 0.0);
  for (const char* text : {"1e309", "-1e309", "1.7976931348623159e308"}) {
    const Status status = Parse(text).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << text;
    EXPECT_EQ(status.message(), std::string("number overflows double: ") +
                                    text);
  }
}

TEST(JsonGetTest, FallibleAccessorsReturnStatus) {
  auto parsed = Parse(R"({"b":true,"n":1.5,"s":"v","a":[],"o":{}})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->GetBool("b").ok());
  EXPECT_TRUE(parsed->GetNumber("n").ok());
  EXPECT_TRUE(parsed->GetString("s").ok());
  EXPECT_TRUE(parsed->GetArray("a").ok());
  EXPECT_TRUE(parsed->GetObject("o").ok());
  // Missing key and wrong type both yield errors, never crashes.
  EXPECT_FALSE(parsed->GetBool("missing").ok());
  EXPECT_FALSE(parsed->GetNumber("s").ok());
  EXPECT_FALSE(parsed->GetArray("o").ok());
}

TEST(JsonWriterTest, NumbersMatchThePrintfRule) {
  // The rule Dump always had, spelled with printf: integral doubles below
  // 2^53 in magnitude as %lld, other finite doubles as %.17g.
  auto printf_spelling = [](double d) -> std::string {
    if (!std::isfinite(d)) return "null";
    char buf[40];
    if (d == std::floor(d) && std::fabs(d) < 9007199254740992.0) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", d);
    }
    return buf;
  };
  std::vector<double> values = {
      0.0, -0.0, 9007199254740991.0, -9007199254740991.0,
      9007199254740992.0, -9007199254740992.0, 1e16, 1e17, 1e-4, 1e-5,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::infinity(), std::nan("")};
  Rng rng(0x70C4A25);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t bits = rng.Next();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    values.push_back(d);
    values.push_back(rng.Uniform() *
                     std::pow(10.0, rng.UniformInt(int64_t{-20},
                                                   int64_t{20})));
  }
  for (double d : values) {
    ASSERT_EQ(Value::Number(d).Dump(), printf_spelling(d)) << d;
  }
}

TEST(JsonWriterTest, DirectWritesMatchDumpCompactAndPretty) {
  Value root = Value::Object();
  root.Set("s", Value::String("q\"\\\x1f\x7f"));
  root.Set("empty_a", Value::Array());
  root.Set("empty_o", Value::Object());
  Value nested = Value::Array();
  nested.Append(Value::Number(-0.0));
  nested.Append(Value::Object());
  Value inner = Value::Object();
  inner.Set("n", Value::Null());
  inner.Set("b", Value::Bool(false));
  nested.Append(std::move(inner));
  root.Set("a", std::move(nested));
  for (int indent : {-1, 0, 2}) {
    std::string direct = "x";  // Appends; never clears.
    Writer w(&direct, indent);
    w.BeginObject()
        .Key("s").String("q\"\\\x1f\x7f")
        .Key("empty_a").BeginArray().EndArray()
        .Key("empty_o").BeginObject().EndObject()
        .Key("a").BeginArray()
        .Number(-0.0)
        .BeginObject().EndObject()
        .BeginObject().Key("n").Null().Key("b").Bool(false).EndObject()
        .EndArray()
        .EndObject();
    EXPECT_EQ(direct, "x" + root.Dump(indent)) << indent;
  }
  std::string spliced;
  Writer(&spliced)
      .BeginArray()
      .Raw(root.Dump())
      .Int(-7)
      .EndArray();
  EXPECT_EQ(spliced, "[" + root.Dump() + ",-7]");
}

/// Every member a visitor saw, as (key, type, scalar text, raw).
std::vector<std::string> Visited(const std::string& text, bool* is_object) {
  std::vector<std::string> seen;
  auto visited = VisitMembers(text, [&](std::string_view key,
                                        const Member& value) {
    std::string entry(key);
    entry += "|" + std::to_string(static_cast<int>(value.type)) + "|";
    if (value.type == Value::Type::kString) entry += value.string;
    if (value.type == Value::Type::kNumber) {
      entry += Value::Number(value.number).Dump();
    }
    if (value.type == Value::Type::kBool) entry += value.boolean ? "T" : "F";
    entry += "|" + std::string(value.raw);
    seen.push_back(entry);
  });
  EXPECT_TRUE(visited.ok()) << visited.status().ToString();
  *is_object = visited.ok() && *visited;
  return seen;
}

TEST(JsonVisitTest, MembersInTextOrderWithDecodedKeysAndValues) {
  bool is_object = false;
  const std::vector<std::string> seen = Visited(
      R"( {"k\u0065y": {"n\u0065sted": ["\u0041"]}, "s": "v\u0061l",)"
      R"( "n": -1.5e2, "b": true, "z": null, "s": "again"} )",
      &is_object);
  EXPECT_TRUE(is_object);
  // The escaped key survives its value's nested escaped key and string.
  const std::vector<std::string> want = {
      R"(key|5||{"n\u0065sted": ["\u0041"]})",
      R"(s|3|val|"v\u0061l")",
      "n|2|-150|-1.5e2",
      "b|1|T|true",
      "z|0||null",
      R"(s|3|again|"again")"};
  EXPECT_EQ(seen, want);

  EXPECT_TRUE(Visited("{}", &is_object).empty());
  EXPECT_TRUE(is_object);
  EXPECT_TRUE(Visited(R"([{"a":1}])", &is_object).empty());
  EXPECT_FALSE(is_object);
  EXPECT_TRUE(Visited(R"("str")", &is_object).empty());
  EXPECT_FALSE(is_object);
}

TEST(JsonVisitTest, ItemsOfATopLevelArray) {
  std::vector<std::string> items;
  auto visited = VisitItems(R"(["a", 1, ["x"], "b\n"])",
                            [&](const Member& item) {
                              items.emplace_back(item.raw);
                            });
  ASSERT_TRUE(visited.ok());
  EXPECT_TRUE(*visited);
  EXPECT_EQ(items, (std::vector<std::string>{R"("a")", "1", R"(["x"])",
                                             R"("b\n")"}));
  EXPECT_FALSE(*VisitItems("{}", [](const Member&) {}));
}

TEST(JsonVisitTest, ErrorsMatchParseExactly) {
  std::string deep = "{\"a\":" + std::string(kMaxParseDepth, '[') +
                     std::string(kMaxParseDepth, ']') + "}";
  const std::string bad[] = {
      "",           "{",          "{\"a\":}",   "{\"a\" 1}",   "{\"a\":1,}",
      "{\"a\":1e999}", "{\"a\":[1 2]}", "{\"a\":\"\\x\"}",
      "{\"\\u12\":1}", "{\"a\":tru}", "{\"a\":01}", "{} x", "[1,",
      "{\"a\":{\"b\":}}", "{\"a\":\"unterminated", "{1:2}", deep};
  for (const std::string& text : bad) {
    const auto parsed = Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    const auto members = VisitMembers(text, [](std::string_view,
                                               const Member&) {});
    ASSERT_FALSE(members.ok()) << text;
    EXPECT_EQ(members.status().ToString(), parsed.status().ToString())
        << text;
    const auto items = VisitItems(text, [](const Member&) {});
    ASSERT_FALSE(items.ok()) << text;
    EXPECT_EQ(items.status().ToString(), parsed.status().ToString()) << text;
  }
}

}  // namespace
}  // namespace json
}  // namespace tps
