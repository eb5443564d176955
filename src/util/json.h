#ifndef TPS_UTIL_JSON_H_
#define TPS_UTIL_JSON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/statusor.h"

namespace tps {
namespace json {

class Writer;

/// Minimal JSON for the observability layer (metrics dumps, selection
/// traces, bench telemetry) and the wire protocol. Deliberately small: one
/// tagged value type, one append-only `Writer`, and one hardened
/// recursive-descent scanner behind two entry points — `Parse()` builds a
/// `Value`, `VisitMembers()` hands a top-level object's members to a
/// callback without building one (the wire request parser reads its few
/// keys this way, with no document and no per-member copy).
///
/// Determinism contract: `Writer` is the only formatter, and `Value::Dump()`
/// writes through it, so a value and the same content written directly
/// produce identical bytes. Object keys keep insertion order; doubles are
/// printed as %.17g (lossless round-trip); integral doubles below 2^53 in
/// magnitude print as plain integers; non-finite numbers print as null.
/// Two equal values always dump to identical bytes, so JSON artifacts can
/// be compared byte-for-byte in golden tests.
///
/// Safety contract: `Parse()`, `VisitMembers()` and `VisitItems()` never
/// crash or throw on malformed input — truncated documents, bad escapes,
/// numbers that overflow a double, deep nesting (bounded by
/// `kMaxParseDepth`) and trailing garbage all return InvalidArgument, with
/// the same message from every entry point.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Defaults to null.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Number(double d);
  static Value Int(int64_t i);
  /// The exact integer `u`: dumps as every digit, as Writer::Uint does,
  /// even past 2^53 where the double `number()` returns is rounded.
  static Value Uint(uint64_t u);
  static Value String(std::string s);
  static Value Array();
  static Value Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; calling the wrong one on a value is a programming
  /// error (checked). Use the As* helpers for fallible extraction when
  /// consuming parsed input.
  bool bool_value() const;
  double number() const;
  const std::string& string() const;

  /// Array elements.
  const std::vector<Value>& items() const;

  /// Appends to an array value.
  void Append(Value v);
  /// Sets (or overwrites) an object key; keys keep insertion order.
  void Set(const std::string& key, Value v);

  /// Object lookup; null when absent or this is not an object.
  const Value* Find(const std::string& key) const;

  /// Fallible extraction for parsed documents: object member `key` of the
  /// required type, as a Status error (never a crash) on mismatch.
  StatusOr<bool> GetBool(const std::string& key) const;
  StatusOr<double> GetNumber(const std::string& key) const;
  StatusOr<std::string> GetString(const std::string& key) const;
  StatusOr<const Value*> GetArray(const std::string& key) const;
  StatusOr<const Value*> GetObject(const std::string& key) const;

  /// Serializes through `Writer`. indent < 0 -> compact one-line form;
  /// indent >= 0 -> pretty-printed with that many spaces per level.
  /// Non-finite numbers (inf/NaN have no JSON spelling) are emitted as null.
  std::string Dump(int indent = -1) const;

 private:
  void WriteTo(Writer* writer) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool exact_uint_ = false;  // A Uint past 2^53: written from `uint_`.
  uint64_t uint_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Nesting bound for Parse — deeper documents are rejected, not recursed
/// into, so adversarial inputs cannot overflow the stack.
inline constexpr int kMaxParseDepth = 96;

/// Parses one JSON document (with optional surrounding whitespace).
/// Trailing non-whitespace bytes are an error.
StatusOr<Value> Parse(std::string_view text);

/// One scanned member value (or array item) handed to a visitor. The views
/// are valid only during the callback: `string` may point into a scratch
/// buffer that the next string reuses.
struct Member {
  Value::Type type = Value::Type::kNull;
  bool boolean = false;     // kBool.
  double number = 0.0;      // kNumber.
  std::string_view string;  // kString: the decoded bytes.
  std::string_view raw;     // Any type: the value's exact text in the input.
};

using MemberVisitor =
    std::function<void(std::string_view key, const Member& value)>;
using ItemVisitor = std::function<void(const Member& item)>;

/// Scans one JSON document with the same grammar, limits and error
/// messages as `Parse()`, building nothing. When the document is an object,
/// calls `visit` once per member in text order (a duplicate key is visited
/// again; the last visit is the one `Parse()` would keep) and returns true.
/// A well-formed document of any other type visits nothing and returns
/// false. Nested values are checked and dropped; their `raw` text can be
/// scanned again with `VisitItems()`.
StatusOr<bool> VisitMembers(std::string_view text, const MemberVisitor& visit);

/// The array counterpart: calls `visit` once per item of a top-level array
/// and returns true; a well-formed non-array document returns false.
StatusOr<bool> VisitItems(std::string_view text, const ItemVisitor& visit);

/// Append-only JSON writer. Appends to `*out` (never clears it), inserts
/// the commas itself, and in compact form (indent < 0) writes exactly the
/// bytes `Value::Dump()` would for the same content. indent >= 0
/// pretty-prints with that many spaces per level, as `Dump(indent)` does.
/// The caller keeps the calls well nested: a `Key` before every object
/// member, a matching `End*` for every `Begin*`.
class Writer {
 public:
  explicit Writer(std::string* out, int indent = -1)
      : out_(out), indent_(indent) {}

  Writer& BeginObject() {
    Open('{');
    return *this;
  }
  Writer& EndObject() {
    Close('}');
    return *this;
  }
  Writer& BeginArray() {
    Open('[');
    return *this;
  }
  Writer& EndArray() {
    Close(']');
    return *this;
  }
  Writer& Key(std::string_view key);
  Writer& String(std::string_view s);
  Writer& Number(double d);
  /// As Value::Int: the number `static_cast<double>(i)`.
  Writer& Int(int64_t i) { return Number(static_cast<double>(i)); }
  /// The decimal digits of `u`, exact over the whole range (a double holds
  /// integers exactly only up to 2^53). Below 2^53, the bytes of Int.
  Writer& Uint(uint64_t u);
  Writer& Bool(bool b);
  Writer& Null();
  /// Splices one complete, compact JSON value (e.g. another codec's
  /// `Dump(-1)`) verbatim.
  Writer& Raw(std::string_view json);

 private:
  void BeforeValue();
  void Open(char bracket);
  void Close(char bracket);

  std::string* out_;
  int indent_;
  int depth_ = 0;
  bool need_comma_ = false;  // A sibling was written at this level.
  bool after_key_ = false;   // The next value completes a member.
};

/// Escapes `s` into a double-quoted JSON string literal. Bytes >= 0x20 are
/// passed through verbatim (arbitrary byte strings round-trip regardless of
/// UTF-8 validity); control bytes use the standard short escapes or \u00XX.
std::string EscapeString(std::string_view s);

}  // namespace json
}  // namespace tps

#endif  // TPS_UTIL_JSON_H_
