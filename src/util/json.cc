#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>

#include "util/logging.h"
#include "util/text_codec.h"

namespace tps {
namespace json {

Value Value::Bool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double d) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

Value Value::Int(int64_t i) { return Number(static_cast<double>(i)); }

Value Value::Uint(uint64_t u) {
  Value v = Number(static_cast<double>(u));
  // Below 2^53 the double is exact and Number writes its digits.
  if (u >= (uint64_t{1} << 53)) {
    v.exact_uint_ = true;
    v.uint_ = u;
  }
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::Array() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::Object() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

bool Value::bool_value() const {
  TPS_CHECK(type_ == Type::kBool);
  return bool_;
}

double Value::number() const {
  TPS_CHECK(type_ == Type::kNumber);
  return number_;
}

const std::string& Value::string() const {
  TPS_CHECK(type_ == Type::kString);
  return string_;
}

const std::vector<Value>& Value::items() const {
  TPS_CHECK(type_ == Type::kArray);
  return array_;
}

void Value::Append(Value v) {
  TPS_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(v));
}

void Value::Set(const std::string& key, Value v) {
  TPS_CHECK(type_ == Type::kObject);
  for (auto& entry : object_) {
    if (entry.first == key) {
      entry.second = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

const Value* Value::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& entry : object_) {
    if (entry.first == key) return &entry.second;
  }
  return nullptr;
}

StatusOr<bool> Value::GetBool(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr || !v->is_bool()) {
    return Status::InvalidArgument("missing or non-bool member: " + key);
  }
  return v->bool_value();
}

StatusOr<double> Value::GetNumber(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument("missing or non-number member: " + key);
  }
  return v->number();
}

StatusOr<std::string> Value::GetString(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument("missing or non-string member: " + key);
  }
  return v->string();
}

StatusOr<const Value*> Value::GetArray(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr || !v->is_array()) {
    return Status::InvalidArgument("missing or non-array member: " + key);
  }
  return v;
}

StatusOr<const Value*> Value::GetObject(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr || !v->is_object()) {
    return Status::InvalidArgument("missing or non-object member: " + key);
  }
  return v;
}

namespace {

/// Appends `s` as a quoted JSON string literal, copying runs of plain bytes
/// in bulk and escaping the rest in place.
void AppendEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t run = 0;  // Start of the pending run of verbatim bytes.
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char byte = static_cast<unsigned char>(s[i]);
    if (byte >= 0x20 && byte != '"' && byte != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (byte) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                               kHex[byte & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

void AppendNumber(std::string* out, double d) {
  if (!std::isfinite(d)) {  // inf/NaN have no JSON spelling.
    out->append("null");
    return;
  }
  // Integral doubles in the exact range print as integers — this keeps
  // counters and indices readable and byte-stable. Everything else is
  // %.17g, which to_chars spells exactly as printf does.
  constexpr double kExactIntBound = 9007199254740992.0;  // 2^53
  char buf[32];
  const std::to_chars_result written =
      d == std::floor(d) && std::fabs(d) < kExactIntBound
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d))
          : std::to_chars(buf, buf + sizeof(buf), d,
                          std::chars_format::general, 17);
  out->append(buf, written.ptr);
}

}  // namespace

std::string EscapeString(std::string_view s) {
  std::string out;
  AppendEscaped(&out, s);
  return out;
}

void Writer::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (need_comma_) out_->push_back(',');
  if (indent_ >= 0 && depth_ > 0) {
    out_->push_back('\n');
    out_->append(static_cast<size_t>(indent_) * static_cast<size_t>(depth_),
                 ' ');
  }
}

void Writer::Open(char bracket) {
  BeforeValue();
  out_->push_back(bracket);
  ++depth_;
  need_comma_ = false;
}

void Writer::Close(char bracket) {
  --depth_;
  if (need_comma_ && indent_ >= 0) {  // Non-empty: close on its own line.
    out_->push_back('\n');
    out_->append(static_cast<size_t>(indent_) * static_cast<size_t>(depth_),
                 ' ');
  }
  out_->push_back(bracket);
  need_comma_ = true;
}

Writer& Writer::Key(std::string_view key) {
  BeforeValue();
  AppendEscaped(out_, key);
  out_->append(indent_ >= 0 ? ": " : ":");
  after_key_ = true;
  return *this;
}

Writer& Writer::String(std::string_view s) {
  BeforeValue();
  AppendEscaped(out_, s);
  need_comma_ = true;
  return *this;
}

Writer& Writer::Number(double d) {
  BeforeValue();
  AppendNumber(out_, d);
  need_comma_ = true;
  return *this;
}

Writer& Writer::Uint(uint64_t u) {
  BeforeValue();
  char buf[20];  // UINT64_MAX has 20 digits.
  out_->append(buf, std::to_chars(buf, buf + sizeof(buf), u).ptr);
  need_comma_ = true;
  return *this;
}

Writer& Writer::Bool(bool b) {
  BeforeValue();
  out_->append(b ? "true" : "false");
  need_comma_ = true;
  return *this;
}

Writer& Writer::Null() {
  BeforeValue();
  out_->append("null");
  need_comma_ = true;
  return *this;
}

Writer& Writer::Raw(std::string_view json) {
  BeforeValue();
  out_->append(json);
  need_comma_ = true;
  return *this;
}

void Value::WriteTo(Writer* writer) const {
  switch (type_) {
    case Type::kNull:
      writer->Null();
      return;
    case Type::kBool:
      writer->Bool(bool_);
      return;
    case Type::kNumber:
      if (exact_uint_) {
        writer->Uint(uint_);
      } else {
        writer->Number(number_);
      }
      return;
    case Type::kString:
      writer->String(string_);
      return;
    case Type::kArray:
      writer->BeginArray();
      for (const Value& item : array_) item.WriteTo(writer);
      writer->EndArray();
      return;
    case Type::kObject:
      writer->BeginObject();
      for (const auto& [key, value] : object_) {
        writer->Key(key);
        value.WriteTo(writer);
      }
      writer->EndObject();
      return;
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  Writer writer(&out, indent);
  WriteTo(&writer);
  return out;
}

namespace {

/// The one recursive-descent scanner behind Parse, VisitMembers and
/// VisitItems. Each Scan* checks one value and builds it into `out` when
/// `out` is non-null, so building and visiting share every byte of the
/// grammar and every error message. Every path returns a Status instead of
/// crashing; depth is capped so hostile nesting cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Value> ParseDocument() {
    Value v;
    TPS_RETURN_NOT_OK(ScanDocument(&v, nullptr, nullptr));
    return v;
  }

  /// Scans the whole document; visits the members of a top-level object
  /// or the items of a top-level array when the matching visitor is set.
  /// Returns whether the root had the visited type.
  StatusOr<bool> VisitDocument(const MemberVisitor* members,
                               const ItemVisitor* items) {
    TPS_RETURN_NOT_OK(ScanDocument(nullptr, members, items));
    return root_visited_;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  Status ScanDocument(Value* out, const MemberVisitor* members,
                      const ItemVisitor* items) {
    SkipWhitespace();
    if (!AtEnd() && Peek() == '{' && members != nullptr) {
      root_visited_ = true;
      TPS_RETURN_NOT_OK(ScanObject(0, nullptr, members));
    } else if (!AtEnd() && Peek() == '[' && items != nullptr) {
      root_visited_ = true;
      TPS_RETURN_NOT_OK(ScanArray(0, nullptr, items));
    } else {
      TPS_RETURN_NOT_OK(ScanValue(0, out));
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing bytes after JSON document");
    }
    return Status::OK();
  }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  Status Expect(char c) {
    if (AtEnd() || Peek() != c) {
      return Status::InvalidArgument(
          std::string("expected '") + c + "' at offset " +
          std::to_string(pos_));
    }
    ++pos_;
    return Status::OK();
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  /// Scans one value into `member` (scalars decoded, `raw` always set);
  /// containers are checked and dropped.
  Status ScanMember(int depth, Member* member) {
    SkipWhitespace();
    const size_t start = pos_;
    if (depth >= kMaxParseDepth || AtEnd()) {
      return ScanValue(depth, nullptr);  // The matching error.
    }
    switch (Peek()) {
      case '"':
        member->type = Value::Type::kString;
        TPS_RETURN_NOT_OK(ScanString(&visited_value_, &member->string));
        break;
      case '[':
      case '{':
        member->type =
            Peek() == '[' ? Value::Type::kArray : Value::Type::kObject;
        TPS_RETURN_NOT_OK(ScanValue(depth, nullptr));
        break;
      default: {  // Literals and numbers hold no heap state.
        Value v;
        TPS_RETURN_NOT_OK(ScanValue(depth, &v));
        member->type = v.type();
        member->boolean = v.is_bool() && v.bool_value();
        member->number = v.is_number() ? v.number() : 0.0;
      }
    }
    member->raw = text_.substr(start, pos_ - start);
    return Status::OK();
  }

  Status ScanValue(int depth, Value* out) {
    // depth is the nesting level of the value being parsed (document
    // root = 0), so rejecting at == kMaxParseDepth admits documents up to
    // exactly kMaxParseDepth levels deep.
    if (depth >= kMaxParseDepth) {
      return Status::InvalidArgument("JSON nesting too deep");
    }
    SkipWhitespace();
    if (AtEnd()) return Status::InvalidArgument("unexpected end of JSON");
    switch (Peek()) {
      case 'n':
        if (!ConsumeLiteral("null")) {
          return Status::InvalidArgument("bad literal");
        }
        if (out != nullptr) *out = Value::Null();
        return Status::OK();
      case 't':
        if (!ConsumeLiteral("true")) {
          return Status::InvalidArgument("bad literal");
        }
        if (out != nullptr) *out = Value::Bool(true);
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) {
          return Status::InvalidArgument("bad literal");
        }
        if (out != nullptr) *out = Value::Bool(false);
        return Status::OK();
      case '"': {
        std::string_view s;
        TPS_RETURN_NOT_OK(ScanString(&scratch_, &s));
        if (out != nullptr) *out = Value::String(std::string(s));
        return Status::OK();
      }
      case '[':
        return ScanArray(depth, out, nullptr);
      case '{':
        return ScanObject(depth, out, nullptr);
      default: {
        double d = 0.0;
        TPS_RETURN_NOT_OK(ScanNumber(&d));
        if (out != nullptr) *out = Value::Number(d);
        return Status::OK();
      }
    }
  }

  Status ScanArray(int depth, Value* out, const ItemVisitor* visit) {
    TPS_RETURN_NOT_OK(Expect('['));
    if (out != nullptr) *out = Value::Array();
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      if (visit != nullptr) {
        Member item;
        TPS_RETURN_NOT_OK(ScanMember(depth + 1, &item));
        (*visit)(item);
      } else if (out != nullptr) {
        Value element;
        TPS_RETURN_NOT_OK(ScanValue(depth + 1, &element));
        out->Append(std::move(element));
      } else {
        TPS_RETURN_NOT_OK(ScanValue(depth + 1, nullptr));
      }
      SkipWhitespace();
      if (AtEnd()) return Status::InvalidArgument("unterminated array");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return Status::OK();
      }
      return Status::InvalidArgument("expected ',' or ']' in array");
    }
  }

  Status ScanObject(int depth, Value* out, const MemberVisitor* visit) {
    TPS_RETURN_NOT_OK(Expect('{'));
    if (out != nullptr) *out = Value::Object();
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') {
        return Status::InvalidArgument("expected object key string");
      }
      std::string_view key;
      TPS_RETURN_NOT_OK(
          ScanString(visit != nullptr ? &visited_key_ : &scratch_, &key));
      SkipWhitespace();
      TPS_RETURN_NOT_OK(Expect(':'));
      if (visit != nullptr) {
        Member member;
        TPS_RETURN_NOT_OK(ScanMember(depth + 1, &member));
        (*visit)(key, member);
      } else if (out != nullptr) {
        const std::string owned_key(key);  // The value reuses scratch_.
        Value value;
        TPS_RETURN_NOT_OK(ScanValue(depth + 1, &value));
        out->Set(owned_key, std::move(value));
      } else {
        TPS_RETURN_NOT_OK(ScanValue(depth + 1, nullptr));
      }
      SkipWhitespace();
      if (AtEnd()) return Status::InvalidArgument("unterminated object");
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return Status::OK();
      }
      return Status::InvalidArgument("expected ',' or '}' in object");
    }
  }

  /// Scans a string literal. `*out` views the input when the literal has
  /// no escapes, and the decoded bytes in `*scratch` otherwise.
  Status ScanString(std::string* scratch, std::string_view* out) {
    TPS_RETURN_NOT_OK(Expect('"'));
    const size_t start = pos_;
    while (!AtEnd() && Peek() != '"' && Peek() != '\\') ++pos_;
    if (AtEnd()) return Status::InvalidArgument("unterminated string");
    if (Peek() == '"') {
      *out = text_.substr(start, pos_ - start);
      ++pos_;
      return Status::OK();
    }
    scratch->assign(text_.data() + start, pos_ - start);
    for (;;) {
      if (AtEnd()) return Status::InvalidArgument("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        *out = *scratch;
        return Status::OK();
      }
      if (c != '\\') {
        scratch->push_back(c);
        continue;
      }
      if (AtEnd()) return Status::InvalidArgument("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          scratch->push_back('"');
          break;
        case '\\':
          scratch->push_back('\\');
          break;
        case '/':
          scratch->push_back('/');
          break;
        case 'b':
          scratch->push_back('\b');
          break;
        case 'f':
          scratch->push_back('\f');
          break;
        case 'n':
          scratch->push_back('\n');
          break;
        case 'r':
          scratch->push_back('\r');
          break;
        case 't':
          scratch->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::InvalidArgument("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Status::InvalidArgument("bad \\u escape digit");
            }
          }
          // UTF-8 encode. Lone surrogates are encoded as-is (WTF-8 style)
          // rather than rejected — the parser's job here is to never
          // crash, not to police Unicode.
          if (code < 0x80) {
            scratch->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            scratch->push_back(static_cast<char>(0xC0 | (code >> 6)));
            scratch->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            scratch->push_back(static_cast<char>(0xE0 | (code >> 12)));
            scratch->push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            scratch->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Status::InvalidArgument("unknown escape sequence");
      }
    }
  }

  bool ConsumeDigits() {
    bool any = false;
    while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
      any = true;
      ++pos_;
    }
    return any;
  }

  /// Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?
  /// [0-9]+)?. Leading '+', leading zeros ("01"), bare trailing dots
  /// ("1.") and dotless exponents ("1e") are all rejected — the codecs in
  /// this repo only ever parse numbers their own Dump produced, and Dump
  /// never emits those forms.
  Status ScanNumber(double* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || Peek() < '0' || Peek() > '9') {
      return Status::InvalidArgument("malformed number at offset " +
                                     std::to_string(start));
    }
    if (Peek() == '0') {
      ++pos_;
    } else if (!ConsumeDigits()) {
      return Status::InvalidArgument("malformed number at offset " +
                                     std::to_string(start));
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (!ConsumeDigits()) {
        return Status::InvalidArgument("malformed number: missing digits "
                                       "after decimal point");
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (!ConsumeDigits()) {
        return Status::InvalidArgument("malformed number: missing exponent "
                                       "digits");
      }
    }
    // The grammar above admits only what ParseDouble reads in full, so a
    // failure here is overflow; underflow reads as 0 or a subnormal.
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!text::ParseDouble(token, out)) {
      return Status::InvalidArgument("number overflows double: " +
                                     std::string(token));
    }
    return Status::OK();
  }

  const std::string_view text_;
  size_t pos_ = 0;
  bool root_visited_ = false;
  // Decoded escaped strings. Only the visited level writes visited_key_
  // and visited_value_, so a visitor's views survive the scan of a nested
  // value, which decodes into scratch_.
  std::string visited_key_;
  std::string visited_value_;
  std::string scratch_;
};

}  // namespace

StatusOr<Value> Parse(std::string_view text) {
  Parser parser(text);
  return parser.ParseDocument();
}

StatusOr<bool> VisitMembers(std::string_view text,
                            const MemberVisitor& visit) {
  Parser parser(text);
  return parser.VisitDocument(&visit, nullptr);
}

StatusOr<bool> VisitItems(std::string_view text, const ItemVisitor& visit) {
  Parser parser(text);
  return parser.VisitDocument(nullptr, &visit);
}

}  // namespace json
}  // namespace tps
