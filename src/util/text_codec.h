#ifndef TPS_UTIL_TEXT_CODEC_H_
#define TPS_UTIL_TEXT_CODEC_H_

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

/// The one number codec of the store's line-oriented records (matrix,
/// clustering, recall embeddings, IVF index), the JSON scanner and the
/// spec-field reader: std::to_chars / std::from_chars instead of streams.
///
/// Reading follows operator>> on a classic-locale stream: `nan`, `inf`
/// and `-inf` are rejected (bare from_chars reads them), a value that
/// underflows keeps strtod's answer (0 or a subnormal, with its sign),
/// and overflow is an error. Both round correctly, so a value written at
/// 17 significant digits reads back bit for bit. It differs from the
/// stream on purpose in two ways (pinned by
/// tests/store/record_codec_test.cc): a leading `+` is rejected (no
/// writer emits one), and so is a leading `-` on an unsigned field (the
/// stream wraps it to a huge value).
namespace tps::text {

/// Reads a double from the front of [first, last): the longest valid
/// number, as above. Returns the end of the number, or nullptr when there
/// is none, it is not finite, or it ends in an exponent marker with no
/// digits ("1e", "2.5E+"; the stream fails on those).
const char* ReadDouble(const char* first, const char* last, double* value);

/// All of `token` as a double; false if any of it is left over.
bool ParseDouble(std::string_view token, double* value);

template <typename T>
concept Number =
    std::same_as<T, double> ||
    (std::integral<T> && !std::same_as<T, bool> && !std::same_as<T, char>);

/// A cursor over record text that reads lines like std::getline and
/// numbers like operator>> (skip leading whitespace, then read one number).
class TextCursor {
 public:
  explicit TextCursor(std::string_view text) : text_(text) {}

  /// The next line without its '\n'; false (and no line) at end of text.
  bool Line(std::string_view* line) {
    if (pos_ >= text_.size()) return false;
    const size_t end = std::min(text_.find('\n', pos_), text_.size());
    *line = text_.substr(pos_, end - pos_);
    pos_ = end + (end < text_.size() ? 1 : 0);
    return true;
  }

  /// Skips whitespace, then reads one number; false leaves the value
  /// unspecified.
  template <Number T>
  bool Read(T* value) {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + text_.size();
    const char* end = nullptr;
    if constexpr (std::is_floating_point_v<T>) {
      end = ReadDouble(first, last, value);
    } else {
      const std::from_chars_result result = std::from_chars(first, last,
                                                            *value);
      if (result.ec == std::errc()) end = result.ptr;
    }
    if (end == nullptr) return false;
    pos_ += static_cast<size_t>(end - first);
    return true;
  }

  /// Reads each value in turn; false at the first that fails.
  template <Number... Ts>
  bool ReadAll(Ts*... values) {
    return (Read(values) && ...);
  }

  /// Skips one character, whatever it is (the newline after a line of
  /// numbers, like istream::ignore(1)).
  void SkipOne() {
    if (pos_ < text_.size()) ++pos_;
  }

  size_t remaining() const { return text_.size() - pos_; }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// A double written in its shortest round-trip form (to_chars without a
/// precision): 0.085 stays "0.085", and every bit survives the reread.
struct Shortest {
  double value;
};

/// Builds record text like an ostringstream at precision 17: integers in
/// decimal, doubles as %.17g (to_chars' general format at that
/// precision), strings and characters verbatim.
class TextWriter {
 public:
  TextWriter& operator<<(std::string_view text) {
    out_.append(text);
    return *this;
  }
  TextWriter& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  template <Number T>
  TextWriter& operator<<(T value) {
    char buf[32];
    std::to_chars_result written;
    if constexpr (std::is_floating_point_v<T>) {
      written = std::to_chars(buf, buf + sizeof(buf), value,
                              std::chars_format::general, 17);
    } else {
      written = std::to_chars(buf, buf + sizeof(buf), value);
    }
    out_.append(buf, written.ptr);
    return *this;
  }
  TextWriter& operator<<(Shortest shortest) {
    char buf[32];
    out_.append(buf,
                std::to_chars(buf, buf + sizeof(buf), shortest.value).ptr);
    return *this;
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace tps::text

#endif  // TPS_UTIL_TEXT_CODEC_H_
