#ifndef TPS_UTIL_STRING_UTIL_H_
#define TPS_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace tps {
namespace strings {

/// Splits on a single-character delimiter; empty tokens are kept.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Joins with the given separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool Contains(std::string_view text, std::string_view needle);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Formats a double with the given number of decimal places.
std::string FormatDouble(double value, int decimals);

}  // namespace strings
}  // namespace tps

#endif  // TPS_UTIL_STRING_UTIL_H_
