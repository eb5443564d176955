#include "util/text_codec.h"

#include <cmath>
#include <cstdlib>
#include <string>

namespace tps::text {

const char* ReadDouble(const char* first, const char* last, double* value) {
  double parsed = 0.0;
  const std::from_chars_result result = std::from_chars(first, last, parsed);
  if (result.ec == std::errc::result_out_of_range) {
    // from_chars reports underflow and overflow alike; strtod (the
    // stream's reader) gives the underflowed value and overflows to inf.
    const std::string token(first, result.ptr);
    parsed = std::strtod(token.c_str(), nullptr);
  } else if (result.ec != std::errc()) {
    return nullptr;
  }
  if (!std::isfinite(parsed)) return nullptr;
  // The stream takes an exponent marker into the number before it checks
  // for digits after it, so "1e" or "1e+" fails there rather than reading
  // 1 and leaving the marker.
  if (result.ptr != last && (*result.ptr == 'e' || *result.ptr == 'E') &&
      std::string_view(first, result.ptr - first).find_first_of("eE") ==
          std::string_view::npos) {
    return nullptr;
  }
  *value = parsed;
  return result.ptr;
}

bool ParseDouble(std::string_view token, double* value) {
  const char* last = token.data() + token.size();
  return ReadDouble(token.data(), last, value) == last;
}

}  // namespace tps::text
