#include "store/reference_crc32.h"

namespace tps {

namespace {

const uint32_t* Table() {
  static const uint32_t* table = [] {
    static uint32_t entries[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      entries[i] = crc;
    }
    return entries;
  }();
  return table;
}

}  // namespace

uint32_t ReferenceCrc32Update(uint32_t state, const void* data,
                              size_t length) {
  const uint32_t* table = Table();
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < length; ++i) {
    state = (state >> 8) ^ table[(state ^ bytes[i]) & 0xFFu];
  }
  return state;
}

}  // namespace tps
