#include "util/crc32.h"

namespace tps {

namespace {

/// Slice-by-8 lookup tables for the reflected polynomial, built once.
/// tables[0] is the classic bytewise table; tables[k][b] is the CRC of
/// byte b followed by k zero bytes, so one step folds 8 input bytes with
/// 8 independent lookups.
struct Crc32Tables {
  uint32_t entries[8][256];
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t.entries[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = t.entries[k - 1][i];
        t.entries[k][i] = (prev >> 8) ^ t.entries[0][prev & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

/// Little-endian 32-bit load, independent of host byte order and
/// alignment (compiles to a single load on little-endian targets).
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t state, const void* data, size_t length) {
  const auto& t = Tables().entries;
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (; length >= 8; bytes += 8, length -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ state;
    const uint32_t hi = LoadLe32(bytes + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; length > 0; ++bytes, --length) {
    state = (state >> 8) ^ t[0][(state ^ *bytes) & 0xFFu];
  }
  return state;
}

uint32_t Crc32Finish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

}  // namespace tps
