#ifndef TPS_UTIL_CRC32_H_
#define TPS_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace tps {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
/// guarding every record in the store's log files. Incremental: feed
/// chunks with the previous return value. Start with `Crc32Init()` and
/// finish with `Crc32Finish()`.
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t state, const void* data, size_t length);
uint32_t Crc32Finish(uint32_t state);

}  // namespace tps

#endif  // TPS_UTIL_CRC32_H_
