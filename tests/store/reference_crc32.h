#ifndef TPS_TESTS_STORE_REFERENCE_CRC32_H_
#define TPS_TESTS_STORE_REFERENCE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace tps {

/// Test-only oracle: the bytewise table-driven CRC-32 (IEEE, reflected
/// polynomial 0xEDB88320), one table lookup per input byte. Same state
/// convention as Crc32Update (start from Crc32Init(), finish with
/// Crc32Finish()); the production slice-by-8 loop must match it for every
/// length, alignment and split.
uint32_t ReferenceCrc32Update(uint32_t state, const void* data,
                              size_t length);

}  // namespace tps

#endif  // TPS_TESTS_STORE_REFERENCE_CRC32_H_
