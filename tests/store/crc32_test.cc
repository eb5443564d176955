#include "util/crc32.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "store/reference_crc32.h"
#include "util/rng.h"

namespace tps {
namespace {

/// The checksum of one buffer, fed in a single Crc32Update.
uint32_t Crc32(const void* data, size_t length) {
  return Crc32Finish(Crc32Update(Crc32Init(), data, length));
}
uint32_t Crc32(std::string_view data) {
  return Crc32(data.data(), data.size());
}

TEST(Crc32Test, KnownTestVectors) {
  // Standard CRC-32/IEEE check values.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc"), 0x352441C2u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "incremental checksum computation";
  uint32_t state = Crc32Init();
  state = Crc32Update(state, data.data(), 10);
  state = Crc32Update(state, data.data() + 10, data.size() - 10);
  EXPECT_EQ(Crc32Finish(state), Crc32(data));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data = "payload protected by checksum";
  const uint32_t original = Crc32(data);
  data[5] = static_cast<char>(data[5] ^ 0x01);
  EXPECT_NE(Crc32(data), original);
}

TEST(Crc32Test, BinaryDataWithEmbeddedNulls) {
  const char data[] = {0x00, 0x01, 0x00, static_cast<char>(0xFF), 0x00};
  EXPECT_NE(Crc32(data, sizeof(data)), Crc32(data, sizeof(data) - 1));
}

// Differential check of the slice-by-8 loop against the bytewise oracle:
// random buffers of every length 0..1024 at every start alignment 0..7, so
// each (8-byte body, 0..7-byte tail, misaligned head) combination runs.
TEST(Crc32Test, SliceBy8MatchesBytewiseOracle) {
  Rng rng(20240917);
  std::vector<uint8_t> buffer(1024 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t length = 0; length <= 1024; ++length) {
      const uint8_t* data = buffer.data() + align;
      const uint32_t expected = Crc32Finish(
          ReferenceCrc32Update(Crc32Init(), data, length));
      ASSERT_EQ(Crc32(data, length), expected)
          << "length " << length << " alignment " << align;
    }
  }
}

// Chained Crc32Update calls over arbitrary splits (including splits that
// leave a partial 8-byte step on either side) equal the one-shot oracle.
TEST(Crc32Test, ChainedSplitsMatchBytewiseOracle) {
  Rng rng(77);
  std::vector<uint8_t> buffer(1024 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t length = 0; length <= 1024; ++length) {
      const uint8_t* data = buffer.data() + align;
      const uint32_t expected =
          ReferenceCrc32Update(Crc32Init(), data, length);
      // Three random cut points, sorted, so the chain is 4 pieces.
      size_t cuts[3];
      for (size_t& cut : cuts) cut = rng.Next() % (length + 1);
      std::sort(std::begin(cuts), std::end(cuts));
      uint32_t state = Crc32Init();
      size_t begin = 0;
      for (size_t cut : cuts) {
        state = Crc32Update(state, data + begin, cut - begin);
        begin = cut;
      }
      state = Crc32Update(state, data + begin, length - begin);
      ASSERT_EQ(state, expected)
          << "length " << length << " alignment " << align << " cuts "
          << cuts[0] << "," << cuts[1] << "," << cuts[2];
    }
  }
}

}  // namespace
}  // namespace tps
