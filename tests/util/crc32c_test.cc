#include "src/util/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "src/util/random.h"

namespace pipelsm::crc32c {
namespace {

// Reference vectors from the CRC32C specification (also used by LevelDB).
TEST(CRC, StandardResults) {
  char buf[32];

  std::memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, Value(buf, sizeof(buf)));

  std::memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, Value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(i);
  }
  EXPECT_EQ(0x46dd794eu, Value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(0x113fdb5cu, Value(buf, sizeof(buf)));

  uint8_t data[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(0xd9963a56u, Value(reinterpret_cast<char*>(data), sizeof(data)));
}

TEST(CRC, Values) { EXPECT_NE(Value("a", 1), Value("foo", 3)); }

TEST(CRC, Extend) {
  EXPECT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

// Extending byte-by-byte must equal one-shot for arbitrary alignments.
TEST(CRC, ExtendIncremental) {
  std::string data;
  for (int i = 0; i < 1000; i++) {
    data.push_back(static_cast<char>(i * 37 + (i >> 3)));
  }
  const uint32_t oneshot = Value(data.data(), data.size());
  uint32_t crc = 0;
  for (char c : data) {
    crc = Extend(crc, &c, 1);
  }
  EXPECT_EQ(oneshot, crc);

  // Chunked at odd boundaries (exercises the unaligned head path).
  crc = 0;
  size_t pos = 0;
  size_t chunk = 1;
  while (pos < data.size()) {
    const size_t n = std::min(chunk, data.size() - pos);
    crc = Extend(crc, data.data() + pos, n);
    pos += n;
    chunk = (chunk * 3 + 1) % 61 + 1;
  }
  EXPECT_EQ(oneshot, crc);
}

TEST(CRC, Mask) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

// Single-bit corruption anywhere must change the CRC.
TEST(CRC, DetectsBitFlips) {
  std::string data = "The quick brown fox jumps over the lazy dog";
  const uint32_t clean = Value(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      EXPECT_NE(clean, Value(data.data(), data.size()))
          << "flip at byte " << byte << " bit " << bit;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
    }
  }
  EXPECT_EQ(clean, Value(data.data(), data.size()));
}

TEST(CRC, EmptyInput) {
  EXPECT_EQ(0u, Value("", 0));
  EXPECT_EQ(Value("x", 1), Extend(Value("", 0), "x", 1));
}

// Extend may run on the CPU's crc32 instruction; it must agree with the
// portable slice-by-8 code on every length and alignment, including the
// tails shorter than one 8-byte word.
TEST(CRC, HardwareMatchesPortable) {
  std::string buf(1100 + 8, '\0');
  Xoroshiro128pp rng(7);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (size_t align = 0; align < 8; align++) {
    for (size_t n = 0; n <= 1100; n++) {
      const char* p = buf.data() + align;
      ASSERT_EQ(internal::ExtendPortable(0, p, n), Extend(0, p, n))
          << "align=" << align << " n=" << n;
      ASSERT_EQ(internal::ExtendPortable(0x12345678u, p, n),
                Extend(0x12345678u, p, n))
          << "align=" << align << " n=" << n;
    }
  }
}

TEST(CRC, HardwareMatchesPortableChained) {
  Xoroshiro128pp rng(11);
  std::string data(64 << 10, '\0');
  for (char& c : data) c = static_cast<char>(rng.Next());
  const uint32_t oneshot = internal::ExtendPortable(0, data.data(), data.size());
  for (int round = 0; round < 50; round++) {
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < data.size()) {
      const size_t n =
          std::min<size_t>(1 + rng.Next() % 3000, data.size() - pos);
      crc = Extend(crc, data.data() + pos, n);
      pos += n;
    }
    ASSERT_EQ(oneshot, crc) << "round=" << round;
  }
}

}  // namespace
}  // namespace pipelsm::crc32c
