#include "src/compress/codec.h"

#include <gtest/gtest.h>

#include "src/compress/lz_codec.h"
#include "src/table/format.h"
#include "src/util/random.h"

namespace pipelsm {
namespace {

TEST(Codec, NoCompressionStoresRaw) {
  std::string raw = "some literal bytes";
  std::string out;
  CompressionType used =
      CompressBlock(CompressionType::kNoCompression, raw, &out);
  EXPECT_EQ(CompressionType::kNoCompression, used);
  EXPECT_EQ(raw, out);
}

TEST(Codec, LzCompressesCompressibleData) {
  std::string raw(8192, 'z');
  std::string out;
  CompressionType used =
      CompressBlock(CompressionType::kLzCompression, raw, &out);
  EXPECT_EQ(CompressionType::kLzCompression, used);
  EXPECT_LT(out.size(), raw.size());

  std::string back;
  ASSERT_TRUE(lz::Uncompress(out.data(), out.size(), &back).ok());
  EXPECT_EQ(raw, back);
}

TEST(Codec, FallsBackToRawForIncompressible) {
  // Random bytes: the 12.5% shrink policy should store raw.
  Xoroshiro128pp rng(9);
  std::string raw;
  for (int i = 0; i < 4096; i++) {
    raw.push_back(static_cast<char>(rng.Next()));
  }
  std::string out;
  CompressionType used =
      CompressBlock(CompressionType::kLzCompression, raw, &out);
  EXPECT_EQ(CompressionType::kNoCompression, used);
  EXPECT_EQ(raw, out);
}

TEST(Codec, UnknownTypeRejected) {
  // A block whose trailer names a codec that does not exist.
  RawBlock raw;
  raw.payload = "xx";
  raw.payload.push_back('\x7f');
  raw.payload.append(4, '\0');  // crc: not checked by the decoder
  BlockContents contents;
  EXPECT_TRUE(DecodeRawBlock(raw, &contents).IsCorruption());
  EXPECT_FALSE(contents.heap_allocated);
}

TEST(Codec, TypeNames) {
  EXPECT_STREQ("none", CompressionTypeName(CompressionType::kNoCompression));
  EXPECT_STREQ("lz", CompressionTypeName(CompressionType::kLzCompression));
}

}  // namespace
}  // namespace pipelsm
