#include "src/compress/lz_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/table/block_builder.h"
#include "src/util/random.h"
#include "src/workload/generator.h"

namespace pipelsm::lz {
namespace {

std::string RoundTrip(const std::string& input) {
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  EXPECT_LE(compressed.size(), MaxCompressedLength(input.size()));

  size_t ulen = 0;
  EXPECT_TRUE(GetUncompressedLength(compressed.data(), compressed.size(),
                                    &ulen));
  EXPECT_EQ(input.size(), ulen);

  std::string output;
  Status s = Uncompress(compressed.data(), compressed.size(), &output);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return output;
}

TEST(LzCodec, Empty) { EXPECT_EQ("", RoundTrip("")); }

TEST(LzCodec, Short) {
  EXPECT_EQ("a", RoundTrip("a"));
  EXPECT_EQ("ab", RoundTrip("ab"));
  EXPECT_EQ("abc", RoundTrip("abc"));
}

TEST(LzCodec, RepetitiveCompresses) {
  std::string input(10000, 'x');
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  EXPECT_LT(compressed.size(), input.size() / 10);
  std::string output;
  ASSERT_TRUE(Uncompress(compressed.data(), compressed.size(), &output).ok());
  EXPECT_EQ(input, output);
}

TEST(LzCodec, PatternedData) {
  std::string input;
  for (int i = 0; i < 3000; i++) {
    input += "key";
    input += std::to_string(i % 97);
    input += "=value;";
  }
  EXPECT_EQ(input, RoundTrip(input));
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  EXPECT_LT(compressed.size(), input.size());  // should find the repeats
}

TEST(LzCodec, IncompressibleRandomData) {
  Xoroshiro128pp rng(4242);
  std::string input;
  for (int i = 0; i < 4096; i++) {
    input.push_back(static_cast<char>(rng.Next()));
  }
  EXPECT_EQ(input, RoundTrip(input));
}

TEST(LzCodec, OverlappingCopiesRle) {
  // "abcabcabc..." exercises offset < length copies (RLE-style).
  std::string input;
  for (int i = 0; i < 5000; i++) {
    input.push_back("abc"[i % 3]);
  }
  EXPECT_EQ(input, RoundTrip(input));
}

TEST(LzCodec, LargeInputAcrossWindowRebase) {
  // > 64K inputs slide the match window; content repeats at long range.
  std::string unit = "the quick brown fox jumps over the lazy dog. ";
  std::string input;
  while (input.size() < 300 * 1024) {
    input += unit;
    input.push_back(static_cast<char>(input.size() & 0xff));
  }
  EXPECT_EQ(input, RoundTrip(input));
}

TEST(LzCodec, TruncatedInputFails) {
  std::string input = "hello hello hello hello hello";
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  std::string output;
  for (size_t cut = 1; cut < compressed.size(); cut++) {
    Status s = Uncompress(compressed.data(), cut, &output);
    // Any truncation must fail cleanly — never crash or return wrong data.
    if (s.ok()) {
      EXPECT_EQ(input.substr(0, output.size()), output);
    }
  }
}

TEST(LzCodec, CorruptOffsetRejected) {
  // Handcraft a copy whose offset exceeds the produced output.
  std::string bogus;
  bogus.push_back(5);  // varint32 uncompressed length = 5
  bogus.push_back(static_cast<char>(0x02 | ((4 - 1) << 2)));  // copy-2 len 4
  bogus.push_back(static_cast<char>(0xff));                   // offset 0xffff
  bogus.push_back(static_cast<char>(0xff));
  std::string output;
  Status s = Uncompress(bogus.data(), bogus.size(), &output);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
}

TEST(LzCodec, DeclaredLengthMismatchRejected) {
  std::string input = "0123456789";
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  // Tamper with the declared length (first varint byte: 10 -> 9).
  ASSERT_EQ(10, compressed[0]);
  compressed[0] = 9;
  std::string output;
  EXPECT_FALSE(
      Uncompress(compressed.data(), compressed.size(), &output).ok());
}

// Handcrafted streams: a literal followed by copies whose source
// overlaps their destination, each ending exactly at the declared length.
TEST(LzCodec, OverlappingCopyOffsetOne) {
  // len 10 | literal "a" | copy-1 len 9 offset 1
  const std::string stream = {10, 0x00, 'a', 0x01 | ((9 - 4) << 2), 0x01};
  std::string output;
  ASSERT_TRUE(Uncompress(stream.data(), stream.size(), &output).ok());
  EXPECT_EQ(std::string(10, 'a'), output);
}

TEST(LzCodec, OverlappingCopyOffsetBelowLength) {
  // len 11 | literal "abc" | copy-2 len 8 offset 3
  const std::string stream = {11,  (3 - 1) << 2, 'a', 'b', 'c',
                              0x02 | ((8 - 1) << 2), 0x03, 0x00};
  std::string output;
  ASSERT_TRUE(Uncompress(stream.data(), stream.size(), &output).ok());
  EXPECT_EQ("abcabcabcab", output);
}

TEST(LzCodec, CopyEndingAtDeclaredLength) {
  // len 8 | literal "wxyz" | copy-1 len 4 offset 4
  std::string stream = {8, (4 - 1) << 2, 'w', 'x', 'y', 'z',
                        0x01 | ((4 - 4) << 2), 0x04};
  std::string output;
  ASSERT_TRUE(Uncompress(stream.data(), stream.size(), &output).ok());
  EXPECT_EQ("wxyzwxyz", output);

  // The same copy one byte past a declared length of 7 is an overrun.
  stream[0] = 7;
  EXPECT_TRUE(Uncompress(stream.data(), stream.size(), &output).IsCorruption());
  // And a declared length one byte longer is never filled.
  stream[0] = 9;
  EXPECT_TRUE(Uncompress(stream.data(), stream.size(), &output).IsCorruption());
}

TEST(LzCodec, HugeDeclaredLengthRejectedBeforeAllocating) {
  // A 5-byte stream whose preamble claims 0xFFFFFFFF output bytes: no
  // element expands more than 22x, so this is rejected up front.
  const std::string stream = {'\xff', '\xff', '\xff', '\xff', '\x0f'};
  size_t ulen = 0;
  EXPECT_FALSE(GetUncompressedLength(stream.data(), stream.size(), &ulen));
  std::string output;
  EXPECT_TRUE(Uncompress(stream.data(), stream.size(), &output).IsCorruption());
  EXPECT_TRUE(output.empty());
}

// 4 KiB data blocks of 16-byte keys and 100-byte values at the paper's
// 0.5 value compressibility -- what S5 compresses -- plus one input of
// all of them back to back, which crosses the encoder's window rebase.
std::vector<std::string> GoldenCorpus() {
  WorkloadGenerator gen(6000, 16, 100, KeyOrder::kSequential, 301, 0.5);
  std::vector<std::string> blocks;
  BlockBuilder builder(16);
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    builder.Add(gen.Key(i), gen.Value(i));
    if (builder.CurrentSizeEstimate() >= 4096 ||
        i + 1 == gen.num_entries()) {
      blocks.push_back(builder.Finish().ToString());
      builder.Reset();
    }
  }
  std::string all;
  for (const std::string& b : blocks) all += b;
  blocks.push_back(all);
  return blocks;
}

uint64_t Fnv1a64(uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The encoder's exact output is part of the on-disk format's byte
// stability: a faster match loop must find the same matches. The digest
// was recorded with the original byte-at-a-time encoder.
TEST(LzCodec, GoldenEncoderOutput) {
  const std::vector<std::string> corpus = GoldenCorpus();
  uint64_t digest = 0xcbf29ce484222325ull;
  size_t compressed_bytes = 0;
  for (const std::string& input : corpus) {
    std::string compressed;
    Compress(input.data(), input.size(), &compressed);
    compressed_bytes += compressed.size();
    digest = Fnv1a64(digest, compressed);
    std::string back;
    ASSERT_TRUE(Uncompress(compressed.data(), compressed.size(), &back).ok());
    ASSERT_EQ(input, back);
  }
  EXPECT_EQ(699005u, compressed_bytes);
  EXPECT_EQ(0x78cd9de967f3303eull, digest);
}

// Property sweep: random mixes of run lengths, literals and dictionary
// words must always round-trip exactly.
class LzRoundTrip : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LzRoundTrip, RandomMixes) {
  Random rnd(GetParam());
  Xoroshiro128pp payload(GetParam() * 7919);
  static const char* kWords[] = {"alpha", "bravo", "charlie", "delta",
                                 "echo",  "fox",   "golf"};
  for (int round = 0; round < 20; round++) {
    std::string input;
    const int pieces = 1 + rnd.Uniform(200);
    for (int p = 0; p < pieces; p++) {
      switch (rnd.Uniform(3)) {
        case 0:  // run
          input.append(1 + rnd.Uniform(100),
                       static_cast<char>('a' + rnd.Uniform(26)));
          break;
        case 1:  // dictionary word
          input.append(kWords[rnd.Uniform(7)]);
          break;
        default:  // random bytes
          for (uint32_t i = 0, n = rnd.Uniform(64); i < n; i++) {
            input.push_back(static_cast<char>(payload.Next()));
          }
          break;
      }
    }
    ASSERT_EQ(input, RoundTrip(input)) << "seed=" << GetParam()
                                       << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 301u, 0xbeefu,
                                           0xfeedu, 99991u));

}  // namespace
}  // namespace pipelsm::lz
