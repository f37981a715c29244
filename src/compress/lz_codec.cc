#include "src/compress/lz_codec.h"

#include <bit>
#include <cstdint>
#include <cstring>

#include "src/util/coding.h"

namespace pipelsm::lz {

namespace {

constexpr int kMinMatch = 4;
constexpr size_t kMaxLiteralRun = 1u << 16;  // flush literals in runs <= 64K
constexpr int kHashBits = 14;
constexpr size_t kHashTableSize = 1u << kHashBits;
// No element yields more than 64/3 output bytes per input byte (a 3-byte
// copy-2 of length 64), so a longer declared length is corrupt.
constexpr size_t kMaxExpansion = 22;

inline uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t HashBytes(uint32_t bytes) {
  return (bytes * 0x1e35a7bdu) >> (32 - kHashBits);
}

// Length of the common prefix of [s1, s1_limit) and s2, where s2 < s1.
// Compares 8 bytes at a time; the first differing byte is the lowest set
// byte of the XOR on a little-endian load.
inline size_t MatchLength(const char* s1, const char* s2,
                          const char* s1_limit) {
  const char* const start = s1;
  if constexpr (std::endian::native == std::endian::little) {
    while (s1_limit - s1 >= 8) {
      const uint64_t x = Load64(s1) ^ Load64(s2);
      if (x != 0) {
        return static_cast<size_t>(s1 - start) + std::countr_zero(x) / 8;
      }
      s1 += 8;
      s2 += 8;
    }
  }
  while (s1 < s1_limit && *s1 == *s2) {
    s1++;
    s2++;
  }
  return static_cast<size_t>(s1 - start);
}

// Emit a literal run of [begin, end) at op; returns the new end.
char* EmitLiteral(char* op, const char* begin, const char* end) {
  while (begin < end) {
    size_t len = static_cast<size_t>(end - begin);
    if (len > kMaxLiteralRun) len = kMaxLiteralRun;
    size_t n = len - 1;
    if (n < 60) {
      *op++ = static_cast<char>(n << 2);
    } else if (n < 256) {
      *op++ = static_cast<char>(60 << 2);
      *op++ = static_cast<char>(n);
    } else {
      *op++ = static_cast<char>(61 << 2);
      *op++ = static_cast<char>(n & 0xff);
      *op++ = static_cast<char>((n >> 8) & 0xff);
    }
    std::memcpy(op, begin, len);
    op += len;
    begin += len;
  }
  return op;
}

// Emit one copy element of length <= 64, offset < 2^32.
char* EmitCopyUpTo64(char* op, size_t offset, size_t len) {
  if (len >= 4 && len <= 11 && offset < 2048) {
    *op++ = static_cast<char>(0x01 | ((len - 4) << 2) | ((offset >> 8) << 5));
    *op++ = static_cast<char>(offset & 0xff);
  } else if (offset < 65536) {
    *op++ = static_cast<char>(0x02 | ((len - 1) << 2));
    *op++ = static_cast<char>(offset & 0xff);
    *op++ = static_cast<char>((offset >> 8) & 0xff);
  } else {
    *op++ = static_cast<char>(0x03 | ((len - 1) << 2));
    *op++ = static_cast<char>(offset & 0xff);
    *op++ = static_cast<char>((offset >> 8) & 0xff);
    *op++ = static_cast<char>((offset >> 16) & 0xff);
    *op++ = static_cast<char>((offset >> 24) & 0xff);
  }
  return op;
}

char* EmitCopy(char* op, size_t offset, size_t len) {
  while (len > 64) {
    op = EmitCopyUpTo64(op, offset, 64);
    len -= 64;
  }
  if (len > 0) {
    // Residuals < 4 bytes fall through to copy-2/copy-4 inside
    // EmitCopyUpTo64 (their 6-bit length field covers 1..64).
    op = EmitCopyUpTo64(op, offset, len);
  }
  return op;
}

// Compresses input[0,n-1] (n > 0) into op; returns the end of the output.
char* CompressBody(const char* input, size_t n, char* op) {
  if (n < kMinMatch + 4) {
    return EmitLiteral(op, input, input + n);
  }

  uint16_t table[kHashTableSize];
  std::memset(table, 0, sizeof(table));
  // table stores positions + 1 relative to `base`, window of 64K. For inputs
  // larger than 64K we rebase the window as we go; offsets are still emitted
  // absolutely relative to the current position so copy-4 handles them.
  const char* const base = input;
  const char* ip = input;
  const char* const ip_end = input + n;
  const char* const ip_limit = ip_end - kMinMatch;  // last valid match start
  const char* next_emit = input;  // first unemitted literal byte

  // For inputs > 64K the uint16_t table entries would alias; keep a separate
  // epoch base that slides forward.
  size_t window_base = 0;  // offset of table's position origin from `base`

  while (ip <= ip_limit) {
    // Slide window so (ip - base - window_base) fits in 16 bits with slack.
    const size_t ip_off = static_cast<size_t>(ip - base);
    if (ip_off - window_base >= 0xF000) {
      window_base = ip_off;
      std::memset(table, 0, sizeof(table));
    }

    const uint32_t bytes = Load32(ip);
    const uint32_t h = HashBytes(bytes);
    const uint16_t slot = table[h];
    table[h] = static_cast<uint16_t>(ip_off - window_base + 1);

    if (slot != 0) {
      const char* candidate = base + window_base + slot - 1;
      if (candidate < ip && Load32(candidate) == bytes) {
        const size_t match_len =
            kMinMatch +
            MatchLength(ip + kMinMatch, candidate + kMinMatch, ip_end);
        const size_t offset = static_cast<size_t>(ip - candidate);
        op = EmitLiteral(op, next_emit, ip);
        op = EmitCopy(op, offset, match_len);
        ip += match_len;
        next_emit = ip;
        // Refresh hash at the end of the match to find chained matches.
        if (ip <= ip_limit) {
          const size_t off2 = static_cast<size_t>(ip - 1 - base);
          if (off2 >= window_base) {
            table[HashBytes(Load32(ip - 1))] =
                static_cast<uint16_t>(off2 - window_base + 1);
          }
        }
        continue;
      }
    }
    ip++;
  }
  return EmitLiteral(op, next_emit, ip_end);
}

}  // namespace

size_t MaxCompressedLength(size_t n) {
  // Compress writes into a buffer of this size unchecked, so it must
  // hold for every input. A copy never expands (at most 3 bytes for 4 or
  // more) and pays back the 1-byte tag of the literal run before it, so
  // the worst case is literals: 1-3 tag bytes per run plus the 5-byte
  // preamble. 32 + n + n/6 is a comfortable bound.
  return 32 + n + n / 6;
}

void Compress(const char* input, size_t n, std::string* output) {
  output->resize(MaxCompressedLength(n));
  char* const dst = output->data();
  char* op = EncodeVarint32(dst, static_cast<uint32_t>(n));
  if (n > 0) op = CompressBody(input, n, op);
  output->resize(static_cast<size_t>(op - dst));
}

bool GetUncompressedLength(const char* input, size_t n, size_t* result) {
  uint32_t len;
  const char* p = GetVarint32Ptr(input, input + n, &len);
  if (p == nullptr || len > kMaxExpansion * n) return false;
  *result = len;
  return true;
}

Status UncompressTo(const char* input, size_t n, char* dst, size_t ulen) {
  uint32_t declared;
  const char* ip = GetVarint32Ptr(input, input + n, &declared);
  if (ip == nullptr || declared != ulen) {
    return Status::Corruption("lz: bad uncompressed-length preamble");
  }
  const char* const ip_end = input + n;
  char* op = dst;
  char* const op_end = dst + ulen;

  while (ip < ip_end) {
    const uint8_t tag = static_cast<uint8_t>(*ip++);
    const uint8_t kind = tag & 0x03;
    if (kind == 0x00) {
      // Literal.
      size_t len = (tag >> 2) + 1;
      if (len > 60) {
        const size_t extra = len - 60;  // 1 or 2 length bytes
        if (extra > 2 || extra > static_cast<size_t>(ip_end - ip)) {
          return Status::Corruption("lz: truncated literal length");
        }
        size_t n2 = 0;
        for (size_t i = 0; i < extra; i++) {
          n2 |= static_cast<size_t>(static_cast<uint8_t>(ip[i])) << (8 * i);
        }
        len = n2 + 1;
        ip += extra;
      }
      if (len > static_cast<size_t>(ip_end - ip)) {
        return Status::Corruption("lz: truncated literal data");
      }
      if (len > static_cast<size_t>(op_end - op)) {
        return Status::Corruption("lz: output exceeds declared length");
      }
      std::memcpy(op, ip, len);
      op += len;
      ip += len;
    } else {
      size_t len;
      size_t offset;
      if (kind == 0x01) {
        len = ((tag >> 2) & 0x07) + 4;
        if (ip >= ip_end) return Status::Corruption("lz: truncated copy-1");
        offset = (static_cast<size_t>(tag >> 5) << 8) |
                 static_cast<uint8_t>(*ip++);
      } else if (kind == 0x02) {
        len = (tag >> 2) + 1;
        if (ip_end - ip < 2) return Status::Corruption("lz: truncated copy-2");
        offset = static_cast<uint8_t>(ip[0]) |
                 (static_cast<size_t>(static_cast<uint8_t>(ip[1])) << 8);
        ip += 2;
      } else {
        len = (tag >> 2) + 1;
        if (ip_end - ip < 4) return Status::Corruption("lz: truncated copy-4");
        offset = static_cast<uint8_t>(ip[0]) |
                 (static_cast<size_t>(static_cast<uint8_t>(ip[1])) << 8) |
                 (static_cast<size_t>(static_cast<uint8_t>(ip[2])) << 16) |
                 (static_cast<size_t>(static_cast<uint8_t>(ip[3])) << 24);
        ip += 4;
      }
      if (offset == 0 || offset > static_cast<size_t>(op - dst)) {
        return Status::Corruption("lz: copy offset out of range");
      }
      if (len > static_cast<size_t>(op_end - op)) {
        return Status::Corruption("lz: output overrun");
      }
      const char* src = op - offset;
      if (offset >= len) {
        std::memcpy(op, src, len);
      } else {
        // Overlapping copy, the RLE case: each byte may be one this copy
        // has just written, so copy forward one byte at a time.
        for (size_t i = 0; i < len; i++) op[i] = src[i];
      }
      op += len;
    }
  }
  if (op != op_end) {
    return Status::Corruption("lz: output shorter than declared length");
  }
  return Status::OK();
}

Status Uncompress(const char* input, size_t n, std::string* output) {
  size_t ulen;
  if (!GetUncompressedLength(input, n, &ulen)) {
    output->clear();
    return Status::Corruption("lz: bad uncompressed-length preamble");
  }
  output->resize(ulen);
  Status s = UncompressTo(input, n, output->data(), ulen);
  if (!s.ok()) output->clear();
  return s;
}

}  // namespace pipelsm::lz
