// On-disk SSTable framing: block handles, footer, and the shared
// read-verify-decompress path.
//
// Layout (Figure 1(b) of the paper, concretized as the LevelDB format):
//
//   [data block 1] [data block 2] ... [data block N]
//   [filter block]                       (optional)
//   [metaindex block]
//   [index block]
//   [footer: metaindex handle, index handle, magic]   (fixed size)
//
// Every block is followed by a 5-byte trailer: 1 compression-type byte and
// a 4-byte masked CRC32C over (block contents + type byte). The trailer is
// what the paper's S2/S6 steps verify/produce.
#pragma once

#include <cstdint>
#include <string>

#include "src/compress/codec.h"
#include "src/env/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace pipelsm {

// A pointer to the extent of a block within a file.
class BlockHandle {
 public:
  // Maximum encoding length of a BlockHandle.
  enum { kMaxEncodedLength = 10 + 10 };

  BlockHandle() : offset_(~0ull), size_(~0ull) {}

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  uint64_t offset_;
  uint64_t size_;
};

// Footer at the tail of every table file.
class Footer {
 public:
  enum { kEncodedLength = 2 * BlockHandle::kMaxEncodedLength + 8 };

  const BlockHandle& metaindex_handle() const { return metaindex_handle_; }
  void set_metaindex_handle(const BlockHandle& h) { metaindex_handle_ = h; }
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle metaindex_handle_;
  BlockHandle index_handle_;
};

constexpr uint64_t kTableMagicNumber = 0x70697065'6c736d31ull;  // "pipelsm1"

// 1-byte compression type + 4-byte masked crc32c.
constexpr size_t kBlockTrailerSize = 5;

struct BlockContents {
  Slice data;            // actual contents of the block
  bool cachable;         // true iff data is heap-allocated
  bool heap_allocated;   // true iff caller should delete[] data.data()
};

// Reads the block identified by `handle`, verifies the trailer CRC and
// decompresses — i.e. performs S1+S2+S3 of the compaction procedure for one
// block. `verify_checksum` lets read paths opt out.
Status ReadBlock(RandomAccessFile* file, const BlockHandle& handle,
                 bool verify_checksum, BlockContents* result);

// The raw compressed payload of one block, as moved between pipeline
// stages: the compaction executors read raw bytes in the read stage (S1)
// and verify/decompress in the compute stage (S2/S3), so the two halves of
// ReadBlock are also exposed separately.
struct RawBlock {
  std::string payload;   // compressed bytes + 5-byte trailer
  BlockHandle handle;    // where it came from
};

// S1 only: fetch payload + trailer bytes, no verification, no decompression.
Status ReadRawBlock(RandomAccessFile* file, const BlockHandle& handle,
                    RawBlock* out);

// S2: verify a raw block's trailer CRC.
Status VerifyRawBlock(const RawBlock& raw);

// S3: decompress a raw block's payload straight into a new heap buffer
// that *result points at (heap_allocated: hand it to a Block, which then
// owns it). ReadBlock decodes through the same path.
Status DecodeRawBlock(const RawBlock& raw, BlockContents* result);

// S5 + S6, the inverse of DecodeRawBlock + VerifyRawBlock and the only
// producer of block trailers: replaces *out with `raw` compressed by
// `compression` (stored raw when that does not pay off) followed by the
// type byte and the masked CRC32C. When `profile` is non-null the two
// halves are timed under kStepCompress and kStepRechecksum.
void EncodeBlock(CompressionType compression, const Slice& raw,
                 std::string* out, StepProfile* profile = nullptr);

// One data block ready to be appended to a table file, with what the
// table needs to index and filter it. TableBuilder::Add() cuts and
// encodes its own; the compaction compute stage ships them to S7.
struct EncodedBlock {
  std::string payload;    // EncodeBlock output: contents + trailer
  std::string first_key;  // the block's first key
  std::string last_key;   // the block's last key
  // The block's keys, each length-prefixed, for the table's filter
  // block; empty when the table has no filter policy.
  std::string keys;
  uint64_t entries = 0;
};

}  // namespace pipelsm
