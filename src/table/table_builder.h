// TableBuilder: streams sorted key/value pairs into one SSTable file.
//
// Data blocks are cut at TableOptions::block_size (uncompressed), each one
// compressed (S5), checksummed (S6) and appended (S7); the index block maps
// a shortened separator key to each data block's handle, exactly the
// SSTable layout in Figure 1(b) of the paper. It is the only writer of
// table files: flushes feed it key/value pairs, compactions feed it blocks
// their compute stage already encoded.
#pragma once

#include <cstdint>
#include <memory>

#include "src/env/env.h"
#include "src/table/format.h"
#include "src/table/table_options.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace pipelsm {

class TableBuilder {
 public:
  // Writes to *file, which must outlive the builder and remain unwritten by
  // anyone else. Does not close the file.
  TableBuilder(const TableOptions& options, WritableFile* file);
  ~TableBuilder();

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  // REQUIRES: key is after any previously added key; !Finish/Abandon yet.
  void Add(const Slice& key, const Slice& value);

  // Appends a data block encoded elsewhere; Add() hands its own blocks to
  // this same call. The index entry and filter for the block are derived
  // from its keys exactly as for Add()ed blocks.
  // REQUIRES: block.first_key is after any previously added key; block.keys
  // holds the block's keys if the table has a filter policy.
  void AddBlock(const EncodedBlock& block);

  Status status() const;

  // Finish building the table (writes filter, metaindex, index, footer).
  Status Finish();

  // Abandon the buffered contents (file cleanup is the caller's job).
  void Abandon();

  uint64_t NumEntries() const;
  // Size of the file generated so far; after Finish(), the final size.
  uint64_t FileSize() const;

 private:
  struct Rep;
  // Encodes and appends the buffered data block, if any.
  void Flush();
  void WriteBlock(const Slice& raw, CompressionType type,
                  BlockHandle* handle);
  void WriteEncodedBlock(const Slice& encoded, BlockHandle* handle);
  bool ok() const { return status().ok(); }

  std::unique_ptr<Rep> rep_;
};

}  // namespace pipelsm
