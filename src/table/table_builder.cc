#include "src/table/table_builder.h"

#include <cassert>

#include "src/table/block_builder.h"
#include "src/table/filter_block.h"
#include "src/table/filter_policy.h"
#include "src/util/coding.h"

namespace pipelsm {

struct TableBuilder::Rep {
  Rep(const TableOptions& opt, WritableFile* f)
      : options(opt),
        file(f),
        data_block(opt.block_restart_interval),
        index_block(1),
        num_entries(0),
        closed(false),
        filter_block(opt.filter_policy == nullptr
                         ? nullptr
                         : new FilterBlockBuilder(opt.filter_policy,
                                                  opt.filter_partition_bytes)),
        pending_index_entry(false) {}

  TableOptions options;
  WritableFile* file;
  uint64_t offset = 0;
  Status status;
  BlockBuilder data_block;
  EncodedBlock block;  // keys and count of data_block; payload at Flush()
  BlockBuilder index_block;
  std::string last_key;  // last key of the last appended block
  uint64_t num_entries;  // in appended blocks
  bool closed;  // Either Finish() or Abandon() has been called.
  std::unique_ptr<FilterBlockBuilder> filter_block;

  // Index entries are deferred until the first key of the next block is
  // seen, so a shortened separator key can be used.
  bool pending_index_entry;
  BlockHandle pending_handle;

  std::string encoded_output;
};

TableBuilder::TableBuilder(const TableOptions& options, WritableFile* file)
    : rep_(new Rep(options, file)) {
  if (rep_->filter_block != nullptr) {
    rep_->filter_block->StartBlock(0);
  }
}

TableBuilder::~TableBuilder() {
  assert(rep_->closed);  // Catch forgotten Finish()/Abandon()
}

void TableBuilder::Add(const Slice& key, const Slice& value) {
  Rep* r = rep_.get();
  assert(!r->closed);
  if (!ok()) return;
  EncodedBlock& b = r->block;
  assert(NumEntries() == 0 ||
         r->options.comparator->Compare(
             key, r->data_block.empty() ? Slice(r->last_key)
                                        : Slice(b.last_key)) > 0);

  if (r->data_block.empty()) {
    b.first_key.assign(key.data(), key.size());
  }
  b.last_key.assign(key.data(), key.size());
  if (r->filter_block != nullptr) {
    PutLengthPrefixedSlice(&b.keys, key);
  }
  b.entries++;
  r->data_block.Add(key, value);

  const size_t estimated_block_size = r->data_block.CurrentSizeEstimate();
  if (estimated_block_size >= r->options.block_size) {
    Flush();
  }
}

void TableBuilder::Flush() {
  Rep* r = rep_.get();
  assert(!r->closed);
  if (!ok()) return;
  if (r->data_block.empty()) return;
  EncodedBlock& b = r->block;
  EncodeBlock(r->options.compression, r->data_block.Finish(), &b.payload);
  r->data_block.Reset();
  AddBlock(b);
  b.keys.clear();
  b.entries = 0;
}

void TableBuilder::AddBlock(const EncodedBlock& block) {
  Rep* r = rep_.get();
  assert(!r->closed);
  if (!ok()) return;

  if (r->pending_index_entry) {
    assert(r->options.comparator->Compare(block.first_key, r->last_key) > 0);
    r->options.comparator->FindShortestSeparator(&r->last_key,
                                                 block.first_key);
    std::string handle_encoding;
    r->pending_handle.EncodeTo(&handle_encoding);
    r->index_block.Add(r->last_key, Slice(handle_encoding));
    r->pending_index_entry = false;
  }

  if (r->filter_block != nullptr) {
    // Blocks starting in the same filter window share one filter: the
    // builder only generates it once a later block starts past the window.
    Slice keys(block.keys);
    Slice key;
    while (GetLengthPrefixedSlice(&keys, &key)) {
      r->filter_block->AddKey(key);
    }
  }

  WriteEncodedBlock(block.payload, &r->pending_handle);
  if (ok()) {
    r->pending_index_entry = true;
    r->last_key = block.last_key;
    r->num_entries += block.entries;
    r->status = r->file->Flush();
  }
  if (r->filter_block != nullptr) {
    r->filter_block->StartBlock(r->offset);
  }
}

void TableBuilder::WriteBlock(const Slice& raw, CompressionType type,
                              BlockHandle* handle) {
  Rep* r = rep_.get();
  EncodeBlock(type, raw, &r->encoded_output);
  WriteEncodedBlock(r->encoded_output, handle);
}

void TableBuilder::WriteEncodedBlock(const Slice& encoded,
                                     BlockHandle* handle) {
  // File format contains a sequence of blocks where each block has:
  //    block_data: uint8[n]
  //    type: uint8
  //    crc: uint32
  assert(encoded.size() >= kBlockTrailerSize);
  Rep* r = rep_.get();
  handle->set_offset(r->offset);
  handle->set_size(encoded.size() - kBlockTrailerSize);
  r->status = r->file->Append(encoded);
  if (r->status.ok()) {
    r->offset += encoded.size();
  }
}

Status TableBuilder::status() const { return rep_->status; }

Status TableBuilder::Finish() {
  Rep* r = rep_.get();
  Flush();
  assert(!r->closed);
  r->closed = true;

  BlockHandle filter_block_handle, metaindex_block_handle, index_block_handle;

  // Write filter block.
  if (ok() && r->filter_block != nullptr) {
    WriteBlock(r->filter_block->Finish(), CompressionType::kNoCompression,
               &filter_block_handle);
  }

  // Write metaindex block.
  if (ok()) {
    BlockBuilder meta_index_block(r->options.block_restart_interval);
    if (r->filter_block != nullptr) {
      std::string key = "filter.";
      key.append(r->options.filter_policy->Name());
      std::string handle_encoding;
      filter_block_handle.EncodeTo(&handle_encoding);
      meta_index_block.Add(key, handle_encoding);
    }
    WriteBlock(meta_index_block.Finish(), r->options.compression,
               &metaindex_block_handle);
  }

  // Write index block.
  if (ok()) {
    if (r->pending_index_entry) {
      r->options.comparator->FindShortSuccessor(&r->last_key);
      std::string handle_encoding;
      r->pending_handle.EncodeTo(&handle_encoding);
      r->index_block.Add(r->last_key, Slice(handle_encoding));
      r->pending_index_entry = false;
    }
    WriteBlock(r->index_block.Finish(), r->options.compression,
               &index_block_handle);
  }

  // Write footer.
  if (ok()) {
    Footer footer;
    footer.set_metaindex_handle(metaindex_block_handle);
    footer.set_index_handle(index_block_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    r->status = r->file->Append(footer_encoding);
    if (r->status.ok()) {
      r->offset += footer_encoding.size();
    }
  }
  return r->status;
}

void TableBuilder::Abandon() {
  Rep* r = rep_.get();
  assert(!r->closed);
  r->closed = true;
}

uint64_t TableBuilder::NumEntries() const {
  return rep_->num_entries + rep_->block.entries;
}

uint64_t TableBuilder::FileSize() const { return rep_->offset; }

}  // namespace pipelsm
