// BlockBuilder: builds the prefix-compressed key/value block format.
//
// Keys are delta-encoded against their predecessor; every `restart
// interval` keys a full key is stored and its offset recorded so a block
// iterator can binary-search the restart array.
//
// Entry:   shared_len varint32 | non_shared_len varint32 |
//          value_len varint32 | key_delta | value
// Trailer: restart offsets (fixed32 each) | num_restarts (fixed32)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/slice.h"

namespace pipelsm {

class Comparator;

class BlockBuilder {
 public:
  explicit BlockBuilder(int restart_interval);

  BlockBuilder(const BlockBuilder&) = delete;
  BlockBuilder& operator=(const BlockBuilder&) = delete;

  // Reset the contents as if the BlockBuilder was just constructed.
  void Reset();

  // REQUIRES: key is larger than any previously added key.
  void Add(const Slice& key, const Slice& value);

  // Finish building the block and return a slice that refers to the
  // block contents, valid until Reset().
  Slice Finish();

  // Estimate of the uncompressed size of the block under construction.
  size_t CurrentSizeEstimate() const;

  bool empty() const { return buffer_.empty(); }

  // The last key added since the last Reset(); empty if none.
  Slice last_key() const { return Slice(last_key_); }

 private:
  const int restart_interval_;
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  int counter_;    // entries emitted since last restart
  bool finished_;
  std::string last_key_;
};

}  // namespace pipelsm
