#include "src/compaction/steps.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "src/table/block.h"
#include "src/table/block_builder.h"
#include "src/table/comparator.h"
#include "src/table/table.h"
#include "src/util/coding.h"

namespace pipelsm {

Status ReadSubTask(const CompactionJobOptions& options,
                   const std::vector<std::shared_ptr<Table>>& inputs,
                   SubTaskPlan plan, RawSubTask* out, StepProfile* profile) {
  out->plan = std::move(plan);
  out->blocks.clear();
  out->blocks.resize(out->plan.blocks.size());

  Stopwatch sw;
  uint64_t bytes = 0;

  // Coalesce contiguous blocks of the same table into one large read —
  // the paper's S1 issues sub-task-sized I/Os, not per-block ones
  // ("the I/O size is equal to the sub-task size", §IV-C). Blocks within
  // a table are laid out back to back, so runs coalesce naturally.
  size_t i = 0;
  const auto& brs = out->plan.blocks;
  while (i < brs.size()) {
    const int table = brs[i].table_index;
    if (table < 0 || table >= static_cast<int>(inputs.size())) {
      return Status::InvalidArgument("sub-task references unknown table");
    }
    size_t j = i + 1;
    uint64_t end =
        brs[i].handle.offset() + brs[i].handle.size() + kBlockTrailerSize;
    while (options.coalesce_reads && j < brs.size() &&
           brs[j].table_index == table && brs[j].handle.offset() == end) {
      end += brs[j].handle.size() + kBlockTrailerSize;
      j++;
    }

    const uint64_t start = brs[i].handle.offset();
    std::string extent;
    Status s = inputs[table]->ReadExtent(start, end - start, &extent);
    if (!s.ok()) return s;
    bytes += extent.size();

    // Slice the extent back into per-block payloads (trailer included).
    for (size_t k = i; k < j; k++) {
      const uint64_t off = brs[k].handle.offset() - start;
      const uint64_t len = brs[k].handle.size() + kBlockTrailerSize;
      out->blocks[k].handle = brs[k].handle;
      out->blocks[k].payload.assign(extent.data() + off, len);
    }
    i = j;
  }
  profile->AddStep(kStepRead, sw.ElapsedNanos(), bytes);
  return Status::OK();
}

namespace {

// Forward-only cursor over one input table's run of decoded blocks within
// a sub-task. Blocks of one table are disjoint and sorted, so chaining
// their iterators yields that table's sorted entries. The current key and
// value are cached so the merge reads them without virtual calls.
class ChainCursor {
 public:
  ChainCursor(const Comparator* icmp, std::vector<std::unique_ptr<Block>> blocks)
      : icmp_(icmp), blocks_(std::move(blocks)) {
    Settle();
  }

  bool Valid() const { return valid_; }
  const Slice& key() const { return key_; }
  const Slice& value() const { return value_; }

  void Next() {
    iter_->Next();
    Settle();
  }

  Status status() const {
    if (!status_.ok()) return status_;
    return iter_ != nullptr ? iter_->status() : Status::OK();
  }

 private:
  // Moves on to the next non-empty block while the current one is
  // exhausted (stopping on error), then caches the entry.
  void Settle() {
    while (iter_ == nullptr || !iter_->Valid()) {
      if ((iter_ != nullptr && !iter_->status().ok()) ||
          next_block_ == blocks_.size()) {
        valid_ = false;
        return;
      }
      iter_.reset(blocks_[next_block_++]->NewIterator(icmp_));
      iter_->SeekToFirst();
    }
    key_ = iter_->key();
    value_ = iter_->value();
    valid_ = key_.size() >= 8;  // the merge compares the 8-byte tag
    if (!valid_) {
      status_ = Status::Corruption("compaction: unparsable internal key");
    }
  }

  const Comparator* icmp_;
  std::vector<std::unique_ptr<Block>> blocks_;
  size_t next_block_ = 0;
  std::unique_ptr<Iterator> iter_;
  bool valid_ = false;
  Status status_;
  Slice key_;
  Slice value_;
};

// InternalKeyComparator::Compare for the bytewise user comparator,
// inlined: user keys by memcmp, then the (sequence, type) tag descending.
// Both keys must be at least 8 bytes long.
inline int CompareBytewiseInternal(const Slice& a, const Slice& b) {
  const Slice ua(a.data(), a.size() - 8);
  const Slice ub(b.data(), b.size() - 8);
  const int r = ua.compare(ub);
  if (r != 0) return r;
  const uint64_t atag = DecodeFixed64(ua.data() + ua.size());
  const uint64_t btag = DecodeFixed64(ub.data() + ub.size());
  return atag > btag ? -1 : (atag < btag ? +1 : 0);
}

}  // namespace

Status ComputeSubTask(const CompactionJobOptions& options, RawSubTask raw,
                      ComputedSubTask* out) {
  const InternalKeyComparator* icmp = options.icmp;
  const Comparator* ucmp = icmp->user_comparator();
  const bool bytewise = ucmp == BytewiseComparator();
  const SubTaskPlan& plan = raw.plan;

  out->seq = plan.seq;
  out->blocks.clear();
  out->entries = 0;
  out->input_bytes = plan.input_bytes;
  out->output_raw_bytes = 0;
  StepProfile* profile = &out->profile;
  profile->subtasks = 1;

  // ---- S2: CHECKSUM — verify every raw block's trailer. ----
  {
    Stopwatch sw;
    uint64_t bytes = 0;
    for (const RawBlock& rb : raw.blocks) {
      Status s = VerifyRawBlock(rb);
      if (!s.ok()) return s;
      bytes += rb.payload.size();
    }
    profile->AddStep(kStepChecksum, sw.ElapsedNanos(), bytes);
  }

  // ---- S3: DECOMPRESS — restore the original key-value blocks. ----
  // Decoded contents are grouped per input table, preserving block order,
  // so each table contributes one sorted run to the merge.
  std::vector<std::vector<std::unique_ptr<Block>>> runs;
  {
    Stopwatch sw;
    uint64_t bytes = 0;
    int max_table = -1;
    for (const BlockRead& br : plan.blocks) {
      max_table = std::max(max_table, br.table_index);
    }
    runs.resize(max_table + 1);
    for (size_t i = 0; i < raw.blocks.size(); i++) {
      BlockContents contents;
      Status s = DecodeRawBlock(raw.blocks[i], &contents);
      if (!s.ok()) return s;
      bytes += contents.data.size();
      runs[plan.blocks[i].table_index].emplace_back(new Block(contents));
    }
    profile->AddStep(kStepDecompress, sw.ElapsedNanos(), bytes);
  }

  // ---- S4: SORT — k-way merge with shadowing/tombstone dropping. ----
  // ---- S5/S6 run per output block inside EncodeBlock. ----
  {
    Stopwatch sort_sw;
    uint64_t sort_ns = 0;
    uint64_t merged_bytes = 0;

    std::vector<std::unique_ptr<ChainCursor>> cursors;
    for (auto& run : runs) {
      if (!run.empty()) {
        cursors.emplace_back(new ChainCursor(icmp, std::move(run)));
      }
    }
    auto less = [&](const Slice& a, const Slice& b) {
      return bytewise ? CompareBytewiseInternal(a, b) < 0
                      : icmp->Compare(a, b) < 0;
    };

    BlockBuilder builder(options.block_restart_interval);
    EncodedBlock block;  // keys and count of `builder`; payload at flush
    std::string current_user_key;
    bool has_current_user_key = false;
    bool first_occurrence = true;  // no newer version of this key seen yet
    SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
    // Only user keys in (lo, hi] belong to this sub-task. The merged
    // stream is sorted, so lo is tested until the first key above it and
    // the first key above hi ends the sub-task.
    bool above_lo = plan.unbounded_lo;

    auto flush_block = [&]() {
      if (builder.empty()) return;
      // S4 time has been accumulating; pause it across S5/S6.
      sort_ns += sort_sw.ElapsedNanos();
      const Slice last_key = builder.last_key();
      block.last_key.assign(last_key.data(), last_key.size());
      const Slice raw_block = builder.Finish();
      EncodeBlock(options.compression, raw_block, &block.payload, profile);
      out->output_raw_bytes += raw_block.size();
      out->blocks.push_back(std::move(block));
      block = EncodedBlock{};
      builder.Reset();
      sort_sw.Restart();
    };

    while (true) {
      // Pick the smallest current key among the table runs.
      ChainCursor* best = nullptr;
      for (auto& c : cursors) {
        if (c->Valid() && (best == nullptr || less(c->key(), best->key()))) {
          best = c.get();
        }
      }
      if (best == nullptr) break;

      const Slice& key = best->key();
      ParsedInternalKey parsed;
      if (!ParseInternalKey(key, &parsed)) {
        return Status::Corruption("compaction: unparsable internal key");
      }

      if (!plan.unbounded_hi &&
          ucmp->Compare(parsed.user_key, plan.hi_user_key) > 0) {
        break;
      }
      if (!above_lo) {
        above_lo = ucmp->Compare(parsed.user_key, plan.lo_user_key) > 0;
      }

      bool drop = !above_lo;
      if (above_lo) {
        if (!has_current_user_key ||
            (bytewise ? parsed.user_key != Slice(current_user_key)
                      : ucmp->Compare(parsed.user_key, current_user_key) !=
                            0)) {
          // First occurrence of this user key.
          current_user_key.assign(parsed.user_key.data(),
                                  parsed.user_key.size());
          has_current_user_key = true;
          first_occurrence = true;
          last_sequence_for_key = kMaxSequenceNumber;
        }

        if (!first_occurrence &&
            last_sequence_for_key <= options.smallest_snapshot) {
          // Hidden by a newer entry for the same user key.
          drop = true;
        } else if (parsed.type == kTypeDeletion &&
                   parsed.sequence <= options.smallest_snapshot &&
                   plan.drop_deletions) {
          // A tombstone with no data below it and no snapshot that could
          // still observe the deleted key: drop it.
          drop = true;
        }
        last_sequence_for_key = parsed.sequence;
        first_occurrence = false;

        if (drop && options.on_drop_entry) {
          options.on_drop_entry(parsed.type, best->value());
        }
      }

      if (!drop) {
        if (builder.empty()) {
          block.first_key.assign(key.data(), key.size());
        }
        builder.Add(key, best->value());
        block.entries++;
        if (options.filter_policy != nullptr) {
          PutLengthPrefixedSlice(&block.keys, key);
        }
        out->entries++;
        merged_bytes += key.size() + best->value().size();
        if (builder.CurrentSizeEstimate() >= options.block_size) {
          flush_block();
        }
      }

      best->Next();
      if (!best->status().ok()) return best->status();
    }
    for (const auto& c : cursors) {
      if (!c->status().ok()) return c->status();
    }
    flush_block();
    if (!out->blocks.empty()) {
      out->smallest_key = out->blocks.front().first_key;
      out->largest_key = out->blocks.back().last_key;
    }
    sort_ns += sort_sw.ElapsedNanos();
    profile->AddStep(kStepSort, sort_ns, merged_bytes);
  }

  if (options.time_dilation > 1.0) {
    // Slow-motion mode: stretch this sub-task's compute phase uniformly.
    // The extra time is spent sleeping, so concurrent compute workers
    // overlap even on a single physical core.
    const uint64_t real_ns = profile->ComputeNanos();
    const uint64_t extra =
        static_cast<uint64_t>(real_ns * (options.time_dilation - 1.0));
    std::this_thread::sleep_for(std::chrono::nanoseconds(extra));
    for (CompactionStep s : {kStepChecksum, kStepDecompress, kStepSort,
                             kStepCompress, kStepRechecksum}) {
      profile->nanos[s] = static_cast<uint64_t>(profile->nanos[s] *
                                                options.time_dilation);
    }
  }

  return Status::OK();
}

DeviceProfile DilatedProfile(DeviceProfile profile, double dilation) {
  if (dilation > 0 && dilation != 1.0) {
    profile.read_position_us *= dilation;
    profile.write_position_us *= dilation;
    profile.read_bw_bps /= dilation;
    profile.write_bw_bps /= dilation;
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-x%.3g", dilation);
    profile.name += suffix;
  }
  return profile;
}

}  // namespace pipelsm
