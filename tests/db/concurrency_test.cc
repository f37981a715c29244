// Concurrency: readers and iterators racing with writes and live
// background compactions, for the pipelined executors.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/db/db.h"
#include "src/env/sim_env.h"
#include "src/workload/generator.h"

namespace pipelsm {
namespace {

class ConcurrencyTest : public ::testing::TestWithParam<CompactionMode> {
 protected:
  ConcurrencyTest() {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.compaction_mode = GetParam();
    options_.compute_parallelism =
        GetParam() == CompactionMode::kCPPCP ? 2 : 1;
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 64 << 10;
    options_.subtask_bytes = 16 << 10;
  }

  void Open() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  SimEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(ConcurrencyTest, ReadersDuringFillSeeConsistentValues) {
  Open();
  const uint64_t kEntries = 5000;
  WorkloadGenerator gen(kEntries, 16, 100, KeyOrder::kRandom);

  std::atomic<uint64_t> written{0};
  std::atomic<bool> fail{false};

  std::thread writer([&] {
    for (uint64_t i = 0; i < kEntries; i++) {
      if (!db_->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok()) {
        fail.store(true);
        return;
      }
      written.store(i + 1, std::memory_order_release);
    }
  });

  // Reader: any index < written must be present with the exact value.
  std::thread reader([&] {
    Random rnd(99);
    std::string value;
    while (written.load(std::memory_order_acquire) < kEntries &&
           !fail.load()) {
      const uint64_t upper = written.load(std::memory_order_acquire);
      if (upper == 0) continue;
      const uint64_t idx = rnd.Next() % upper;
      Status s = db_->Get(ReadOptions(), gen.Key(idx), &value);
      if (!s.ok() || value != gen.Value(idx)) {
        ADD_FAILURE() << "inconsistent read at " << idx << ": "
                      << s.ToString();
        fail.store(true);
        return;
      }
    }
  });

  // Scanner: iterators snapshot; each scan must be strictly sorted.
  std::thread scanner([&] {
    while (written.load(std::memory_order_acquire) < kEntries &&
           !fail.load()) {
      std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        std::string k = it->key().ToString();
        if (!prev.empty() && !(prev < k)) {
          ADD_FAILURE() << "unsorted iterator: " << prev << " !< " << k;
          fail.store(true);
          return;
        }
        prev = std::move(k);
      }
      if (!it->status().ok()) {
        ADD_FAILURE() << it->status().ToString();
        fail.store(true);
        return;
      }
    }
  });

  writer.join();
  reader.join();
  scanner.join();
  ASSERT_FALSE(fail.load());

  ASSERT_TRUE(db_->WaitForCompactions().ok());
  std::string value;
  for (uint64_t i = 0; i < kEntries; i += 97) {
    ASSERT_TRUE(db_->Get(ReadOptions(), gen.Key(i), &value).ok());
    ASSERT_EQ(gen.Value(i), value);
  }
}

TEST_P(ConcurrencyTest, IteratorPinnedAcrossManualCompaction) {
  Open();
  WorkloadGenerator gen(2000, 16, 100, KeyOrder::kSequential);
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok());
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  // Open an iterator, then compact + overwrite everything underneath it.
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToFirst();
  for (uint64_t i = 0; i < gen.num_entries(); i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), gen.Key(i), "overwritten").ok());
  }
  db_->CompactRange(nullptr, nullptr);

  // The iterator still sees the pre-overwrite values (its snapshot), and
  // the obsolete files it pins must not have been deleted under it.
  uint64_t count = 0;
  for (; it->Valid(); it->Next()) {
    ASSERT_EQ(gen.Value(count), it->value().ToString()) << count;
    count++;
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(gen.num_entries(), count);

  // New reads see the new values.
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), gen.Key(0), &value).ok());
  EXPECT_EQ("overwritten", value);
}

INSTANTIATE_TEST_SUITE_P(Modes, ConcurrencyTest,
                         ::testing::Values(CompactionMode::kSCP,
                                           CompactionMode::kPCP,
                                           CompactionMode::kCPPCP),
                         [](const ::testing::TestParamInfo<CompactionMode>& i) {
                           switch (i.param) {
                             case CompactionMode::kSCP: return "SCP";
                             case CompactionMode::kPCP: return "PCP";
                             case CompactionMode::kSPPCP: return "SPPCP";
                             case CompactionMode::kCPPCP: return "CPPCP";
                             case CompactionMode::kAuto: return "auto";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace pipelsm
