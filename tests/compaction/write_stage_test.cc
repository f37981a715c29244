// WriteStage in isolation: ordered consumption, reorder buffering for
// out-of-order producers (the C-PPCP case), file rotation, gap detection.
#include "src/compaction/write_stage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "src/compaction/types.h"
#include "src/env/sim_env.h"
#include "src/workload/table_gen.h"
#include "src/table/block_builder.h"

namespace pipelsm {
namespace {

// Builds a valid one-entry encoded block for key k.
EncodedBlock MakeBlock(const std::string& user_key, uint64_t seq) {
  std::string ikey;
  AppendInternalKey(&ikey, ParsedInternalKey(user_key, seq, kTypeValue));

  BlockBuilder builder(16);
  builder.Add(ikey, "value-" + user_key);
  Slice raw = builder.Finish();

  EncodedBlock eb;
  eb.first_key = ikey;
  eb.last_key = ikey;
  eb.entries = 1;
  EncodeBlock(CompressionType::kNoCompression, raw, &eb.payload);
  return eb;
}

ComputedSubTask MakeTask(uint64_t seq, const std::string& user_key) {
  ComputedSubTask t;
  t.seq = seq;
  t.blocks.push_back(MakeBlock(user_key, 100 + seq));
  t.smallest_key = t.blocks[0].first_key;
  t.largest_key = t.blocks[0].last_key;
  t.entries = 1;
  return t;
}

class WriteStageTest : public ::testing::Test {
 protected:
  WriteStageTest() : sink_(&env_, "/ws") {
    job_.icmp = &icmp_;
    job_.max_output_file_size = 1 << 20;
  }

  SimEnv env_;
  InternalKeyComparator icmp_{BytewiseComparator()};
  CompactionJobOptions job_;
  CountingSink sink_;
};

TEST_F(WriteStageTest, InOrderPassesThrough) {
  WriteStage ws(job_, &sink_);
  for (uint64_t i = 0; i < 5; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key-%03llu",
                  static_cast<unsigned long long>(i));
    ASSERT_TRUE(ws.PushReordered(MakeTask(i, key)).ok());
  }
  ASSERT_TRUE(ws.Close().ok());
  ASSERT_EQ(1u, sink_.outputs().size());
  EXPECT_EQ(5u, sink_.outputs()[0].entries);
  EXPECT_EQ("key-000", sink_.outputs()[0].smallest.user_key().ToString());
  EXPECT_EQ("key-004", sink_.outputs()[0].largest.user_key().ToString());
}

TEST_F(WriteStageTest, OutOfOrderIsReordered) {
  WriteStage ws(job_, &sink_);
  std::vector<uint64_t> order = {3, 0, 4, 1, 2};
  for (uint64_t i : order) {
    char key[16];
    std::snprintf(key, sizeof(key), "key-%03llu",
                  static_cast<unsigned long long>(i));
    ASSERT_TRUE(ws.PushReordered(MakeTask(i, key)).ok());
  }
  ASSERT_TRUE(ws.Close().ok());
  ASSERT_EQ(1u, sink_.outputs().size());
  EXPECT_EQ(5u, sink_.outputs()[0].entries);
  // Keys ended up in key order despite arrival order.
  EXPECT_EQ("key-000", sink_.outputs()[0].smallest.user_key().ToString());
  EXPECT_EQ("key-004", sink_.outputs()[0].largest.user_key().ToString());
}

TEST_F(WriteStageTest, RandomPermutationsReorder) {
  std::mt19937 rng(7);
  for (int round = 0; round < 10; round++) {
    CountingSink sink(&env_, "/ws-" + std::to_string(round));
    WriteStage ws(job_, &sink);
    std::vector<uint64_t> order(20);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    for (uint64_t i : order) {
      char key[16];
      std::snprintf(key, sizeof(key), "key-%03llu",
                    static_cast<unsigned long long>(i));
      ASSERT_TRUE(ws.PushReordered(MakeTask(i, key)).ok());
    }
    ASSERT_TRUE(ws.Close().ok());
    uint64_t entries = 0;
    for (const auto& m : sink.outputs()) entries += m.entries;
    EXPECT_EQ(20u, entries);
  }
}

TEST_F(WriteStageTest, GapAtCloseIsError) {
  WriteStage ws(job_, &sink_);
  ASSERT_TRUE(ws.PushReordered(MakeTask(0, "key-000")).ok());
  ASSERT_TRUE(ws.PushReordered(MakeTask(2, "key-002")).ok());  // gap: 1
  Status s = ws.Close();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
}

TEST_F(WriteStageTest, RotatesAtFileSizeLimit) {
  job_.max_output_file_size = 512;  // tiny: rotate every few blocks
  WriteStage ws(job_, &sink_);
  for (uint64_t i = 0; i < 40; i++) {
    char key[20];
    std::snprintf(key, sizeof(key), "key-%06llu",
                  static_cast<unsigned long long>(i));
    ASSERT_TRUE(ws.PushReordered(MakeTask(i, key)).ok());
  }
  ASSERT_TRUE(ws.Close().ok());
  EXPECT_GT(sink_.outputs().size(), 2u);
  const Comparator* ucmp = icmp_.user_comparator();
  for (size_t i = 1; i < sink_.outputs().size(); i++) {
    EXPECT_LT(ucmp->Compare(sink_.outputs()[i - 1].largest.user_key(),
                            sink_.outputs()[i].smallest.user_key()),
              0);
  }
}

TEST_F(WriteStageTest, EmptyCloseProducesNothing) {
  WriteStage ws(job_, &sink_);
  ASSERT_TRUE(ws.Close().ok());
  EXPECT_TRUE(sink_.outputs().empty());
}

TEST_F(WriteStageTest, EmptySubTasksAreSkipped) {
  WriteStage ws(job_, &sink_);
  ComputedSubTask empty;
  empty.seq = 0;
  ASSERT_TRUE(ws.PushReordered(std::move(empty)).ok());
  ASSERT_TRUE(ws.PushReordered(MakeTask(1, "key-001")).ok());
  ASSERT_TRUE(ws.Close().ok());
  ASSERT_EQ(1u, sink_.outputs().size());
  EXPECT_EQ(1u, sink_.outputs()[0].entries);
}

}  // namespace
}  // namespace pipelsm
