// Direct tests of the step primitives: range filtering at sub-task
// boundaries, extent coalescing in S1, and the slow-motion dilation.
#include "src/compaction/steps.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/compaction/planner.h"
#include "src/env/sim_env.h"
#include "src/table/block.h"
#include "src/util/stopwatch.h"
#include "src/workload/table_gen.h"

namespace pipelsm {
namespace {

class StepsTest : public ::testing::Test {
 protected:
  StepsTest() : icmp_(BytewiseComparator()) {
    TableGenOptions gen;
    gen.env = &env_;
    gen.icmp = &icmp_;
    gen.upper_bytes = 256 << 10;
    gen.lower_bytes = 512 << 10;
    EXPECT_TRUE(GenerateCompactionInputs(gen, &inputs_).ok());
    job_.icmp = &icmp_;
    job_.subtask_bytes = 64 << 10;
  }

  using Entries = std::vector<std::pair<std::string, std::string>>;

  struct SubTaskOutput {
    ComputedSubTask computed;
    Entries entries;  // decoded from the output blocks
    int drops = 0;    // on_drop_entry calls
  };

  // A sub-task over the user keys in (lo, hi] (an empty bound is
  // unbounded) that lists, per input table, every block the index says
  // may overlap the range -- so its boundary blocks also hold keys
  // outside it.
  SubTaskPlan PlanRange(const std::string& lo, const std::string& hi) {
    SubTaskPlan plan;
    plan.unbounded_lo = lo.empty();
    plan.lo_user_key = lo;
    plan.unbounded_hi = hi.empty();
    plan.hi_user_key = hi;
    for (size_t t = 0; t < inputs_.tables.size(); t++) {
      std::unique_ptr<Iterator> idx(inputs_.tables[t]->NewIndexIterator());
      for (idx->SeekToFirst(); idx->Valid(); idx->Next()) {
        const Slice limit = ExtractUserKey(idx->key());
        if (!lo.empty() && limit.compare(lo) <= 0) continue;
        BlockRead br;
        br.table_index = static_cast<int>(t);
        Slice v = idx->value();
        EXPECT_TRUE(br.handle.DecodeFrom(&v).ok());
        plan.blocks.push_back(br);
        if (!hi.empty() && limit.compare(hi) > 0) break;
      }
    }
    return plan;
  }

  void AppendEntries(const std::vector<EncodedBlock>& blocks, Entries* out) {
    for (const EncodedBlock& eb : blocks) {
      RawBlock raw;
      raw.payload = eb.payload;
      BlockContents contents;
      ASSERT_TRUE(DecodeRawBlock(raw, &contents).ok());
      Block block(contents);
      std::unique_ptr<Iterator> it(block.NewIterator(&icmp_));
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        out->emplace_back(it->key().ToString(), it->value().ToString());
      }
    }
  }

  SubTaskOutput Run(const SubTaskPlan& plan) {
    SubTaskOutput result;
    CompactionJobOptions job = job_;
    job.on_drop_entry = [&result](ValueType, const Slice&) {
      result.drops++;
    };
    StepProfile profile;
    RawSubTask raw;
    EXPECT_TRUE(ReadSubTask(job, inputs_.tables, plan, &raw, &profile).ok());
    EXPECT_TRUE(ComputeSubTask(job, std::move(raw), &result.computed).ok());
    AppendEntries(result.computed.blocks, &result.entries);
    return result;
  }

  // User keys of every entry in the plan's input blocks.
  std::vector<std::string> InputUserKeys(const SubTaskPlan& plan) {
    std::vector<std::string> keys;
    StepProfile profile;
    RawSubTask raw;
    EXPECT_TRUE(ReadSubTask(job_, inputs_.tables, plan, &raw, &profile).ok());
    for (const RawBlock& rb : raw.blocks) {
      BlockContents contents;
      EXPECT_TRUE(DecodeRawBlock(rb, &contents).ok());
      Block block(contents);
      std::unique_ptr<Iterator> it(block.NewIterator(&icmp_));
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        keys.push_back(ExtractUserKey(it->key()).ToString());
      }
    }
    return keys;
  }

  SimEnv env_;
  InternalKeyComparator icmp_;
  CompactionInputs inputs_;
  CompactionJobOptions job_;
};

TEST_F(StepsTest, BoundaryBlocksDoNotDuplicateOutput) {
  std::vector<SubTaskPlan> plans;
  ASSERT_TRUE(PlanSubTasks(job_, inputs_.tables, &plans).ok());
  ASSERT_GT(plans.size(), 3u);

  // Total blocks listed across plans exceeds distinct blocks (boundary
  // blocks are read twice)...
  size_t listed = 0;
  for (const auto& p : plans) listed += p.blocks.size();
  size_t distinct = 0;
  for (const auto& t : inputs_.tables) {
    std::unique_ptr<Iterator> it(t->NewIndexIterator());
    for (it->SeekToFirst(); it->Valid(); it->Next()) distinct++;
  }
  EXPECT_GT(listed, distinct);

  // ...yet the merged outputs contain each user key exactly once, in
  // globally ascending order across sub-tasks.
  std::string prev_last;
  uint64_t entries = 0;
  for (const auto& plan : plans) {
    StepProfile profile;
    RawSubTask raw;
    ASSERT_TRUE(ReadSubTask(job_, inputs_.tables, plan, &raw, &profile).ok());
    ComputedSubTask computed;
    ASSERT_TRUE(ComputeSubTask(job_, std::move(raw), &computed).ok());
    if (computed.entries == 0) continue;
    Slice first_user = ExtractUserKey(computed.smallest_key);
    if (!prev_last.empty()) {
      EXPECT_GT(first_user.ToString(), prev_last);
    }
    prev_last = ExtractUserKey(computed.largest_key).ToString();
    entries += computed.entries;
  }
  // Upper rewrote half the lower keys: output = distinct user keys.
  const uint64_t distinct_keys =
      (512 << 10) / (16 + 100);  // lower component key count
  EXPECT_EQ(distinct_keys, entries);
}

// A sub-task emits exactly the user keys in (lo, hi] even though its
// boundary blocks hold keys on both sides, reports drops only for
// entries in its range, and adjacent sub-tasks concatenate to the output
// of one sub-task over everything.
TEST_F(StepsTest, SubTaskEmitsExactlyItsRange) {
  const SubTaskOutput whole = Run(PlanRange("", ""));
  const size_t n = whole.entries.size();
  ASSERT_GT(n, 300u);
  ASSERT_GT(whole.drops, 0);  // the upper table shadows lower versions

  const std::string k1 = ExtractUserKey(whole.entries[n / 3].first).ToString();
  const std::string k2 =
      ExtractUserKey(whole.entries[2 * n / 3].first).ToString();
  const std::pair<std::string, std::string> ranges[] = {
      {"", k1}, {k1, k2}, {k2, ""}};

  Entries concatenated;
  int drops = 0;
  for (const auto& [lo, hi] : ranges) {
    const SubTaskPlan plan = PlanRange(lo, hi);
    if (!lo.empty() && !hi.empty()) {
      const std::vector<std::string> in = InputUserKeys(plan);
      EXPECT_TRUE(std::any_of(in.begin(), in.end(),
                              [&](const std::string& k) { return k <= lo; }));
      EXPECT_TRUE(std::any_of(in.begin(), in.end(),
                              [&](const std::string& k) { return k > hi; }));
    }
    const SubTaskOutput out = Run(plan);
    ASSERT_FALSE(out.entries.empty());
    for (const auto& [key, value] : out.entries) {
      const std::string user = ExtractUserKey(key).ToString();
      if (!lo.empty()) {
        EXPECT_GT(user, lo);
      }
      if (!hi.empty()) {
        EXPECT_LE(user, hi);
      }
    }
    EXPECT_EQ(out.entries.front().first, out.computed.smallest_key);
    EXPECT_EQ(out.entries.back().first, out.computed.largest_key);
    EXPECT_EQ(out.entries.size(), out.computed.entries);
    concatenated.insert(concatenated.end(), out.entries.begin(),
                        out.entries.end());
    drops += out.drops;
  }
  EXPECT_EQ(whole.entries, concatenated);
  // Every in-range entry belongs to exactly one sub-task, so any drop
  // reported for an out-of-range entry would show up as a surplus here.
  EXPECT_EQ(whole.drops, drops);
}

// Orders keys exactly like BytewiseComparator() but is another object,
// so the merge takes its generic comparator path instead of the inlined
// bytewise compare.
class SameOrderComparator final : public Comparator {
 public:
  int Compare(const Slice& a, const Slice& b) const override {
    return BytewiseComparator()->Compare(a, b);
  }
  const char* Name() const override { return BytewiseComparator()->Name(); }
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override {
    BytewiseComparator()->FindShortestSeparator(start, limit);
  }
  void FindShortSuccessor(std::string* key) const override {
    BytewiseComparator()->FindShortSuccessor(key);
  }
};

TEST_F(StepsTest, GenericComparatorPathMatchesInlinedCompare) {
  SameOrderComparator ucmp;
  InternalKeyComparator icmp(&ucmp);
  CompactionJobOptions generic_job = job_;
  generic_job.icmp = &icmp;

  std::vector<SubTaskPlan> plans;
  ASSERT_TRUE(PlanSubTasks(job_, inputs_.tables, &plans).ok());
  for (const SubTaskPlan& plan : plans) {
    StepProfile profile;
    RawSubTask raw;
    ASSERT_TRUE(ReadSubTask(job_, inputs_.tables, plan, &raw, &profile).ok());
    RawSubTask raw_copy = raw;
    ComputedSubTask inlined, generic;
    ASSERT_TRUE(ComputeSubTask(job_, std::move(raw), &inlined).ok());
    ASSERT_TRUE(
        ComputeSubTask(generic_job, std::move(raw_copy), &generic).ok());
    ASSERT_EQ(inlined.blocks.size(), generic.blocks.size());
    for (size_t i = 0; i < inlined.blocks.size(); i++) {
      EXPECT_EQ(inlined.blocks[i].payload, generic.blocks[i].payload);
    }
    EXPECT_EQ(inlined.entries, generic.entries);
  }
}

TEST_F(StepsTest, ReadCoalescesContiguousBlocks) {
  std::vector<SubTaskPlan> plans;
  ASSERT_TRUE(PlanSubTasks(job_, inputs_.tables, &plans).ok());

  env_.device()->ResetStats();
  StepProfile profile;
  RawSubTask raw;
  ASSERT_TRUE(ReadSubTask(job_, inputs_.tables, plans[1], &raw, &profile).ok());

  // Far fewer device read ops than blocks (coalesced extents).
  const uint64_t ops = env_.device()->stats().read_ops.load();
  EXPECT_LT(ops, plans[1].blocks.size() / 2 + 2);
  EXPECT_GT(raw.blocks.size(), 4u);

  // And every sliced payload verifies + decodes.
  for (const auto& rb : raw.blocks) {
    ASSERT_TRUE(VerifyRawBlock(rb).ok());
    BlockContents contents;
    ASSERT_TRUE(DecodeRawBlock(rb, &contents).ok());
    const Block block(contents);  // owns the decoded bytes
  }
}

TEST_F(StepsTest, DilationStretchesComputeUniformly) {
  std::vector<SubTaskPlan> plans;
  ASSERT_TRUE(PlanSubTasks(job_, inputs_.tables, &plans).ok());

  StepProfile rp;
  RawSubTask raw1, raw2;
  ASSERT_TRUE(ReadSubTask(job_, inputs_.tables, plans[0], &raw1, &rp).ok());
  raw2 = raw1;  // same input twice

  ComputedSubTask plain;
  ASSERT_TRUE(ComputeSubTask(job_, std::move(raw1), &plain).ok());

  CompactionJobOptions dilated_job = job_;
  dilated_job.time_dilation = 4.0;
  Stopwatch sw;
  ComputedSubTask dilated;
  ASSERT_TRUE(ComputeSubTask(dilated_job, std::move(raw2), &dilated).ok());
  const uint64_t dilated_wall = sw.ElapsedNanos();

  // Identical output bytes.
  ASSERT_EQ(plain.blocks.size(), dilated.blocks.size());
  for (size_t i = 0; i < plain.blocks.size(); i++) {
    EXPECT_EQ(plain.blocks[i].payload, dilated.blocks[i].payload);
  }

  // Every compute step's reported time is its measured time times 4, and
  // the run really slept for the difference: the sleep is 3x the measured
  // compute time and never ends early, so the run's own wall time covers
  // the 4x it reports. Both checks stay within the dilated run, so they
  // hold however fast or loaded the host is.
  for (CompactionStep s : {kStepChecksum, kStepDecompress, kStepSort,
                           kStepCompress, kStepRechecksum}) {
    EXPECT_GT(dilated.profile.nanos[s], 0u) << CompactionStepName(s);
    EXPECT_EQ(0u, dilated.profile.nanos[s] % 4) << CompactionStepName(s);
  }
  EXPECT_GE(dilated_wall, dilated.profile.ComputeNanos());
}

TEST_F(StepsTest, DilatedProfileScalesDeviceNumbers) {
  DeviceProfile hdd = DeviceProfile::Hdd();
  DeviceProfile slow = DilatedProfile(hdd, 4.0);
  EXPECT_NEAR(hdd.read_bw_bps / 4, slow.read_bw_bps, 1);
  EXPECT_NEAR(hdd.write_position_us * 4, slow.write_position_us, 1e-6);
  // Dilation of 1 is identity.
  DeviceProfile same = DilatedProfile(hdd, 1.0);
  EXPECT_EQ(hdd.read_bw_bps, same.read_bw_bps);
  EXPECT_EQ(hdd.name, same.name);
}

TEST_F(StepsTest, SubTaskProfileAccountsAllSteps) {
  std::vector<SubTaskPlan> plans;
  ASSERT_TRUE(PlanSubTasks(job_, inputs_.tables, &plans).ok());
  StepProfile profile;
  RawSubTask raw;
  ASSERT_TRUE(ReadSubTask(job_, inputs_.tables, plans[0], &raw, &profile).ok());
  ComputedSubTask computed;
  ASSERT_TRUE(ComputeSubTask(job_, std::move(raw), &computed).ok());

  EXPECT_GT(profile.nanos[kStepRead], 0u);
  EXPECT_GT(profile.bytes[kStepRead], 0u);
  for (CompactionStep s : {kStepChecksum, kStepDecompress, kStepSort,
                           kStepCompress, kStepRechecksum}) {
    EXPECT_GT(computed.profile.nanos[s], 0u) << CompactionStepName(s);
  }
  EXPECT_EQ(1u, computed.profile.subtasks);
}

}  // namespace
}  // namespace pipelsm
