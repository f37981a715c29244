// The contribution's core correctness property: SCP, PCP, S-PPCP and
// C-PPCP are different *schedules* of the same seven steps, so for any
// input they must produce exactly the same merged key-value sequence —
// and that sequence must equal a reference merge computed independently.
#include "src/compaction/executor.h"

#include <gtest/gtest.h>

#include <map>

#include "src/compaction/types.h"
#include "src/env/sim_env.h"
#include "src/table/filter_policy.h"
#include "src/table/table_builder.h"
#include "src/workload/table_gen.h"

namespace pipelsm {
namespace {

struct ExecParams {
  CompactionMode mode;
  int read_parallelism;
  int compute_parallelism;
};

std::string ParamName(const ::testing::TestParamInfo<ExecParams>& info) {
  std::string n = CompactionModeName(info.param.mode);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n + "_r" + std::to_string(info.param.read_parallelism) + "_c" +
         std::to_string(info.param.compute_parallelism);
}

class ExecutorTest : public ::testing::TestWithParam<ExecParams> {
 protected:
  ExecutorTest() : icmp_(BytewiseComparator()) {}

  CompactionJobOptions JobOptions() {
    CompactionJobOptions job;
    job.icmp = &icmp_;
    job.subtask_bytes = 64 << 10;
    job.block_size = 4 << 10;
    job.max_output_file_size = 256 << 10;
    job.read_parallelism = GetParam().read_parallelism;
    job.compute_parallelism = GetParam().compute_parallelism;
    return job;
  }

  // Runs the parameterized executor; returns the merged (user_key ->
  // value) contents of all output tables, scanning them in file order.
  Status RunAndCollect(const CompactionJobOptions& job,
                       const std::vector<std::shared_ptr<Table>>& inputs,
                       std::vector<std::pair<std::string, std::string>>* out,
                       StepProfile* profile) {
    auto executor = NewCompactionExecutor(GetParam().mode);
    CountingSink sink(&env_, "/out");
    Status s = executor->Run(job, inputs, &sink, profile);
    if (!s.ok()) return s;

    out->clear();
    TableOptions topt;
    topt.comparator = &icmp_;
    for (const OutputMeta& meta : sink.outputs()) {
      const std::string fname =
          "/out/out-" + std::to_string(meta.file_number) + ".pst";
      std::unique_ptr<RandomAccessFile> file;
      s = env_.NewRandomAccessFile(fname, &file);
      if (!s.ok()) return s;
      std::unique_ptr<Table> table;
      s = Table::Open(topt, std::move(file), meta.file_size, &table);
      if (!s.ok()) return s;
      std::unique_ptr<Iterator> it(table->NewIterator());
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        ParsedInternalKey parsed;
        EXPECT_TRUE(ParseInternalKey(it->key(), &parsed));
        out->emplace_back(parsed.user_key.ToString(),
                          it->value().ToString());
      }
      if (!it->status().ok()) return it->status();
    }
    return Status::OK();
  }

  // Reference merge: newest version of each user key via direct iteration.
  std::map<std::string, std::string> ReferenceMerge(
      const std::vector<std::shared_ptr<Table>>& inputs) {
    // Later = lower precedence: pick the entry with the highest sequence.
    std::map<std::string, std::pair<uint64_t, std::string>> best;
    for (const auto& t : inputs) {
      std::unique_ptr<Iterator> it(t->NewIterator());
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        ParsedInternalKey parsed;
        EXPECT_TRUE(ParseInternalKey(it->key(), &parsed));
        auto& slot = best[parsed.user_key.ToString()];
        if (parsed.sequence >= slot.first) {
          slot = {parsed.sequence, parsed.type == kTypeValue
                                       ? it->value().ToString()
                                       : std::string("<deleted>")};
        }
      }
    }
    std::map<std::string, std::string> result;
    for (auto& [k, v] : best) {
      if (v.second != "<deleted>") result[k] = v.second;
    }
    return result;
  }

  SimEnv env_;
  InternalKeyComparator icmp_;
};

TEST_P(ExecutorTest, MatchesReferenceMerge) {
  TableGenOptions gen;
  gen.env = &env_;
  gen.icmp = &icmp_;
  gen.upper_bytes = 512 << 10;
  gen.lower_bytes = 1 << 20;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  std::vector<std::pair<std::string, std::string>> got;
  StepProfile profile;
  ASSERT_TRUE(
      RunAndCollect(JobOptions(), inputs.tables, &got, &profile).ok());

  auto expected = ReferenceMerge(inputs.tables);
  ASSERT_EQ(expected.size(), got.size());
  auto it = expected.begin();
  for (size_t i = 0; i < got.size(); i++, ++it) {
    ASSERT_EQ(it->first, got[i].first) << "at " << i;
    ASSERT_EQ(it->second, got[i].second) << "at " << i;
  }

  // Sanity on the profile: all seven steps saw work.
  EXPECT_GT(profile.subtasks, 0u);
  EXPECT_GT(profile.nanos[kStepRead], 0u);
  EXPECT_GT(profile.nanos[kStepSort], 0u);
  EXPECT_GT(profile.nanos[kStepWrite], 0u);
  EXPECT_GT(profile.input_bytes, 0u);
  EXPECT_GT(profile.wall_nanos, 0u);
}

TEST_P(ExecutorTest, ShadowedVersionsAreDropped) {
  // Upper rewrites half the lower keys; output size must reflect the drop.
  TableGenOptions gen;
  gen.env = &env_;
  gen.icmp = &icmp_;
  gen.upper_bytes = 256 << 10;
  gen.lower_bytes = 512 << 10;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  std::vector<std::pair<std::string, std::string>> got;
  StepProfile profile;
  ASSERT_TRUE(
      RunAndCollect(JobOptions(), inputs.tables, &got, &profile).ok());
  // Unique user keys = lower key count; total input entries > output.
  EXPECT_LT(got.size(), inputs.total_entries);
  // No duplicate user keys in the output.
  for (size_t i = 1; i < got.size(); i++) {
    EXPECT_LT(got[i - 1].first, got[i].first);
  }
}

TEST_P(ExecutorTest, OutputFilesRespectSizeLimitAndOrder) {
  TableGenOptions gen;
  gen.env = &env_;
  gen.icmp = &icmp_;
  gen.upper_bytes = 512 << 10;
  gen.lower_bytes = 2 << 20;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  auto executor = NewCompactionExecutor(GetParam().mode);
  CountingSink sink(&env_, "/out");
  StepProfile profile;
  CompactionJobOptions job = JobOptions();
  ASSERT_TRUE(executor->Run(job, inputs.tables, &sink, &profile).ok());

  ASSERT_GT(sink.outputs().size(), 1u);
  const Comparator* ucmp = icmp_.user_comparator();
  for (size_t i = 0; i < sink.outputs().size(); i++) {
    const OutputMeta& m = sink.outputs()[i];
    // Rotation happens at the first block boundary past the limit.
    EXPECT_LT(m.file_size, job.max_output_file_size + 64 * 1024);
    EXPECT_GT(m.entries, 0u);
    if (i > 0) {
      // Files must be disjoint and ascending.
      EXPECT_LT(ucmp->Compare(sink.outputs()[i - 1].largest.user_key(),
                              m.smallest.user_key()),
                0);
    }
  }
}

TEST_P(ExecutorTest, EmptyInputsProduceNoOutput) {
  auto executor = NewCompactionExecutor(GetParam().mode);
  CountingSink sink(&env_, "/out");
  StepProfile profile;
  ASSERT_TRUE(executor->Run(JobOptions(), {}, &sink, &profile).ok());
  EXPECT_TRUE(sink.outputs().empty());
}

TEST_P(ExecutorTest, TombstonesDroppedAtBaseLevelOnly) {
  // Build one upper table full of deletions over the lower key space.
  TableOptions topt;
  topt.comparator = &icmp_;
  env_.CreateDir("/in");

  auto build = [&](const std::string& fname, ValueType type,
                   SequenceNumber base_seq) -> std::shared_ptr<Table> {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_.NewWritableFile(fname, &file).ok());
    TableBuilder builder(topt, file.get());
    for (int i = 0; i < 500; i++) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%06d", i);
      std::string ikey;
      AppendInternalKey(&ikey, ParsedInternalKey(key, base_seq + i, type));
      builder.Add(ikey, type == kTypeValue ? "value" : "");
    }
    EXPECT_TRUE(builder.Finish().ok());
    file->Close();
    uint64_t size;
    EXPECT_TRUE(env_.GetFileSize(fname, &size).ok());
    std::unique_ptr<RandomAccessFile> raf;
    EXPECT_TRUE(env_.NewRandomAccessFile(fname, &raf).ok());
    std::unique_ptr<Table> t;
    EXPECT_TRUE(Table::Open(topt, std::move(raf), size, &t).ok());
    return std::shared_ptr<Table>(t.release());
  };

  std::vector<std::shared_ptr<Table>> inputs;
  inputs.push_back(build("/in/dels.pst", kTypeDeletion, 10000));
  inputs.push_back(build("/in/vals.pst", kTypeValue, 1));

  // Base level: tombstones and shadowed values vanish entirely.
  {
    std::vector<std::pair<std::string, std::string>> got;
    StepProfile profile;
    CompactionJobOptions job = JobOptions();
    job.range_is_base_level = [](const SubTaskPlan&) { return true; };
    ASSERT_TRUE(RunAndCollect(job, inputs, &got, &profile).ok());
    EXPECT_TRUE(got.empty());
  }

  // Not base level: tombstones must survive (they still shadow deeper
  // levels); LSM semantics would break otherwise.
  {
    auto executor = NewCompactionExecutor(GetParam().mode);
    CountingSink sink(&env_, "/out2");
    StepProfile profile;
    CompactionJobOptions job = JobOptions();
    job.range_is_base_level = [](const SubTaskPlan&) { return false; };
    ASSERT_TRUE(executor->Run(job, inputs, &sink, &profile).ok());
    uint64_t entries = 0;
    for (const auto& m : sink.outputs()) entries += m.entries;
    EXPECT_EQ(500u, entries);  // 500 tombstones kept, 500 values dropped
  }
}

TEST_P(ExecutorTest, SnapshotPreservesOldVersions) {
  TableGenOptions gen;
  gen.env = &env_;
  gen.icmp = &icmp_;
  gen.upper_bytes = 128 << 10;
  gen.lower_bytes = 256 << 10;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  // A snapshot at sequence 0 predates everything: no version may be
  // dropped.
  auto executor = NewCompactionExecutor(GetParam().mode);
  CountingSink sink(&env_, "/out");
  StepProfile profile;
  CompactionJobOptions job = JobOptions();
  job.smallest_snapshot = 0;
  ASSERT_TRUE(executor->Run(job, inputs.tables, &sink, &profile).ok());
  uint64_t entries = 0;
  for (const auto& m : sink.outputs()) entries += m.entries;
  EXPECT_EQ(inputs.total_entries, entries);
}

INSTANTIATE_TEST_SUITE_P(
    AllExecutors, ExecutorTest,
    ::testing::Values(ExecParams{CompactionMode::kSCP, 1, 1},
                      ExecParams{CompactionMode::kPCP, 1, 1},
                      ExecParams{CompactionMode::kSPPCP, 2, 1},
                      ExecParams{CompactionMode::kSPPCP, 4, 1},
                      ExecParams{CompactionMode::kCPPCP, 1, 2},
                      ExecParams{CompactionMode::kCPPCP, 1, 4},
                      ExecParams{CompactionMode::kCPPCP, 2, 3}),
    ParamName);

// Runs one executor over `inputs` and returns the raw bytes of all its
// output tables, concatenated in file order.
std::string CompactToBytes(SimEnv* env, CompactionJobOptions job,
                           const std::vector<std::shared_ptr<Table>>& inputs,
                           CompactionMode mode, int readers, int computers,
                           const std::string& dir) {
  job.read_parallelism = readers;
  job.compute_parallelism = computers;
  auto executor = NewCompactionExecutor(mode);
  CountingSink sink(env, dir);
  StepProfile profile;
  EXPECT_TRUE(executor->Run(job, inputs, &sink, &profile).ok());
  std::string all;
  for (const auto& m : sink.outputs()) {
    std::string data;
    EXPECT_TRUE(ReadFileToString(
                    env, dir + "/out-" + std::to_string(m.file_number) +
                             ".pst",
                    &data)
                    .ok());
    all += data;
  }
  return all;
}

// Cross-executor equivalence: byte-identical output streams.
TEST(ExecutorEquivalence, AllModesProduceIdenticalOutput) {
  SimEnv env;
  InternalKeyComparator icmp(BytewiseComparator());
  TableGenOptions gen;
  gen.env = &env;
  gen.icmp = &icmp;
  gen.upper_bytes = 512 << 10;
  gen.lower_bytes = 1 << 20;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  CompactionJobOptions job;
  job.icmp = &icmp;
  job.subtask_bytes = 64 << 10;
  job.max_output_file_size = 256 << 10;
  auto run = [&](CompactionMode mode, int readers, int computers) {
    return CompactToBytes(&env, job, inputs.tables, mode, readers, computers,
                          std::string("/eq-") + CompactionModeName(mode) +
                              "-" + std::to_string(readers) + "-" +
                              std::to_string(computers));
  };

  const std::string scp = run(CompactionMode::kSCP, 1, 1);
  ASSERT_FALSE(scp.empty());
  EXPECT_EQ(scp, run(CompactionMode::kPCP, 1, 1));
  EXPECT_EQ(scp, run(CompactionMode::kSPPCP, 3, 1));
  EXPECT_EQ(scp, run(CompactionMode::kCPPCP, 1, 3));

  // Flushes and compactions share one table writer: compacting a single
  // TableBuilder file in one sub-task into one output must reproduce the
  // file byte for byte (blocks, index separators, partitioned filter,
  // metaindex, footer), whichever executor runs it. Compressed blocks
  // are small enough that two often start in one 2 KiB filter window;
  // that window's filter must still reject absent keys.
  std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));
  InternalFilterPolicy filter(bloom.get());
  TableOptions topt;
  topt.comparator = &icmp;
  topt.filter_policy = &filter;
  ASSERT_TRUE(env.CreateDir("/golden").ok());
  auto open_table = [&](const std::string& fname) {
    uint64_t size = 0;
    EXPECT_TRUE(env.GetFileSize(fname, &size).ok());
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(env.NewRandomAccessFile(fname, &file).ok());
    std::unique_ptr<Table> table;
    EXPECT_TRUE(Table::Open(topt, std::move(file), size, &table).ok());
    return std::shared_ptr<Table>(std::move(table));
  };

  for (const double compressibility : {0.5, 0.75}) {
    SCOPED_TRACE(compressibility);
    const std::string tag =
        std::to_string(static_cast<int>(compressibility * 100));
    const std::string fname = "/golden/" + tag + ".pst";
    WorkloadGenerator workload(20000, 16, 100, KeyOrder::kSequential, 301,
                               compressibility);
    {
      std::unique_ptr<WritableFile> file;
      ASSERT_TRUE(env.NewWritableFile(fname, &file).ok());
      TableBuilder builder(topt, file.get());
      for (uint64_t i = 0; i < workload.num_entries(); i++) {
        std::string ikey;
        AppendInternalKey(&ikey, ParsedInternalKey(workload.Key(i), i + 1,
                                                   kTypeValue));
        builder.Add(ikey, workload.Value(i));
      }
      ASSERT_TRUE(builder.Finish().ok());
      ASSERT_TRUE(file->Close().ok());
    }
    std::string golden;
    ASSERT_TRUE(ReadFileToString(&env, fname, &golden).ok());

    job.filter_policy = &filter;
    job.subtask_bytes = golden.size();
    job.max_output_file_size = golden.size();
    const std::vector<std::shared_ptr<Table>> single = {open_table(fname)};
    std::string scp_output;
    for (const ExecParams& p : {ExecParams{CompactionMode::kSCP, 1, 1},
                                ExecParams{CompactionMode::kPCP, 1, 1},
                                ExecParams{CompactionMode::kSPPCP, 3, 1},
                                ExecParams{CompactionMode::kCPPCP, 1, 3}}) {
      SCOPED_TRACE(CompactionModeName(p.mode));
      const std::string output = CompactToBytes(
          &env, job, single, p.mode, p.read_parallelism,
          p.compute_parallelism,
          "/golden-" + tag + "-" + CompactionModeName(p.mode));
      EXPECT_TRUE(output == golden);  // not EXPECT_EQ: no MiB-long diff
      if (p.mode == CompactionMode::kSCP) scp_output = output;
    }

    if (compressibility == 0.75) {
      const std::string out_name = "/golden/" + tag + "-scp.pst";
      ASSERT_TRUE(WriteStringToFile(&env, scp_output, out_name).ok());
      const std::shared_ptr<Table> output = open_table(out_name);
      // Each probe sorts between two adjacent keys, so it lands in a
      // data block and only the filter can keep it from matching.
      const int kProbes = 2000;
      int passes = 0;
      for (int i = 0; i < kProbes; i++) {
        std::string ikey;
        AppendInternalKey(&ikey,
                          ParsedInternalKey(workload.Key(i * 9) + "x",
                                            kMaxSequenceNumber, kTypeValue));
        ASSERT_TRUE(output
                        ->InternalGet({}, ikey,
                                      [&](const Slice&, const Slice&) {
                                        passes++;
                                      })
                        .ok());
      }
      EXPECT_LE(passes, kProbes * 2 / 100);
    }
  }
}

}  // namespace
}  // namespace pipelsm
