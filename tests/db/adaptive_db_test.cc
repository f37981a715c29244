// Adaptive scheduling, end to end: a live DB on a simulated HDD whose
// workload shifts from small, highly compressible values (little I/O per
// raw byte, lots of merge/compress work — the CPU-bound regime) to large
// incompressible values (every byte hits the device — the I/O-bound
// regime). The CompactionScheduler must track the shift: the executor
// chosen for the steady-state jobs of each phase must differ, the switch
// must be visible in GetProperty("pipelsm.scheduler"), and every job's
// Begin event must carry the scheduler's verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/compaction/types.h"
#include "src/db/db.h"
#include "src/env/sim_env.h"
#include "src/obs/event_listener.h"
#include "src/obs/metrics.h"
#include "src/workload/generator.h"
#include "tests/obs/json_check.h"

// The phase-shift test is calibrated against real compute speed (the
// simulated device charges wall time, the compute stages burn CPU);
// sanitizers inflate compute 2-15x, which moves the regime boundary out
// of the calibrated window, so that one test is skipped under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PIPELSM_UNDER_SANITIZER 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PIPELSM_UNDER_SANITIZER 1
#endif
#endif

namespace pipelsm {
namespace {

using testjson::JsonValue;
using testjson::ParseJson;

// Records the scheduler-facing slice of every compaction Begin event.
class DecisionListener : public obs::EventListener {
 public:
  struct Decision {
    std::string executor;
    int read_parallelism = 0;
    int compute_parallelism = 0;
    bool adaptive = false;
    std::string rationale;
  };

  void OnCompactionBegin(const obs::CompactionJobInfo& info) override {
    Decision d;
    d.executor = info.executor;
    d.read_parallelism = info.read_parallelism;
    d.compute_parallelism = info.compute_parallelism;
    d.adaptive = info.adaptive;
    d.rationale = info.scheduler_rationale;
    std::lock_guard<std::mutex> lock(mu_);
    decisions_.push_back(std::move(d));
  }

  std::vector<Decision> decisions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return decisions_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Decision> decisions_;
};

class AdaptiveDbTest : public ::testing::Test {
 protected:
  AdaptiveDbTest() : env_(DilatedProfile(DeviceProfile::Ssd(4), 1.0 / 3)) {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.compaction_mode = CompactionMode::kAuto;
    options_.scheduler_hysteresis_jobs = 2;
    options_.scheduler_warmup_jobs = 2;
    // Park the compute:I/O regime boundary between the two phases, in
    // real time on a device 3x faster than the SSD model. S1 pays a
    // per-command cost that no device speed removes, one command per
    // input table a sub-task touches, so the tables are large: with
    // 32 KiB sub-tasks phase 1 measures ~0.7 ms of compute against
    // ~0.43 ms of S1 (compute-bound) and phase 2 ~0.3 ms of compute
    // against ~0.55 ms (I/O-bound, while its EMA still carries phase 1),
    // a margin of ~1.7x either way against host-speed variation.
    options_.write_buffer_size = 32 << 10;
    options_.max_file_size = 1 << 20;
    options_.subtask_bytes = 32 << 10;
    options_.listeners.push_back(&listener_);
  }

  void Open() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  // One workload phase: `num` values of `value_size` bytes at the given
  // compressibility, then quiesce. Returns the number of compaction
  // decisions recorded by the end of the phase.
  size_t FillPhase(uint64_t num, size_t value_size, double compressibility,
                   uint32_t seed) {
    WorkloadGenerator gen(num, 16, value_size, KeyOrder::kRandom, seed,
                          compressibility);
    for (uint64_t i = 0; i < num; i++) {
      EXPECT_TRUE(db_->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok());
      // Quiesce periodically so the phase yields several separate
      // compaction jobs instead of one giant catch-up job at the end.
      if ((i + 1) % (num / 4) == 0) {
        EXPECT_TRUE(db_->WaitForCompactions().ok());
      }
    }
    EXPECT_TRUE(db_->WaitForCompactions().ok());
    return listener_.decisions().size();
  }

  std::string Property(const std::string& name) {
    std::string value;
    EXPECT_TRUE(db_->GetProperty(name, &value)) << name;
    return value;
  }

  SimEnv env_;
  Options options_;
  DecisionListener listener_;
  std::unique_ptr<DB> db_;
};

TEST_F(AdaptiveDbTest, ValueSizePhaseShiftChangesChosenExecutor) {
#ifdef PIPELSM_UNDER_SANITIZER
  GTEST_SKIP() << "regime calibration assumes uninstrumented compute speed";
#endif
  Open();

  // Phase 1: small, fully compressible values. Compaction inputs shrink
  // ~10x on disk, so per raw byte the device is cheap and the merge/
  // compress stages dominate.
  const size_t phase1_end =
      FillPhase(/*num=*/16000, /*value_size=*/100, /*compressibility=*/1.0,
                /*seed=*/301);
  const std::vector<DecisionListener::Decision> after1 =
      listener_.decisions();
  ASSERT_GE(after1.size(), 4u)
      << "phase 1 must run enough compactions to exit warmup";

  // Phase 2: large, incompressible values. Every raw byte is transferred
  // at HDD bandwidth, so S1/S7 dominate the dwarfed compute stages.
  FillPhase(/*num=*/800, /*value_size=*/4096, /*compressibility=*/0.0,
            /*seed=*/302);
  const std::vector<DecisionListener::Decision> all = listener_.decisions();
  ASSERT_GT(all.size(), phase1_end + 4)
      << "phase 2 must run enough compactions for the EMA to converge";

  // Every job — both phases — carried the scheduler's verdict.
  for (const auto& d : all) {
    EXPECT_FALSE(d.executor.empty());
    EXPECT_GE(d.read_parallelism, 1);
    EXPECT_GE(d.compute_parallelism, 1);
    EXPECT_FALSE(d.rationale.empty());
  }

  // The steady-state choice of each phase, from its final job.
  const DecisionListener::Decision& end1 = all[phase1_end - 1];
  const DecisionListener::Decision& end2 = all.back();
  EXPECT_TRUE(end1.adaptive) << end1.rationale;
  EXPECT_TRUE(end2.adaptive) << end2.rationale;
  EXPECT_NE(end1.executor, end2.executor)
      << "phase 1 settled on " << end1.executor << " (" << end1.rationale
      << "); phase 2 must settle elsewhere (" << end2.rationale << ")\n"
      << "advisor: " << Property("pipelsm.advisor") << "\n"
      << "scheduler: " << Property("pipelsm.scheduler");

  // The switch shows up in the scheduler report, which must parse.
  JsonValue v;
  std::string err;
  const std::string json = Property("pipelsm.scheduler");
  ASSERT_TRUE(ParseJson(json, &v, &err)) << err << "\n" << json;
  EXPECT_NE(nullptr, v.Find("current"));
  ASSERT_NE(nullptr, v.Find("switches"));
  EXPECT_GE(v.Find("switches")->number_value, 1);
  EXPECT_EQ(end2.executor,
            v.Find("current")->Find("procedure")->string_value);
}

TEST_F(AdaptiveDbTest, AdaptiveDecisionsReachTheInfoLog) {
  Open();
  FillPhase(/*num=*/8000, /*value_size=*/100, /*compressibility=*/1.0,
            /*seed=*/303);
  ASSERT_GE(listener_.decisions().size(), 1u);
  db_.reset();  // close: LOG complete

  std::string log;
  ASSERT_TRUE(ReadFileToString(&env_, "/db/LOG", &log).ok());
  EXPECT_NE(std::string::npos, log.find("EVENT adaptive_decision"));
  EXPECT_NE(std::string::npos, log.find("rationale="));
  EXPECT_NE(std::string::npos, log.find("mode=auto"));  // opening banner
}

TEST_F(AdaptiveDbTest, StaticConfigurationStaysPinned) {
  options_.compaction_mode = CompactionMode::kSCP;
  Open();
  FillPhase(/*num=*/8000, /*value_size=*/100, /*compressibility=*/1.0,
            /*seed=*/304);
  const std::vector<DecisionListener::Decision> all = listener_.decisions();
  ASSERT_GE(all.size(), 1u);
  for (const auto& d : all) {
    EXPECT_EQ("SCP", d.executor);
    EXPECT_FALSE(d.adaptive);
  }

  JsonValue v;
  std::string err;
  const std::string json = Property("pipelsm.scheduler");
  ASSERT_TRUE(ParseJson(json, &v, &err)) << err << "\n" << json;
  EXPECT_EQ(0, v.Find("switches")->number_value);
}

// The default Options run CompactionMode::kAuto. On the simulated SSD a
// random load of compressible values with 256 KiB sub-tasks is
// compute-bound (the advisor measures S2-S6 at ~2.5x S1 on a 4-core
// host; sanitizers and a loaded host only widen that), so once warm-up
// and hysteresis pass the scheduler admits C-PPCP jobs.
class DefaultModeTest : public ::testing::Test {
 protected:
  DefaultModeTest() : env_(DeviceProfile::Ssd()) {
    options_.env = &env_;
    options_.create_if_missing = true;
    options_.write_buffer_size = 1 << 20;
    options_.max_file_size = 1 << 20;
    options_.subtask_bytes = 256 << 10;
  }

  void Open() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  uint64_t Counter(const std::string& name) {
    return db_->MetricsHandle()->RegisterCounter(name, "")->value();
  }

  // Loads `num` keys in random order, drains compaction, then scans the
  // whole DB: every key must come back once, in order, with its value.
  void LoadAndVerify(uint64_t num) {
    WorkloadGenerator gen(num, 16, 100, KeyOrder::kRandom, /*seed=*/305,
                          /*compressibility=*/1.0);
    std::vector<std::pair<std::string, uint64_t>> expected;
    expected.reserve(num);
    for (uint64_t i = 0; i < num; i++) {
      expected.emplace_back(gen.Key(i), i);
      ASSERT_TRUE(db_->Put(WriteOptions(), gen.Key(i), gen.Value(i)).ok());
    }
    ASSERT_TRUE(db_->WaitForCompactions().ok());
    std::sort(expected.begin(), expected.end());

    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    auto want = expected.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++want) {
      ASSERT_NE(expected.end(), want) << "extra key " << it->key().ToString();
      ASSERT_EQ(want->first, it->key().ToString());
      ASSERT_EQ(gen.Value(want->second), it->value().ToString())
          << want->first;
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    ASSERT_EQ(expected.end(), want) << "scan stopped early";
  }

  std::string SchedulerJson() {
    std::string json;
    db_->GetProperty("pipelsm.scheduler", &json);
    return json;
  }

  SimEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DefaultModeTest, DefaultOptionsAdmitCppcpOnCpuBoundLoad) {
  if (std::thread::hardware_concurrency() < 3) {
    GTEST_SKIP() << "the scheduler spares no compute worker below 3 cores";
  }
  ASSERT_EQ(CompactionMode::kAuto, options_.compaction_mode);
  Open();
  LoadAndVerify(400000);
  EXPECT_GT(Counter("scheduler.choice.cppcp"), 0u) << SchedulerJson();
}

TEST_F(DefaultModeTest, ExplicitPcpAdmitsOnlyPcp) {
  options_.compaction_mode = CompactionMode::kPCP;
  Open();
  LoadAndVerify(100000);
  EXPECT_GT(Counter("scheduler.decisions"), 0u);
  EXPECT_EQ(Counter("scheduler.decisions"), Counter("scheduler.choice.pcp"))
      << SchedulerJson();
}

}  // namespace
}  // namespace pipelsm
