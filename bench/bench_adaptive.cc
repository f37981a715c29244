// bench_adaptive: closes the loop the paper leaves open.
//
// The paper's evaluation (Figs 6 and 12) shows the best compaction
// procedure flipping between C-PPCP and S-PPCP as the pipeline moves
// between CPU- and I/O-bound regimes — but its procedures are chosen
// offline. This bench runs a workload whose regime shifts mid-run (small
// highly compressible values, then large incompressible ones) through
// every static procedure and through CompactionMode::kAuto's adaptive
// CompactionScheduler (docs/TUNING.md), and gates the adaptive run at
// >= 0.90x of the best static choice *per phase*: the scheduler must
// track the shift closely enough that no phase pays more than ~10% for
// not being pinned.
//
// Usage:
//   bench_adaptive           full sweep + gate (exit 1 on gate failure)
//   bench_adaptive --smoke   tiny adaptive-only run; prints one
//                            adaptive_decision line per compaction for
//                            CI to grep, no gate
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/obs/event_listener.h"
#include "src/workload/generator.h"

namespace pipelsm::bench {
namespace {

// The phase calibration mirrors tests/db/adaptive_db_test.cc: in real
// time on a striped-SSD model made 3x faster, with 1 MiB tables and
// 32 KiB sub-tasks, 100-byte fully compressible values are
// compute-bound and 4 KB incompressible values I/O-bound, with ~1.7x
// margin to the regime boundary either way.
constexpr double kDeviceSpeedup = 3.0;
constexpr double kGate = 0.90;

struct PhaseSpec {
  const char* name;
  uint64_t num_entries;
  size_t value_size;
  double compressibility;
  uint32_t seed;
};

struct PhaseResult {
  double seconds = 0;
  uint64_t raw_bytes = 0;
  double mib_s = 0;
};

struct Decision {
  std::string executor;
  int read_parallelism = 1;
  int compute_parallelism = 1;
  bool adaptive = false;
  std::string rationale;
};

class DecisionListener : public obs::EventListener {
 public:
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

struct RunConfig {
  const char* label = "";
  CompactionMode mode = CompactionMode::kAuto;
  int read_parallelism = 1;
  int compute_parallelism = 1;
};

struct RunResult {
  std::vector<PhaseResult> phases;
  std::vector<Decision> decisions;
  std::string scheduler_json;
  std::string advisor_json;
};

RunResult RunPhased(const RunConfig& cfg,
                    const std::vector<PhaseSpec>& phases) {
  SimEnv env(DilatedProfile(DeviceProfile::Ssd(4), 1.0 / kDeviceSpeedup));
  DecisionListener listener;

  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.compaction_mode = cfg.mode;
  options.io_parallelism = cfg.read_parallelism;
  options.compute_parallelism = cfg.compute_parallelism;
  // The gate charges the adaptive run for its transition lag, so react
  // as fast as one clean profile allows.
  options.scheduler_hysteresis_jobs = 1;
  options.scheduler_warmup_jobs = 1;
  options.write_buffer_size = 32 << 10;
  options.max_file_size = 1 << 20;
  options.subtask_bytes = 32 << 10;
  options.block_size = 4 << 10;
  options.listeners.push_back(&listener);

  DB* raw = nullptr;
  Status s = DB::Open(options, "/db", &raw);
  if (!s.ok()) {
    std::fprintf(stderr, "DB::Open failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<DB> db(raw);

  RunResult result;
  for (const PhaseSpec& phase : phases) {
    WorkloadGenerator gen(phase.num_entries, 16, phase.value_size,
                          KeyOrder::kRandom, phase.seed,
                          phase.compressibility);
    PhaseResult r;
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < phase.num_entries; i++) {
      s = db->Put(WriteOptions(), gen.Key(i), gen.Value(i));
      if (!s.ok()) {
        std::fprintf(stderr, "Put failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
      // Quiesce periodically so each phase spreads over several
      // compaction jobs (as a sustained workload would) instead of one
      // catch-up job after the memtable backlog.
      if ((i + 1) % (phase.num_entries / 4) == 0) {
        s = db->WaitForCompactions();
        if (!s.ok()) {
          std::fprintf(stderr, "wait failed: %s\n", s.ToString().c_str());
          std::exit(1);
        }
      }
    }
    s = db->WaitForCompactions();
    if (!s.ok()) {
      std::fprintf(stderr, "wait failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    r.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    r.raw_bytes = phase.num_entries * (16 + phase.value_size);
    r.mib_s = r.seconds > 0 ? ToMiB(double(r.raw_bytes)) / r.seconds : 0;
    result.phases.push_back(r);
  }

  db->GetProperty("pipelsm.scheduler", &result.scheduler_json);
  db->GetProperty("pipelsm.advisor", &result.advisor_json);
  result.decisions = listener.decisions();
  return result;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const double scale = smoke ? 0.25 : Scale();
  const std::vector<PhaseSpec> phases = {
      {"cpu-bound (100B values, compressible)",
       uint64_t(16000 * scale), 100, 1.0, 301},
      {"io-bound (4KB values, incompressible)",
       uint64_t(2400 * scale), 4096, 0.0, 302},
  };

  if (smoke) {
    PrintHeader("Adaptive compaction scheduling (smoke)",
                "the missing online half of Figs 6/12",
                "tiny phase-shift run; decisions printed, no gate");
    RunConfig cfg;
    cfg.label = "adaptive";
    RunResult run = RunPhased(cfg, phases);
    for (const Decision& d : run.decisions) {
      std::printf(
          "adaptive_decision procedure=%s read_k=%d compute_k=%d "
          "adaptive=%d rationale=\"%s\"\n",
          d.executor.c_str(), d.read_parallelism, d.compute_parallelism,
          d.adaptive ? 1 : 0, d.rationale.c_str());
    }
    std::printf("SCHEDULER %s\n", run.scheduler_json.c_str());
    std::printf("ADVISOR %s\n", run.advisor_json.c_str());
    if (run.decisions.empty()) {
      std::fprintf(stderr, "smoke run scheduled no compactions\n");
      return 1;
    }
    return 0;
  }

  PrintHeader(
      "Adaptive compaction scheduling vs per-phase static oracles",
      "the missing online half of Figs 6/12 (procedures chosen offline)",
      "phase-shifting fill; gate: adaptive >= 0.90x best static per phase");

  const std::vector<RunConfig> statics = {
      {"SCP", CompactionMode::kSCP, 1, 1},
      {"PCP", CompactionMode::kPCP, 1, 1},
      {"S-PPCP k=4", CompactionMode::kSPPCP, 4, 1},
      {"C-PPCP k=4", CompactionMode::kCPPCP, 1, 4},
  };

  std::printf("%-14s", "config");
  for (const PhaseSpec& p : phases) std::printf("  %28s", p.name);
  std::printf("\n");

  std::vector<RunResult> static_results;
  for (const RunConfig& cfg : statics) {
    static_results.push_back(RunPhased(cfg, phases));
    std::printf("%-14s", cfg.label);
    for (const PhaseResult& r : static_results.back().phases) {
      std::printf("  %22.2f MiB/s", r.mib_s);
    }
    std::printf("\n");
  }

  RunConfig adaptive_cfg;
  adaptive_cfg.label = "adaptive";
  const RunResult adaptive = RunPhased(adaptive_cfg, phases);
  std::printf("%-14s", adaptive_cfg.label);
  for (const PhaseResult& r : adaptive.phases) {
    std::printf("  %22.2f MiB/s", r.mib_s);
  }
  std::printf("\n\n");

  std::printf("SCHEDULER %s\n", adaptive.scheduler_json.c_str());
  std::printf("ADVISOR %s\n\n", adaptive.advisor_json.c_str());

  bool gate_ok = true;
  for (size_t p = 0; p < phases.size(); p++) {
    double best = 0;
    const char* best_label = "";
    for (size_t c = 0; c < statics.size(); c++) {
      if (static_results[c].phases[p].mib_s > best) {
        best = static_results[c].phases[p].mib_s;
        best_label = statics[c].label;
      }
    }
    const double ratio =
        best > 0 ? adaptive.phases[p].mib_s / best : 1.0;
    const bool ok = ratio >= kGate;
    gate_ok = gate_ok && ok;
    std::printf("GATE %-40s oracle=%s (%.2f MiB/s)  adaptive/oracle=%.2fx  "
                "[%s]\n",
                phases[p].name, best_label, best, ratio,
                ok ? "pass" : "FAIL");
  }
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace pipelsm::bench

int main(int argc, char** argv) { return pipelsm::bench::Main(argc, argv); }
