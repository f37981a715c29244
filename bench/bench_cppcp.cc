// E8 — Figure 12(d)-(f): Computation-Parallel PCP on SSD with 1..6
// compute threads — IOPS, compaction bandwidth and speedup vs threads.
//
// Paper's shape to reproduce: one extra compute thread lifts throughput,
// after which the pipeline becomes I/O-bound and more threads stop
// helping (and slightly hurt, via thread creation/synchronization
// overhead).
//
// Host note (see DESIGN.md §Substitutions): the executor sweep needs more
// compute workers than a small host has cores, so it runs in slow-motion
// mode (time_dilation = 8): each compute stage sleeps 7x its real CPU
// time and the SSD model is slowed by the same factor, preserving every
// stage-time ratio while letting k compute workers overlap for real. The
// IOPS column is a live DB in real time, on the host's own cores.
#include "bench_common.h"

using namespace pipelsm;
using namespace pipelsm::bench;

int main() {
  constexpr double kDilation = 8.0;

  PrintHeader(
      "bench_cppcp — C-PPCP vs compute-thread count (SSD, slow-motion x8)",
      "Figure 12(d)-(f)",
      "expect: big gain at 2 threads, then an I/O-bound plateau at the "
      "knee predicted by Eq. 6/7 (printed as 'model knee')");

  CompactionBenchConfig base;
  base.device = DeviceProfile::Ssd();
  base.mode = CompactionMode::kPCP;
  base.time_dilation = kDilation;
  base.upper_bytes = static_cast<uint64_t>((2 << 20) * Scale());
  base.lower_bytes = static_cast<uint64_t>((4 << 20) * Scale());
  base.subtask_bytes = 256 << 10;
  CompactionRun pcp1 = RunCompaction(base);
  model::StepTimes steps = model::StepTimes::FromProfile(pcp1.profile);
  std::printf("model knee: %d threads (Eq. 6 crossover); max ideal speedup "
              "%.2fx\n",
              model::CppcpSaturationThreads(steps),
              model::CppcpIdealSpeedup(steps, 1000));

  std::printf("\n%-8s %14s %9s %9s %12s\n", "threads", "bw MiB/s", "speedup",
              "ideal", "IOPS");
  for (int threads = 1; threads <= 6; threads++) {
    CompactionBenchConfig cfg = base;
    cfg.mode = threads == 1 ? CompactionMode::kPCP : CompactionMode::kCPPCP;
    cfg.compute_parallelism = threads;
    CompactionRun run = RunCompaction(cfg);

    DbBenchConfig dbcfg;
    dbcfg.device = DeviceProfile::Ssd();
    dbcfg.mode = cfg.mode;
    dbcfg.compute_parallelism = threads;
    dbcfg.num_entries = static_cast<uint64_t>(10000 * Scale());
    DbRun db = RunDbFill(dbcfg);

    std::printf("%-8d %14.1f %8.2fx %8.2fx %12.0f\n", threads,
                run.bandwidth_mib_s,
                pcp1.bandwidth_mib_s > 0
                    ? run.bandwidth_mib_s / pcp1.bandwidth_mib_s
                    : 0,
                model::CppcpIdealSpeedup(steps, threads), db.iops);
  }
  return 0;
}
