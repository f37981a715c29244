// E4 — Figure 10(a)-(f): SCP vs PCP as the working set grows, on HDD and
// on SSD. Panels: (a)(d) system IOPS, (b)(e) compaction bandwidth,
// (c)(f) normalized speedups.
//
// Paper's numbers to reproduce in shape: PCP improves IOPS by >=25% on
// HDD and >=45% on SSD; compaction bandwidth by >=45% (HDD) and >=65%
// (SSD); throughput speedup trails bandwidth speedup (non-compaction work
// is not pipelined); practical speedup sits below the Eq. 3 ideal by
// roughly the pipeline fill/drain overhead.
//
// Scale note: the paper sweeps 10M..80M entries on a 2013 server; this
// bench sweeps a proportionally scaled dataset (PIPELSM_BENCH_SCALE
// multiplies it).
#include "bench_common.h"

using namespace pipelsm;
using namespace pipelsm::bench;

namespace {

void RunDevice(const char* label, const DeviceProfile& device,
               size_t subtask_bytes) {
  std::printf("\n--- %s ---\n", label);
  std::printf("%-10s %12s %12s %14s %14s %9s %9s %9s\n", "entries",
              "SCP IOPS", "PCP IOPS", "SCP bw MiB/s", "PCP bw MiB/s",
              "IOPS spd", "bw spd", "ideal");

  const uint64_t base = static_cast<uint64_t>(10000 * Scale());
  for (uint64_t entries : {base, 2 * base, 4 * base, 8 * base}) {
    DbRun runs[2];
    model::StepTimes scp_steps;
    for (int m = 0; m < 2; m++) {
      DbBenchConfig cfg;
      cfg.device = device;
      cfg.mode = m == 0 ? CompactionMode::kSCP : CompactionMode::kPCP;
      cfg.num_entries = entries;
      cfg.subtask_bytes = subtask_bytes;
      runs[m] = RunDbFillMedian(cfg);
      if (m == 0) {
        scp_steps = model::StepTimes::FromProfile(runs[0].metrics.profile);
      }
    }
    const double iops_speedup =
        runs[0].iops > 0 ? runs[1].iops / runs[0].iops : 0;
    const double bw_speedup = runs[0].compaction_mib_s > 0
                                  ? runs[1].compaction_mib_s /
                                        runs[0].compaction_mib_s
                                  : 0;
    std::printf("%-10llu %12.0f %12.0f %14.1f %14.1f %8.2fx %8.2fx %8.2fx\n",
                static_cast<unsigned long long>(entries), runs[0].iops,
                runs[1].iops, runs[0].compaction_mib_s,
                runs[1].compaction_mib_s, iops_speedup, bw_speedup,
                model::PcpIdealSpeedup(scp_steps));
  }
}

}  // namespace

int main() {
  PrintHeader(
      "bench_pcp_vs_scp — SCP vs PCP across dataset sizes",
      "Figure 10(a)-(c) on HDD, Figure 10(d)-(f) on SSD",
      "expect: PCP IOPS +>=25% (HDD) / +>=45% (SSD); PCP compaction "
      "bandwidth +>=45% (HDD) / +>=65% (SSD); measured < ideal (Eq. 3)");
  // Sub-task sizes match each device's regime: seek-dominated HDDs need
  // larger I/Os (Fig 9a), SSDs peak near small-to-middle sizes (Fig 11a).
  RunDevice("HDD (Fig 10 a-c)", DeviceProfile::Hdd(), 256 << 10);
  RunDevice("SSD (Fig 10 d-f)", DeviceProfile::Ssd(), 64 << 10);
  return 0;
}
