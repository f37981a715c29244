// pipelsm_perfbench: runs one benchmark workload against the store and
// writes every metric it measured as one JSON document.
//
//   pipelsm_perfbench --workload ingest|point_read|served_mixed --seed N
//       --seconds S --trace 0|1 --work-dir DIR --out FILE
//       [--trace-file FILE] [--store-trace-file FILE]
//   pipelsm_perfbench --list-metrics
//
// run.py builds this binary, runs it, and turns its document into the
// benchmark's report and result line. Exit status: 0 when every output
// matched the generator, 2 on a mismatch (the document is still written),
// 1 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>

#include "bench.h"
#include "harness.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
  const char* layer;      // module, or "end_to_end"
  const char* measured;   // workloads that exercise it
  const char* moves;      // the end-to-end metric it should move
  const char* flat_on;    // workloads where it should stay flat
  const char* source;
};

// End-to-end metrics: every workload reports each one. The workload
// decides which operation a latency or throughput metric times (README).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "lower", "end_to_end", "all", "", "",
     "open + preload + server start, median of the run's set-ups"},
    {"ops_s", "1/s", "higher", "end_to_end", "all", "", "",
     "ingest: puts / (first put .. drain done); point_read: gets + scans "
     "per s; served_mixed: highest ladder rate meeting the GET p99 limit"},
    {"op_p50_us", "us", "lower", "end_to_end", "all", "", "",
     "p50 of the headline op: put (ingest), get (point_read), GET from due "
     "time at the reference rate (served_mixed)"},
    {"op_p99_us", "us", "lower", "end_to_end", "all", "", "",
     "p99 of the same operation"},
    {"write_amp", "ratio", "lower", "end_to_end", "all", "", "",
     "flush + compaction bytes written / user bytes written, over the "
     "phase that writes"},
    {"space_amp", "ratio", "lower", "end_to_end", "all", "", "",
     "live table bytes after background work / live user bytes"},
    {"peak_rss_mib", "MiB", "lower", "end_to_end", "all", "", "",
     "peak resident set of the benchmark process"},
};

const MetricSpec kPerLayer[] = {
    {"compaction.mib_s", "MiB/s", "higher", "compaction", "ingest,served_mixed",
     "ops_s on ingest", "point_read", "GetCompactionMetrics deltas"},
    {"compaction.busy_frac", "ratio", "lower", "compaction",
     "ingest,served_mixed", "ops_s on ingest", "point_read",
     "GetCompactionMetrics deltas"},
    {"compaction.s1_ms_per_mib", "ms/MiB", "lower", "compaction",
     "ingest,served_mixed", "ops_s on ingest", "point_read",
     "StepProfile nanos / bytes"},
    {"compaction.s2_ms_per_mib", "ms/MiB", "lower", "compaction",
     "ingest,served_mixed", "ops_s on ingest", "point_read",
     "StepProfile nanos / bytes"},
    {"compaction.s3_ms_per_mib", "ms/MiB", "lower", "compaction",
     "ingest,served_mixed", "ops_s on ingest", "point_read",
     "StepProfile nanos / bytes"},
    {"compaction.s4_ms_per_mib", "ms/MiB", "lower", "compaction",
     "ingest,served_mixed", "ops_s on ingest", "point_read",
     "StepProfile nanos / bytes"},
    {"compaction.s5_ms_per_mib", "ms/MiB", "lower", "compaction",
     "ingest,served_mixed", "ops_s on ingest", "point_read",
     "StepProfile nanos / bytes"},
    {"compaction.s6_ms_per_mib", "ms/MiB", "lower", "compaction",
     "ingest,served_mixed", "ops_s on ingest", "point_read",
     "StepProfile nanos / bytes"},
    {"compaction.s7_ms_per_mib", "ms/MiB", "lower", "compaction",
     "ingest,served_mixed", "ops_s on ingest", "point_read",
     "StepProfile nanos / bytes"},
    {"compaction.exec_scp_mib_s", "MiB/s", "higher", "compaction", "all",
     "compaction.mib_s, then ops_s on ingest", "point_read",
     "layer pass: NewCompactionExecutor(kSCP)->Run"},
    {"compaction.exec_pcp_mib_s", "MiB/s", "higher", "compaction", "all",
     "compaction.mib_s, then ops_s on ingest", "point_read",
     "layer pass: NewCompactionExecutor(kPCP)->Run"},
    {"compaction.exec_cppcp2_mib_s", "MiB/s", "higher", "compaction", "all",
     "compaction.mib_s, then ops_s on ingest", "point_read",
     "layer pass: NewCompactionExecutor(kCPPCP), k=2"},
    {"compaction.model_error_pct", "%", "lower", "compaction",
     "ingest,served_mixed", "none (honesty of Eqs. 1-7)", "",
     "pipelsm.advisor pcp_model_error_pct"},
    {"db.stall_s", "s", "lower", "db", "ingest,served_mixed",
     "op_p99_us, ops_s on ingest", "point_read", "CompactionMetrics"},
    {"db.flushes", "count", "lower", "db", "ingest,served_mixed",
     "op_p99_us, ops_s on ingest", "point_read", "CompactionMetrics"},
    {"db.compactions", "count", "lower", "db", "ingest,served_mixed",
     "op_p99_us, ops_s on ingest", "point_read", "CompactionMetrics"},
    {"version.sorted_runs_setup", "count", "lower", "version", "all",
     "op_p50_us on served_mixed", "", "num-files-at-level<N> after setup"},
    {"version.sorted_runs", "count", "lower", "version", "all",
     "op_p50_us on served_mixed", "", "num-files-at-level<N> after the run"},
    {"memtable.insert_ns", "ns", "lower", "memtable", "all",
     "op_p50_us on ingest", "point_read", "layer pass: MemTable::Add"},
    {"memtable.get_ns", "ns", "lower", "memtable", "all",
     "op_p50_us on served_mixed", "point_read", "layer pass: MemTable::Get"},
    {"wal.append_ns", "ns", "lower", "wal", "all",
     "op_p50_us on ingest", "point_read",
     "layer pass: log::Writer::AddRecord of one-put batches, posix"},
    {"util.crc32c_gib_s", "GiB/s", "higher", "util", "all",
     "S2/S6, then ops_s on ingest; op_p50_us on point_read", "",
     "layer pass: crc32c::Value on 4 KiB blocks"},
    {"compress.lz_compress_mib_s", "MiB/s", "higher", "compress", "all",
     "S5, then ops_s on ingest", "", "layer pass: lz::Compress"},
    {"compress.lz_decompress_mib_s", "MiB/s", "higher", "compress", "all",
     "S3, then ops_s on ingest; op_p50_us on point_read", "",
     "layer pass: lz::Uncompress"},
    {"compress.ratio", "ratio", "higher", "compress", "all",
     "space_amp, write_amp", "", "layer pass: raw / compressed bytes"},
    {"table.block_build_mib_s", "MiB/s", "higher", "table", "all",
     "S5, then ops_s on ingest", "", "layer pass: TableBuilder"},
    {"table.merge_k2_mitems_s", "Mitems/s", "higher", "table", "all",
     "S4, then ops_s on ingest; scan latency on point_read", "",
     "layer pass: MergingIterator over 2 blocks"},
    {"table.merge_k8_mitems_s", "Mitems/s", "higher", "table", "all",
     "S4, then ops_s on ingest; scan latency on point_read", "",
     "layer pass: MergingIterator over 8 blocks"},
    {"table.get_ns", "ns", "lower", "table", "all", "op_p50_us on point_read",
     "", "layer pass: Table::InternalGet, no block cache"},
    {"table.filter_fp_rate", "ratio", "lower", "table", "all",
     "op_p50_us on point_read", "", "layer pass: bloom KeyMayMatch, absent"},
    {"read.block_hit_rate", "ratio", "higher", "read",
     "point_read,served_mixed", "op_p50_us / op_p99_us on point_read, "
     "served_mixed", "ingest", "pipelsm.cache deltas"},
    {"read.blocks_per_get", "count", "lower", "read",
     "point_read,served_mixed", "op_p50_us / op_p99_us on point_read, "
     "served_mixed", "ingest", "(hits + misses) / Gets"},
    {"read.cache_lookup_ns", "ns", "lower", "read", "all",
     "op_p50_us on point_read, served_mixed", "ingest",
     "layer pass: read::Cache::Lookup from 2 threads"},
    {"env.append_mib_s", "MiB/s", "higher", "env", "all", "S7 on ingest", "",
     "layer pass: posix WritableFile::Append"},
    {"env.rand_read_us", "us", "lower", "env", "all",
     "op_p50_us on point_read", "",
     "layer pass: posix RandomAccessFile::Read, 4 KiB"},
    {"env.sim_busy_frac", "ratio", "lower", "env", "ingest", "S1/S7 on ingest",
     "", "SimDevice stats busy_nanos / window"},
    {"server.get_req_p50_us", "us", "lower", "server", "all",
     "op_p50_us on served_mixed", "",
     "layer pass: server.req_micros.get p50, GETs over loopback"},
    {"server.group_commit_batch_avg", "count", "higher", "server", "all",
     "put latency on served_mixed", "",
     "layer pass: server.group_commit.batch_size avg, pipelined PUTs"},
    {"client.ping_rtt_us", "us", "lower", "client", "all",
     "op_p50_us on served_mixed", "",
     "layer pass: PING from due time, open loop at 2000/s"},
    {"client.overhead_us", "us", "lower", "client", "all",
     "op_p50_us on served_mixed", "",
     "layer pass: client GET p50 minus server GET p50"},
    {"harness.gen_late_p99_us", "us", "lower", "harness", "all", "", "",
     "layer pass: open-loop generator lateness"},
    {"harness.trace_overhead_pct", "%", "lower", "harness", "all", "", "",
     "traced vs untraced headline p50"},
};

std::string SpecJson(const MetricSpec& m) {
  return "{\"name\":" + JsonString(m.name) + ",\"unit\":" + JsonString(m.unit) +
         ",\"better\":" + JsonString(m.better) +
         ",\"layer\":" + JsonString(m.layer) +
         ",\"measured_on\":" + JsonString(m.measured) +
         ",\"moves\":" + JsonString(m.moves) +
         ",\"flat_on\":" + JsonString(m.flat_on) +
         ",\"source\":" + JsonString(m.source) + "}";
}

std::string ListMetrics() {
  std::string out = "{\"end_to_end\":[";
  bool first = true;
  for (const MetricSpec& m : kEndToEnd) {
    out += (first ? "" : ",") + SpecJson(m);
    first = false;
  }
  out += "],\"per_layer\":[";
  first = true;
  for (const MetricSpec& m : kPerLayer) {
    out += (first ? "" : ",") + SpecJson(m);
    first = false;
  }
  return out + "]}\n";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : metrics) {
    out += (first ? "" : ",") + JsonString(m.name) +
           ":{\"value\":" + JsonDouble(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
    first = false;
  }
  return out + "}";
}

// Puts the table's metrics in table order; a metric the workload did not
// produce is reported as 0 and listed in `missing`.
std::vector<Metric> Complete(const std::vector<Metric>& got,
                             const MetricSpec* begin, const MetricSpec* end,
                             std::vector<std::string>* missing) {
  std::vector<Metric> out;
  for (const MetricSpec* m = begin; m != end; m++) {
    const Metric* found = nullptr;
    for (const Metric& g : got) {
      if (g.name == m->name) found = &g;
    }
    if (found != nullptr) {
      out.push_back(Metric{m->name, m->unit, found->value});
    } else {
      out.push_back(Metric{m->name, m->unit, 0});
      missing->push_back(m->name);
    }
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pipelsm_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --out FILE [--trace-file F] "
               "[--store-trace-file F]\n"
               "       pipelsm_perfbench --list-metrics\n");
  return 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string out_path;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      std::fputs(ListMetrics().c_str(), stdout);
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else if (a == "--out") {
      out_path = v;
    } else if (a == "--trace-file") {
      cfg.trace_path = v;
    } else if (a == "--store-trace-file") {
      cfg.store_trace_path = v;
    } else {
      return Usage();
    }
  }
  if (cfg.workload.empty() || cfg.work_dir.empty() || out_path.empty() ||
      cfg.seconds <= 0) {
    return Usage();
  }

  Tracer tracer(100000);
  if (cfg.trace) g_tracer = &tracer;
  SetTracing(cfg.trace);
  RunResult result;
  {
    Span root("run");
    Tracer::SetThreadParent(root.id());
    if (cfg.workload == "ingest") {
      RunIngest(cfg, &result);
    } else if (cfg.workload == "point_read") {
      RunPointRead(cfg, &result);
    } else if (cfg.workload == "served_mixed") {
      RunServedMixed(cfg, &result);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", cfg.workload.c_str());
      return Usage();
    }
    if (cfg.trace && result.correct) {
      SetTracing(true);
      RunLayerPasses(cfg, &result);
      SetTracing(false);
    }
  }
  result.Add(&result.metrics, "peak_rss_mib", "MiB", PeakRssMiB());

  std::vector<std::string> missing_e2e, not_exercised;
  const std::vector<Metric> metrics =
      Complete(result.metrics, std::begin(kEndToEnd), std::end(kEndToEnd),
               &missing_e2e);
  std::vector<Metric> layers;
  if (cfg.trace) {
    layers = Complete(result.layers, std::begin(kPerLayer),
                      std::end(kPerLayer), &not_exercised);
  }
  if (!missing_e2e.empty() && result.correct) {
    result.Mismatch("workload produced no " + missing_e2e.front());
  }

  std::string doc = "{\"workload\":" + JsonString(cfg.workload) +
                    ",\"seed\":" + std::to_string(cfg.seed) +
                    ",\"seconds\":" + JsonDouble(cfg.seconds) +
                    ",\"trace\":" + (cfg.trace ? "1" : "0") +
                    ",\"correct\":" + (result.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(result.attempted) +
                    ",\"failed\":" + std::to_string(result.failed) +
                    ",\"mismatch_count\":" +
                    std::to_string(result.mismatch_count) +
                    ",\"mismatches\":[";
  for (size_t i = 0; i < result.mismatches.size(); i++) {
    doc += (i ? "," : "") + JsonString(result.mismatches[i]);
  }
  doc += "],\"metrics\":" + MetricsJson(metrics) +
         ",\"detail\":" + MetricsJson(result.detail) +
         ",\"layers\":" + MetricsJson(layers) + ",\"not_exercised\":[";
  for (size_t i = 0; i < not_exercised.size(); i++) {
    doc += (i ? "," : "") + JsonString(not_exercised[i]);
  }
  doc += "],\"info\":{";
  std::set<std::string> seen;
  bool first = true;
  // Later values of a key (e.g. per-cycle) replace earlier ones.
  for (auto it = result.info.rbegin(); it != result.info.rend(); ++it) {
    if (!seen.insert(it->first).second) continue;
    doc += (first ? "" : ",") + JsonString(it->first) + ":" +
           JsonString(it->second);
    first = false;
  }
  doc += "}";
  if (cfg.trace) {
    doc += ",\"trace_spans\":{\"stored\":" + std::to_string(tracer.stored()) +
           ",\"dropped\":" + std::to_string(tracer.dropped()) + "}";
  }
  doc += "}\n";

  if (cfg.trace && !cfg.trace_path.empty() &&
      !tracer.WriteFile(cfg.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", cfg.trace_path.c_str());
  }
  std::ofstream f(out_path, std::ios::trunc);
  f << doc;
  f.close();
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return result.correct ? 0 : 2;
}
