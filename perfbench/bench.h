// Interface between the benchmark's entry point (main.cc), its workloads
// (workloads.cc) and its layer passes (layers.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    // scratch space for posix databases and files
  std::string trace_path;  // benchmark spans (Chrome trace JSON)
  std::string store_trace_path;  // the store's own compaction spans
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Everything one run produces. `metrics` holds the end-to-end metrics of
// BENCHMARK.json, `detail` the per-operation numbers behind them, and
// `layers` the per-layer metrics of a traced run.
struct RunResult {
  bool correct = true;
  std::vector<std::string> mismatches;  // first few, for the report
  uint64_t mismatch_count = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<Metric> layers;
  std::vector<std::pair<std::string, std::string>> info;  // provenance

  void Mismatch(const std::string& what);
  void Add(std::vector<Metric>* to, const std::string& name,
           const std::string& unit, double value) {
    to->push_back(Metric{name, unit, value});
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
};

void RunIngest(const RunConfig& cfg, RunResult* out);
void RunPointRead(const RunConfig& cfg, RunResult* out);
void RunServedMixed(const RunConfig& cfg, RunResult* out);

// Direct calls into each module's public API on workload-shaped data;
// appends the layer-pass metrics to out->layers.
void RunLayerPasses(const RunConfig& cfg, RunResult* out);

}  // namespace perfbench
