// The three workloads: ingest (compaction-bound writes on the simulated
// SSD), point_read (the read path over a bulk-loaded tree on posix) and
// served_mixed (an in-process server driven by an open-loop client).
// Every result the store returns is checked against the generator.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "harness.h"
#include "src/client/client.h"
#include "src/db/db.h"
#include "src/env/env.h"
#include "src/env/sim_env.h"
#include "src/server/server.h"
#include "src/workload/generator.h"

namespace perfbench {

void RunResult::Mismatch(const std::string& what) {
  correct = false;
  mismatch_count++;
  if (mismatches.size() < 8) mismatches.push_back(what);
}

namespace {

using pipelsm::CompactionMetrics;
using pipelsm::DB;
using pipelsm::Env;
using pipelsm::Iterator;
using pipelsm::Options;
using pipelsm::Slice;
using pipelsm::Status;

// Paper §IV-A record shape.
constexpr size_t kKeySize = 16;
constexpr size_t kValueSize = 100;
constexpr double kCompressibility = 0.5;
constexpr double kRecordBytes = kKeySize + kValueSize;

// Keys loaded per ingest cycle (each is written twice): a 2M-key fill,
// big enough that the leveled tree holds a full L2 and spills into L3
// (about 0,5,50,14 files on L0-L3 after the drain, write amp 3.6), so
// L1->L2 and L2->L3 merges both run.
constexpr uint64_t kIngestKeys = 2000000;
// Fresh-store opens per ingest run; setup_s is their median.
constexpr int kIngestSetups = 5;
// Present keys of the bulk-loaded tree of point_read and served_mixed.
constexpr uint64_t kLoadedKeys = 1100000;
// Set-ups per posix workload run; setup_s is their median.
constexpr int kSetups = 3;
// Reader threads of point_read.
constexpr int kReaders = 2;
// Entries a point_read scan visits (Seek + 50 Next).
constexpr int kScanEntries = 51;
// Slices of a measured window for the median-of-slices p99.
constexpr int kWindows = 10;

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The i-th key of the key space: 16 zero-padded decimal digits, so key
// order is index order.
std::string Key(uint64_t i) {
  static const pipelsm::WorkloadGenerator gen(1, kKeySize, kValueSize,
                                              pipelsm::KeyOrder::kSequential);
  return gen.Key(i);
}

// The value of version `version` of key i under the run's seed.
std::string Value(uint64_t seed, uint64_t i, uint32_t version) {
  uint64_t state = seed * 0x100000001b3ULL + version;
  const pipelsm::WorkloadGenerator gen(
      1, kKeySize, kValueSize, pipelsm::KeyOrder::kSequential,
      static_cast<uint32_t>(SplitMix(&state)), kCompressibility);
  return gen.Value(i);
}

// A seeded Fisher-Yates permutation of [0, n).
std::vector<uint64_t> Permutation(uint64_t n, uint64_t seed) {
  std::vector<uint64_t> p(n);
  for (uint64_t i = 0; i < n; i++) p[i] = i;
  uint64_t state = seed;
  for (uint64_t i = n; i > 1; i--) {
    std::swap(p[i - 1], p[SplitMix(&state) % i]);
  }
  return p;
}

std::string FilesPerLevel(DB* db) {
  std::string out;
  for (int level = 0; level < 7; level++) {
    std::string v;
    if (!db->GetProperty("pipelsm.num-files-at-level" + std::to_string(level),
                         &v)) {
      break;
    }
    if (!out.empty()) out += ",";
    out += v;
  }
  return out;
}

// L0 files plus non-empty deeper levels: the runs a point read may probe.
int SortedRuns(DB* db) {
  int runs = 0;
  for (int level = 0; level < 7; level++) {
    std::string v;
    if (!db->GetProperty("pipelsm.num-files-at-level" + std::to_string(level),
                         &v)) {
      break;
    }
    const int files = std::atoi(v.c_str());
    runs += level == 0 ? files : (files > 0 ? 1 : 0);
  }
  return runs;
}

uint64_t TableBytes(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  uint64_t total = 0;
  if (!env->GetChildren(dir, &children).ok()) return 0;
  for (const std::string& name : children) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".pst") == 0) {
      uint64_t size = 0;
      if (env->GetFileSize(dir + "/" + name, &size).ok()) total += size;
    }
  }
  return total;
}

std::string Property(DB* db, const std::string& name) {
  std::string v;
  db->GetProperty(name, &v);
  return v;
}

void AddLatency(RunResult* out, const std::string& prefix,
                const LatencySummary& s) {
  out->Add(&out->detail, prefix + "_p50_us", "us", s.p50);
  out->Add(&out->detail, prefix + "_p99_us", "us", s.p99);
  out->Add(&out->detail, prefix + "_count", "count", s.count);
  out->Add(&out->detail, prefix + "_tail_pct", "%", s.tail_pct);
  out->Add(&out->detail, prefix + "_tail_us", "us", s.tail);
}

// Per-layer metrics derived from the store's compaction counters over a
// window of `window_ns`.
void AddCompactionLayers(RunResult* out, const CompactionMetrics& a,
                         const CompactionMetrics& b, uint64_t window_ns) {
  const pipelsm::StepProfile& pa = a.profile;
  const pipelsm::StepProfile& pb = b.profile;
  const double in_mib = (pb.input_bytes - pa.input_bytes) / 1048576.0;
  const double wall_s = (pb.wall_nanos - pa.wall_nanos) * 1e-9;
  out->Add(&out->layers, "compaction.mib_s", "MiB/s",
           wall_s > 0 ? in_mib / wall_s : 0);
  out->Add(&out->layers, "compaction.busy_frac", "ratio",
           window_ns > 0 ? wall_s * 1e9 / window_ns : 0);
  for (int s = 0; s < pipelsm::kNumSteps; s++) {
    const double mib = (pb.bytes[s] - pa.bytes[s]) / 1048576.0;
    const double ms = (pb.nanos[s] - pa.nanos[s]) * 1e-6;
    out->Add(&out->layers, "compaction.s" + std::to_string(s + 1) +
                               "_ms_per_mib",
             "ms/MiB", mib > 0 ? ms / mib : 0);
  }
  out->Add(&out->layers, "db.stall_s", "s",
           (b.stall_micros - a.stall_micros) * 1e-6);
  out->Add(&out->layers, "db.flushes", "count",
           b.memtable_flushes - a.memtable_flushes);
  out->Add(&out->layers, "db.compactions", "count",
           b.compactions - a.compactions);
}

double ModelErrorPct(DB* db) {
  return JsonNumberAt(Property(db, "pipelsm.advisor"),
                      {"pcp_model_error_pct"});
}

void AddModelError(RunResult* out, double pct) {
  out->Add(&out->layers, "compaction.model_error_pct", "%", pct);
}

struct CacheCounts {
  double hits = 0;
  double misses = 0;
};

CacheCounts BlockCache(DB* db) {
  const std::string json = Property(db, "pipelsm.cache");
  return CacheCounts{JsonNumberAt(json, {"block", "hits"}),
                     JsonNumberAt(json, {"block", "misses"})};
}

void AddCacheLayers(RunResult* out, const CacheCounts& a, const CacheCounts& b,
                    double gets) {
  const double hits = b.hits - a.hits;
  const double lookups = hits + (b.misses - a.misses);
  out->Add(&out->layers, "read.block_hit_rate", "ratio",
           lookups > 0 ? hits / lookups : 0);
  out->Add(&out->layers, "read.blocks_per_get", "count",
           gets > 0 ? lookups / gets : 0);
}

std::unique_ptr<DB> OpenDb(const Options& options, const std::string& path,
                           RunResult* out) {
  DB* raw = nullptr;
  Status s;
  {
    Span span("db.Open");
    s = DB::Open(options, path, &raw);
  }
  if (!s.ok()) {
    out->Mismatch("open " + path + ": " + s.ToString());
    return nullptr;
  }
  return std::unique_ptr<DB>(raw);
}

// ------------------------------------------------------------------ ingest

struct IngestCycle {
  bool traced = false;
  double ops_s = 0;
  double write_amp = 0;
  double space_amp = 0;
  double sim_busy_frac = 0;
  double drain_s = 0;
  bool last = false;
  int sorted_runs_setup = 0;
  int sorted_runs = 0;
  double model_error_pct = 0;
  uint64_t window_ns = 0;
  CompactionMetrics metrics;
  LatencyHistogram put_latency;
  LatencySummary put;
};

// Writes `order`'s keys at `version`, timing each put.
void PutAll(DB* db, const std::vector<uint64_t>& order, uint64_t seed,
            uint32_t version, IngestCycle* cycle, RunResult* out) {
  pipelsm::WriteOptions wo;  // WAL on, sync=false
  for (uint64_t i : order) {
    const std::string key = Key(i);
    const std::string value = Value(seed, i, version);
    const uint64_t t0 = NowNs();
    Status s;
    {
      Span span("db.Put");
      s = db->Put(wo, key, value);
    }
    cycle->put_latency.Add((NowNs() - t0) / 1e3);
    out->attempted++;
    if (!s.ok()) out->failed++;
  }
}

// Reopens the drained store and scans it end to end: every key must hold
// its overwrite, and count and digest must match the generator's.
void VerifyIngest(const Options& base, const std::string& path, uint64_t n,
                  uint64_t seed, RunResult* out) {
  Span span("verify");
  Options options = base;
  options.trace_path.clear();
  std::unique_ptr<DB> db = OpenDb(options, path, out);
  if (db == nullptr) return;
  // The expected entries are generated once each, alongside the scan.
  uint64_t expected_digest = kFnvBasis, digest = kFnvBasis, count = 0;
  auto expect = [&](uint64_t i) {
    const std::string k = Key(i), v = Value(seed, i, 1);
    expected_digest = Fnv1a(expected_digest, k.data(), k.size());
    expected_digest = Fnv1a(expected_digest, v.data(), v.size());
    return std::make_pair(k, v);
  };
  std::unique_ptr<Iterator> it(db->NewIterator(pipelsm::ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const Slice k = it->key(), v = it->value();
    digest = Fnv1a(digest, k.data(), k.size());
    digest = Fnv1a(digest, v.data(), v.size());
    if (count < n) {
      const auto want = expect(count);
      if (k != Slice(want.first) || v != Slice(want.second)) {
        out->Mismatch("ingest scan: wrong entry at position " +
                      std::to_string(count));
      }
    }
    count++;
  }
  if (!it->status().ok()) {
    out->Mismatch("ingest scan: " + it->status().ToString());
  }
  for (uint64_t i = count; i < n; i++) expect(i);
  if (count != n) {
    out->Mismatch("ingest scan: " + std::to_string(count) + " keys, want " +
                  std::to_string(n));
  }
  if (digest != expected_digest) out->Mismatch("ingest scan: digest differs");
}

// Runs one cycle after `measured_s` of earlier cycles. The run's last
// cycle is the one whose end lies closest to cfg.seconds of measured time
// (a traced run takes at least two, one untraced); it ends with the output
// check.
IngestCycle RunIngestCycle(const RunConfig& cfg, int index, bool traced,
                           double measured_s, RunResult* out) {
  IngestCycle cycle;
  cycle.traced = traced;
  const uint64_t n = kIngestKeys;
  const uint64_t seed = cfg.seed * 1000 + index;
  const std::vector<uint64_t> load = Permutation(n, seed * 2 + 1);
  const std::vector<uint64_t> overwrite = Permutation(n, seed * 2 + 2);

  pipelsm::SimEnv env(pipelsm::DeviceProfile::Ssd());
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  if (traced && !cfg.store_trace_path.empty()) {
    options.trace_path = cfg.store_trace_path;
    out->Info("store_trace_epoch_ns", std::to_string(NowNs()));
  }
  const std::string path = "/ingest";

  SetTracing(traced);
  Span cycle_span("ingest.cycle");
  std::unique_ptr<DB> db = OpenDb(options, path, out);
  if (db == nullptr) return cycle;
  cycle.sorted_runs_setup = SortedRuns(db.get());

  const CompactionMetrics before = db->GetCompactionMetrics();
  env.device()->ResetStats();
  const uint64_t t0 = NowNs();
  {
    Span span("load");
    PutAll(db.get(), load, seed, 0, &cycle, out);
  }
  {
    Span span("overwrite");
    PutAll(db.get(), overwrite, seed, 1, &cycle, out);
  }
  const uint64_t drain_start = NowNs();
  {
    Span span("drain");
    Span call("db.WaitForCompactions");
    if (!db->WaitForCompactions().ok()) out->failed++;
  }
  cycle.window_ns = NowNs() - t0;
  cycle.drain_s = (NowNs() - drain_start) * 1e-9;
  cycle.ops_s = 2.0 * n / (cycle.window_ns * 1e-9);
  cycle.put = cycle.put_latency.Summarize();
  cycle.metrics = db->GetCompactionMetrics();
  cycle.sim_busy_frac =
      env.device()->stats().busy_nanos.load() / double(cycle.window_ns);
  cycle.write_amp = (cycle.metrics.bytes_written - before.bytes_written) /
                    (2.0 * n * kRecordBytes);
  cycle.space_amp = TableBytes(&env, path) / (n * kRecordBytes);
  out->Info("files_per_level_after_run", FilesPerLevel(db.get()));
  cycle.model_error_pct = ModelErrorPct(db.get());
  cycle.sorted_runs = SortedRuns(db.get());
  db.reset();
  const double done_s = measured_s + cycle.window_ns * 1e-9;
  const double mean_cycle_s = done_s / (index + 1);
  cycle.last = index >= (cfg.trace ? 1 : 0) &&
               done_s + mean_cycle_s / 2 >= cfg.seconds;
  if (cycle.last) VerifyIngest(options, path, n, seed, out);
  SetTracing(false);
  return cycle;
}

}  // namespace

void RunIngest(const RunConfig& cfg, RunResult* out) {
  out->Info("keys_per_cycle", std::to_string(kIngestKeys));
  out->Info("env", "SimEnv DeviceProfile::Ssd()");
  // Each cycle's store is fresh, so set-up is opening an empty store. It
  // takes about a millisecond, so it is timed apart, several times.
  std::vector<double> setup;
  for (int i = 0; i < kIngestSetups; i++) {
    pipelsm::SimEnv env(pipelsm::DeviceProfile::Ssd());
    Options options;
    options.env = &env;
    options.create_if_missing = true;
    Span span("setup");
    const uint64_t t0 = NowNs();
    std::unique_ptr<DB> db = OpenDb(options, "/ingest", out);
    setup.push_back((NowNs() - t0) * 1e-9);
    if (db == nullptr) return;
    if (i == 0) {
      out->Info("files_per_level_after_setup", FilesPerLevel(db.get()));
    }
  }
  std::vector<IngestCycle> cycles;
  double measured_s = 0;
  // Whole cycles until the measured time is closest to cfg.seconds. A
  // traced run alternates untraced and traced cycles so the tracing
  // overhead is measured on the same workload.
  for (int i = 0; cycles.empty() || !cycles.back().last; i++) {
    const bool traced = cfg.trace && i % 2 == 1;
    cycles.push_back(RunIngestCycle(cfg, i, traced, measured_s, out));
    measured_s += cycles.back().window_ns * 1e-9;
    if (!out->correct) break;
  }
  std::vector<double> ops, wamp, samp, p50, p99, drain, traced_p50,
      plain_p50;
  LatencyHistogram all_puts;
  std::string cycle_ops;
  for (const IngestCycle& c : cycles) {
    ops.push_back(c.ops_s);
    wamp.push_back(c.write_amp);
    samp.push_back(c.space_amp);
    p50.push_back(c.put.p50);
    p99.push_back(c.put.p99);
    drain.push_back(c.drain_s);
    (c.traced ? traced_p50 : plain_p50).push_back(c.put.p50);
    all_puts.Merge(c.put_latency);
    cycle_ops += (cycle_ops.empty() ? "" : ",") +
                 std::to_string(int(c.ops_s)) + "/" +
                 std::to_string(int(c.drain_s * 1000)) + "ms";
  }
  out->Info("cycles", std::to_string(cycles.size()));
  out->Info("cycle_ops_s", cycle_ops);
  out->Add(&out->metrics, "setup_s", "s", Median(setup));
  out->Add(&out->metrics, "ops_s", "1/s", Median(ops));
  out->Add(&out->metrics, "op_p50_us", "us", Median(p50));
  out->Add(&out->metrics, "op_p99_us", "us", Median(p99));
  out->Add(&out->metrics, "write_amp", "ratio", Median(wamp));
  out->Add(&out->metrics, "space_amp", "ratio", Median(samp));
  out->Add(&out->detail, "ingest_ops_s", "1/s", Median(ops));
  out->Add(&out->detail, "drain_s", "s", Median(drain));
  AddLatency(out, "put", all_puts.Summarize());

  if (cfg.trace) {
    // Counter-based layer metrics over every cycle's window.
    CompactionMetrics a, b;
    uint64_t window = 0;
    double busy = 0;
    for (const IngestCycle& c : cycles) {
      b.profile.Merge(c.metrics.profile);
      b.compactions += c.metrics.compactions;
      b.memtable_flushes += c.metrics.memtable_flushes;
      b.stall_micros += c.metrics.stall_micros;
      window += c.window_ns;
      busy += c.sim_busy_frac * c.window_ns;
    }
    AddCompactionLayers(out, a, b, window);
    out->Add(&out->layers, "env.sim_busy_frac", "ratio",
             window > 0 ? busy / window : 0);
    out->Add(&out->layers, "version.sorted_runs_setup", "count",
             cycles.back().sorted_runs_setup);
    out->Add(&out->layers, "version.sorted_runs", "count",
             cycles.back().sorted_runs);
    AddModelError(out, cycles.back().model_error_pct);
    const double plain = Median(plain_p50);
    out->Add(&out->layers, "harness.trace_overhead_pct", "%",
             plain > 0 ? (Median(traced_p50) / plain - 1) * 100 : 0);
  }
}

// -------------------------------------------------------------- bulk load

namespace {

Options PosixOptions() {
  Options options;
  options.env = Env::Posix();
  options.create_if_missing = true;
  options.bloom_bits_per_key = 10;
  return options;
}

// Destroys `path` and loads the present keys (even indices) in key order.
// Returns the set-up time: open, load and the wait for background work.
double BulkLoad(const RunConfig& cfg, const Options& options,
                const std::string& path, std::unique_ptr<DB>* db,
                RunResult* out) {
  Span span("setup");
  pipelsm::DestroyDB(path, options);
  const uint64_t t0 = NowNs();
  *db = OpenDb(options, path, out);
  if (*db == nullptr) return 0;
  pipelsm::WriteOptions wo;
  for (uint64_t j = 0; j < kLoadedKeys; j++) {
    if (!(*db)->Put(wo, Key(2 * j), Value(cfg.seed, 2 * j, 0)).ok()) {
      out->Mismatch("bulk load put failed");
      return 0;
    }
  }
  (*db)->WaitForCompactions();
  return (NowNs() - t0) * 1e-9;
}

void RecordSetup(const RunConfig& cfg, DB* db, Env* env,
                 const std::string& path, const std::vector<double>& setups,
                 RunResult* out) {
  out->Info("loaded_keys", std::to_string(kLoadedKeys));
  out->Info("files_per_level_after_setup", FilesPerLevel(db));
  const double table_bytes = TableBytes(env, path);
  out->Info("table_mib_after_setup", std::to_string(table_bytes / 1048576.0));
  out->Add(&out->metrics, "setup_s", "s", Median(setups));
  if (cfg.trace) {
    out->Add(&out->layers, "version.sorted_runs_setup", "count",
             SortedRuns(db));
  }
}

// -------------------------------------------------------------- point_read

struct ReaderStats {
  LatencyHistogram get_us, miss_us, scan_us;
  std::vector<LatencyHistogram> get_windows =
      std::vector<LatencyHistogram>(kWindows);
  uint64_t attempted = 0, failed = 0, gets = 0;
  std::vector<std::string> mismatches;
  uint64_t mismatch_count = 0;
};

void ReaderMain(DB* db, const RunConfig& cfg, uint64_t thread_seed,
                uint64_t start_ns, uint64_t end_ns, uint32_t parent,
                ReaderStats* st) {
  Tracer::SetThreadParent(parent);
  Span thread_span("reader.thread");
  auto mismatch = [&](const std::string& what) {
    st->mismatch_count++;
    if (st->mismatches.size() < 4) st->mismatches.push_back(what);
  };
  uint64_t rng = thread_seed;
  pipelsm::ReadOptions ro;
  std::string value;
  while (NowNs() < end_ns) {
    const uint64_t r = SplitMix(&rng) % 100;
    const uint64_t j = SplitMix(&rng) % kLoadedKeys;
    st->attempted++;
    const uint64_t t0 = NowNs();
    if (r < 90) {
      const bool present = r < 80;
      const uint64_t index = present ? 2 * j : 2 * j + 1;
      Status s;
      {
        Span span("db.Get");
        s = db->Get(ro, Key(index), &value);
      }
      const double us = (NowNs() - t0) / 1e3;
      if (present) {
        st->get_us.Add(us);
        st->get_windows[std::min<uint64_t>(
                            kWindows - 1,
                            (t0 - start_ns) * kWindows / (end_ns - start_ns))]
            .Add(us);
      } else {
        st->miss_us.Add(us);
      }
      st->gets++;
      if (present) {
        if (!s.ok()) {
          st->failed++;
        } else if (value != Value(cfg.seed, index, 0)) {
          mismatch("get " + Key(index) + ": wrong value");
        }
      } else if (!s.IsNotFound()) {
        if (s.ok()) {
          mismatch("get " + Key(index) + ": absent key found");
        } else {
          st->failed++;
        }
      }
    } else {
      const uint64_t want =
          std::min<uint64_t>(kScanEntries, kLoadedKeys - j);
      uint64_t seen = 0;
      bool ok = true;
      {
        Span span("db.Scan");
        std::unique_ptr<Iterator> it(db->NewIterator(ro));
        for (it->Seek(Key(2 * j)); it->Valid() && seen < want;
             it->Next(), seen++) {
          const uint64_t index = 2 * (j + seen);
          if (it->key() != Slice(Key(index)) ||
              it->value() != Slice(Value(cfg.seed, index, 0))) {
            mismatch("scan from " + Key(2 * j) + ": wrong entry " +
                     std::to_string(seen));
            break;
          }
        }
        ok = it->status().ok();
      }
      st->scan_us.Add((NowNs() - t0) / 1e3);
      if (!ok) {
        st->failed++;
      } else if (seen < want && st->mismatch_count == 0) {
        mismatch("scan from " + Key(2 * j) + ": short");
      }
    }
  }
}

struct ReadWindow {
  ReaderStats total;
  double seconds = 0;
};

ReadWindow RunReaders(DB* db, const RunConfig& cfg, double seconds,
                      uint64_t salt) {
  Span span("measure");
  ReadWindow w;
  std::vector<ReaderStats> stats(kReaders);
  std::vector<std::thread> threads;
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
  for (int t = 0; t < kReaders; t++) {
    threads.emplace_back(ReaderMain, db, std::cref(cfg),
                         cfg.seed * 7919 + salt * 131 + t, t0, end, span.id(),
                         &stats[t]);
  }
  for (auto& t : threads) t.join();
  w.seconds = (NowNs() - t0) * 1e-9;
  for (ReaderStats& s : stats) {
    w.total.get_us.Merge(s.get_us);
    w.total.miss_us.Merge(s.miss_us);
    w.total.scan_us.Merge(s.scan_us);
    for (int i = 0; i < kWindows; i++) {
      w.total.get_windows[i].Merge(s.get_windows[i]);
    }
    w.total.attempted += s.attempted;
    w.total.failed += s.failed;
    w.total.gets += s.gets;
    w.total.mismatch_count += s.mismatch_count;
    for (auto& m : s.mismatches) w.total.mismatches.push_back(m);
  }
  return w;
}

void Account(const ReaderStats& st, RunResult* out) {
  out->attempted += st.attempted;
  out->failed += st.failed;
  for (const auto& m : st.mismatches) out->Mismatch(m);
  if (st.mismatch_count > st.mismatches.size()) {
    out->mismatch_count += st.mismatch_count - st.mismatches.size();
  }
}

}  // namespace

void RunPointRead(const RunConfig& cfg, RunResult* out) {
  const std::string path = cfg.work_dir + "/point_read";
  const Options options = PosixOptions();
  out->Info("env", "posix");
  std::unique_ptr<DB> db;
  std::vector<double> setups;
  std::vector<double> write_amp;
  for (int i = 0; i < kSetups && out->correct; i++) {
    db.reset();
    setups.push_back(BulkLoad(cfg, options, path, &db, out));
  }
  if (!out->correct || db == nullptr) return;
  const CompactionMetrics loaded = db->GetCompactionMetrics();
  RecordSetup(cfg, db.get(), options.env, path, setups, out);

  // A traced run first measures a shorter untraced window, for the
  // tracing overhead.
  double plain_p50 = 0;
  if (cfg.trace) {
    SetTracing(false);
    ReadWindow plain = RunReaders(db.get(), cfg, cfg.seconds / 3, 1);
    Account(plain.total, out);
    plain_p50 = plain.total.get_us.Summarize().p50;
  }
  const CompactionMetrics before = db->GetCompactionMetrics();
  const CacheCounts cache_before = BlockCache(db.get());
  SetTracing(cfg.trace);
  const uint64_t t0 = NowNs();
  ReadWindow w = RunReaders(db.get(), cfg, cfg.seconds, 2);
  const uint64_t window_ns = NowNs() - t0;
  SetTracing(false);
  Account(w.total, out);

  const LatencySummary get = w.total.get_us.Summarize();
  const double reads = w.total.get_us.count() + w.total.miss_us.count() +
                       w.total.scan_us.count();
  const double table_bytes = TableBytes(options.env, path);
  out->Add(&out->metrics, "ops_s", "1/s", reads / w.seconds);
  out->Add(&out->metrics, "op_p50_us", "us", get.p50);
  out->Add(&out->metrics, "op_p99_us", "us",
           MedianWindowP99(w.total.get_windows));
  // point_read writes only while loading: the load's bytes written per
  // user byte (1 minus compression savings when no compaction runs).
  out->Add(&out->metrics, "write_amp", "ratio",
           loaded.bytes_written / (kLoadedKeys * kRecordBytes));
  out->Add(&out->metrics, "space_amp", "ratio",
           table_bytes / (kLoadedKeys * kRecordBytes));
  out->Add(&out->detail, "read_ops_s", "1/s", reads / w.seconds);
  AddLatency(out, "get", w.total.get_us.Summarize());
  AddLatency(out, "get_absent", w.total.miss_us.Summarize());
  AddLatency(out, "scan", w.total.scan_us.Summarize());

  if (cfg.trace) {
    AddCompactionLayers(out, before, db->GetCompactionMetrics(), window_ns);
    AddModelError(out, ModelErrorPct(db.get()));
    AddCacheLayers(out, cache_before, BlockCache(db.get()), w.total.gets);
    out->Add(&out->layers, "version.sorted_runs", "count",
             SortedRuns(db.get()));
    out->Add(&out->layers, "harness.trace_overhead_pct", "%",
             plain_p50 > 0 ? (get.p50 / plain_p50 - 1) * 100 : 0);
  }
  out->Info("files_per_level_after_run", FilesPerLevel(db.get()));
  db.reset();
  pipelsm::DestroyDB(path, options);
}

// ------------------------------------------------------------ served_mixed

namespace {

namespace client = pipelsm::client;
namespace server = pipelsm::server;

constexpr int kConnections = 4;
constexpr int kCollectors = 4;
constexpr uint32_t kServedScan = 32;
// Ladder: the reference rate, then steps 10% apart up to kFineFrom and
// 5% apart from there to kLadderTop, where this host's knee lies. The
// reference step takes kReferenceShare of the measured time (its latency
// is the reported one); the other steps split the rest evenly.
constexpr double kReferenceRate = 10000;
constexpr double kFineFrom = 40000;
constexpr double kLadderTop = 90000;
constexpr double kReferenceShare = 0.3;
// Untimed traffic at the reference rate before the ladder, so client
// connections open and the hot set reaches the block cache first.
constexpr double kWarmupSeconds = 1.0;
constexpr uint64_t kReplyTimeoutNs = 2000000000ULL;
// GET p99 limit of the ladder. Loose on purpose: on a shared VM a bare
// 400 us sleep overshoots by over a millisecond at p99, and below this
// limit the ladder's outcome follows scheduler noise rather than load.
constexpr double kSloGetP99Us = 50000;

enum class Op : uint8_t { kGet, kPut, kScan, kPing };

struct Pending {
  uint64_t due_ns = 0;
  uint64_t req = 0;
  Op op = Op::kGet;
  int step = 0;
  bool last_quarter = false;  // due in the last quarter of its step
  int window = 0;             // slice of its step it was due in
  uint64_t j = 0;  // present-key index (key 2j)
  // PUT: the version written. GET/SCAN: the newest acknowledged version
  // of each key read, when the request was sent.
  std::vector<uint32_t> versions;
  std::future<client::Result> reply;
};

struct Sample {
  int step;
  bool last_quarter;
  int window;
  Op op;
  double latency_us;  // +inf when the request failed or timed out
};

// The harness's model of the served store: per present key, the newest
// version sent and the newest version acknowledged. A read may return any
// version between the acknowledged one at send time and the sent one at
// reply time.
struct Model {
  explicit Model(uint64_t n) : sent(n), acked(n) {}
  std::vector<std::atomic<uint32_t>> sent;
  std::vector<std::atomic<uint32_t>> acked;
};

class Collector {
 public:
  Collector(const RunConfig& cfg, Model* model) : cfg_(cfg), model_(model) {}

  void Push(Pending p) {
    {
      std::lock_guard<std::mutex> l(mu_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }

  void Start(uint32_t parent) {
    for (int i = 0; i < kCollectors; i++) {
      threads_.emplace_back([this, parent] { Main(parent); });
    }
  }

  // Waits for every pushed request to be answered or time out.
  void Finish() {
    {
      std::lock_guard<std::mutex> l(mu_);
      done_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  std::vector<Sample> TakeSamples() {
    std::lock_guard<std::mutex> l(mu_);
    return std::move(samples_);
  }

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  uint64_t puts_ok() const { return puts_ok_.load(); }

  void Reset() {
    std::lock_guard<std::mutex> l(mu_);
    done_ = false;
    samples_.clear();
  }

  void Drain(RunResult* out) {
    std::lock_guard<std::mutex> l(mu_);
    for (const auto& m : mismatches_) out->Mismatch(m);
    if (mismatch_count_ > mismatches_.size()) {
      out->mismatch_count += mismatch_count_ - mismatches_.size();
    }
    mismatches_.clear();
    mismatch_count_ = 0;
  }

 private:
  void Main(uint32_t parent) {
    Tracer::SetThreadParent(parent);
    std::vector<Sample> local;
    local.reserve(1 << 20);
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> l(mu_);
        cv_.wait(l, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) break;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      Complete(p, &local);
    }
    std::lock_guard<std::mutex> l(mu_);
    samples_.insert(samples_.end(), local.begin(), local.end());
  }

  void Mismatch(const std::string& what) {
    std::lock_guard<std::mutex> l(mu_);
    mismatch_count_++;
    if (mismatches_.size() < 4) mismatches_.push_back(what);
  }

  // True if `value` is a version of key index 2j in [lo, sent-now].
  bool ValueInWindow(uint64_t j, uint32_t lo, const std::string& value) {
    const uint32_t hi = model_->sent[j].load();
    for (uint32_t v = hi + 1; v-- > lo;) {
      if (value == Value(cfg_.seed, 2 * j, v)) return true;
    }
    return false;
  }

  void Complete(Pending& p, std::vector<Sample>* local) {
    Span span("client.wait", p.req);
    attempted_++;
    client::Result r;
    bool answered = false;
    const uint64_t deadline = p.due_ns + kReplyTimeoutNs;
    const uint64_t now = NowNs();
    if (p.reply.wait_for(std::chrono::nanoseconds(
            deadline > now ? deadline - now : 0)) ==
        std::future_status::ready) {
      r = p.reply.get();
      answered = true;
    }
    const double latency = (NowNs() - p.due_ns) / 1e3;
    const bool ok = answered && r.status.ok();
    if (!ok) failed_++;
    local->push_back(Sample{p.step, p.last_quarter, p.window, p.op,
                            ok ? latency : 1.0 / 0.0});
    if (!ok) return;
    switch (p.op) {
      case Op::kPut: {
        puts_ok_++;
        std::atomic<uint32_t>& acked = model_->acked[p.j];
        uint32_t cur = acked.load();
        while (p.versions[0] > cur &&
               !acked.compare_exchange_weak(cur, p.versions[0])) {
        }
        break;
      }
      case Op::kGet:
        if (!ValueInWindow(p.j, p.versions[0], r.value)) {
          Mismatch("served get " + Key(2 * p.j) + ": unexpected value");
        }
        break;
      case Op::kScan: {
        const size_t want = p.versions.size();
        if (r.entries.size() != want) {
          Mismatch("served scan from " + Key(2 * p.j) + ": " +
                   std::to_string(r.entries.size()) + " entries, want " +
                   std::to_string(want));
          break;
        }
        for (size_t t = 0; t < want; t++) {
          if (r.entries[t].first != Key(2 * (p.j + t)) ||
              !ValueInWindow(p.j + t, p.versions[t], r.entries[t].second)) {
            Mismatch("served scan from " + Key(2 * p.j) + ": wrong entry " +
                     std::to_string(t));
            break;
          }
        }
        break;
      }
      case Op::kPing:
        break;
    }
  }

  const RunConfig& cfg_;
  Model* const model_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool done_ = false;
  std::vector<Sample> samples_;
  std::vector<std::string> mismatches_;
  uint64_t mismatch_count_ = 0;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> puts_ok_{0};
  std::vector<std::thread> threads_;
};

struct Served {
  std::unique_ptr<server::WriteStallGate> gate;
  std::unique_ptr<DB> db;
  std::unique_ptr<server::Server> srv;
  std::unique_ptr<client::Client> cli;

  void Stop() {
    cli.reset();
    if (srv != nullptr) srv->Drain();
    srv.reset();
    db.reset();
    gate.reset();
  }
};

// One set-up: the bulk load, then the server and a connected client.
double ServedSetup(const RunConfig& cfg, const std::string& path, Served* s,
                   RunResult* out) {
  s->Stop();
  s->gate = std::make_unique<server::WriteStallGate>();
  Options options = PosixOptions();
  options.listeners.push_back(s->gate.get());
  double seconds = BulkLoad(cfg, options, path, &s->db, out);
  if (s->db == nullptr) return 0;
  Span span("setup.server");
  const uint64_t t0 = NowNs();
  server::ServerOptions so;
  so.host = "127.0.0.1";
  so.port = 0;
  so.sync_writes = false;  // WAL on, no fsync per group
  so.stall_gate = s->gate.get();
  s->srv = std::make_unique<server::Server>(s->db.get(), so);
  Status st = s->srv->Start();
  if (!st.ok()) {
    out->Mismatch("server start: " + st.ToString());
    return 0;
  }
  client::ClientOptions co;
  co.port = s->srv->port();
  co.num_connections = kConnections;
  // Pin each key range to one connection, so writes to one key arrive in
  // the order they were sent.
  for (int g = 1; g < kConnections; g++) {
    co.shard_affinity_boundaries.push_back(
        Key(2 * (kLoadedKeys * g / kConnections)));
  }
  s->cli = std::make_unique<client::Client>(co);
  st = s->cli->Ping();
  if (!st.ok()) out->Mismatch("client ping: " + st.ToString());
  seconds += (NowNs() - t0) * 1e-9;
  return seconds;
}

struct LadderPlan {
  std::vector<double> rates;
  std::vector<double> seconds;  // per step
};

// Sends the ladder's traffic from this (the generator) thread.
std::vector<double> DriveLadder(const RunConfig& cfg, const LadderPlan& plan,
                                Served* s, Model* model, Collector* col,
                                uint64_t salt) {
  Span span("generator");
  pipelsm::ZipfianGenerator zipf(kLoadedKeys, 0.99, cfg.seed * 31 + salt);
  uint64_t rng = cfg.seed * 104729 + salt;
  std::vector<double> late;
  static std::atomic<uint64_t> next_req{1};
  uint64_t start = NowNs() + 1000000;
  for (size_t k = 0; k < plan.rates.size(); k++) {
    const uint64_t end = start + static_cast<uint64_t>(plan.seconds[k] * 1e9);
    const uint64_t last_quarter = end - (end - start) / 4;
    OpenLoopGenerator gen(plan.rates[k], start);
    gen.Run(0, end, [&](uint64_t, uint64_t due) {
      Pending p;
      p.due_ns = due;
      p.last_quarter = due >= last_quarter;
      p.window = static_cast<int>(
          std::min<uint64_t>(kWindows - 1, (due - start) * kWindows /
                                               (end - start)));
      p.req = next_req.fetch_add(1);
      p.step = static_cast<int>(k);
      const uint64_t r = SplitMix(&rng) % 100;
      Span submit("client.submit", p.req);
      if (r < 70) {
        p.op = Op::kGet;
        p.j = zipf.Next();
        p.versions.push_back(model->acked[p.j].load());
        p.reply = s->cli->AsyncGet(Key(2 * p.j));
      } else if (r < 95) {
        p.op = Op::kPut;
        p.j = SplitMix(&rng) % kLoadedKeys;
        const uint32_t v = model->sent[p.j].load() + 1;
        model->sent[p.j].store(v);
        p.versions.push_back(v);
        p.reply = s->cli->AsyncPut(Key(2 * p.j), Value(cfg.seed, 2 * p.j, v));
      } else {
        p.op = Op::kScan;
        p.j = SplitMix(&rng) % kLoadedKeys;
        const uint64_t n =
            std::min<uint64_t>(kServedScan, kLoadedKeys - p.j);
        for (uint64_t t = 0; t < n; t++) {
          p.versions.push_back(model->acked[p.j + t].load());
        }
        p.reply = s->cli->AsyncScan(Key(2 * p.j), kServedScan);
      }
      col->Push(std::move(p));
    });
    late.insert(late.end(), gen.late_us().begin(), gen.late_us().end());
    start = end;
  }
  return late;
}

struct StepResult {
  std::vector<double> get_us, put_us, scan_us;
  std::vector<std::vector<double>> get_windows =
      std::vector<std::vector<double>>(kWindows);
  std::vector<double> last_quarter_us;  // every request type
};

}  // namespace

void RunServedMixed(const RunConfig& cfg, RunResult* out) {
  const std::string path = cfg.work_dir + "/served_mixed";
  out->Info("env", "posix, loopback server");
  Served s;
  std::vector<double> setups;
  for (int i = 0; i < kSetups && out->correct; i++) {
    setups.push_back(ServedSetup(cfg, path, &s, out));
  }
  if (!out->correct || s.cli == nullptr) {
    s.Stop();
    return;
  }
  RecordSetup(cfg, s.db.get(), Env::Posix(), path, setups, out);

  Model model(kLoadedKeys);
  Collector col(cfg, &model);
  // A traced run stays at the reference rate: recording every call from
  // five threads would itself overload the host near the ladder's top.
  LadderPlan plan;
  for (double rate = kReferenceRate; rate <= kLadderTop && !cfg.trace;
       rate *= rate < kFineFrom ? 1.10 : 1.05) {
    plan.rates.push_back(rate);
  }
  if (cfg.trace) plan.rates.push_back(kReferenceRate);
  for (size_t k = 0; k < plan.rates.size(); k++) {
    plan.seconds.push_back(plan.rates.size() == 1 ? cfg.seconds
                           : k == 0 ? cfg.seconds * kReferenceShare
                                    : cfg.seconds * (1 - kReferenceShare) /
                                          (plan.rates.size() - 1));
  }
  char ladder[96];
  std::snprintf(ladder, sizeof(ladder),
                "%zu steps %.0f..%.0f, %.3f s reference step",
                plan.rates.size(), plan.rates.front(), plan.rates.back(),
                plan.seconds[0]);
  out->Info("ladder", ladder);
  out->Info("slo_get_p99_us", JsonDouble(kSloGetP99Us));

  // Warm-up at the reference rate (untimed). A traced run sends it
  // untraced and for longer, and takes the tracing overhead against it.
  double plain_p50 = 0;
  {
    SetTracing(false);
    Span span("warmup");
    LadderPlan warmup;
    warmup.rates = {kReferenceRate};
    warmup.seconds = {cfg.trace ? cfg.seconds * kReferenceShare
                                : kWarmupSeconds};
    col.Start(0);
    DriveLadder(cfg, warmup, &s, &model, &col, 1);
    col.Finish();
    std::vector<double> get_us;
    for (const Sample& x : col.TakeSamples()) {
      if (x.op == Op::kGet) get_us.push_back(x.latency_us);
    }
    plain_p50 = Summarize(get_us).p50;
    col.Reset();
  }

  const CompactionMetrics before = s.db->GetCompactionMetrics();
  const CacheCounts cache_before = BlockCache(s.db.get());
  const uint64_t attempted_before = col.attempted();
  const uint64_t puts_before = col.puts_ok();
  SetTracing(cfg.trace);
  uint64_t t0 = NowNs();
  std::vector<double> late;
  {
    Span span("measure");
    col.Start(span.id());
    late = DriveLadder(cfg, plan, &s, &model, &col, 2);
    col.Finish();
  }
  const uint64_t window_ns = NowNs() - t0;
  SetTracing(false);
  col.Drain(out);
  out->attempted += col.attempted();
  out->failed += col.failed();

  // Per-step latency; SLO check on each step's GET p99 and backlog.
  std::vector<StepResult> steps(plan.rates.size());
  double gets = 0;
  for (const Sample& x : col.TakeSamples()) {
    StepResult& st = steps[x.step];
    if (x.last_quarter) st.last_quarter_us.push_back(x.latency_us);
    if (x.op == Op::kGet) {
      st.get_us.push_back(x.latency_us);
      st.get_windows[x.window].push_back(x.latency_us);
      gets++;
    } else if (x.op == Op::kPut) {
      st.put_us.push_back(x.latency_us);
    } else if (x.op == Op::kScan) {
      st.scan_us.push_back(x.latency_us);
    }
  }
  double slo_rate = 0;
  std::string step_report;
  for (size_t k = 0; k < steps.size(); k++) {
    const LatencySummary g = Summarize(steps[k].get_us);
    // A growing backlog shows as requests due late in the step waiting
    // past the limit at the median.
    const bool backlog =
        Summarize(steps[k].last_quarter_us).p50 > kSloGetP99Us;
    const bool meets = g.count > 0 && g.p99 <= kSloGetP99Us && !backlog;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%.0f:%.0f/%.0f%s", k ? "," : "",
                  plan.rates[k], g.p99, MedianWindowP99(steps[k].get_windows),
                  backlog ? "(backlog)" : "");
    step_report += buf;
    if (meets) slo_rate = plan.rates[k];
  }
  out->Info("ladder_get_p99_us", step_report);
  out->Info("gen_late_p99_us", JsonDouble(Summarize(late).p99));
  out->Info("gen_late_p50_us", JsonDouble(Summarize(late).p50));

  const StepResult& ref = steps[0];
  const LatencySummary get = Summarize(ref.get_us);
  out->Add(&out->metrics, "ops_s", "1/s", slo_rate);
  out->Add(&out->metrics, "op_p50_us", "us", get.p50);
  out->Add(&out->metrics, "op_p99_us", "us", MedianWindowP99(ref.get_windows));
  const CompactionMetrics after = s.db->GetCompactionMetrics();
  const double put_bytes = (col.puts_ok() - puts_before) * kRecordBytes;
  out->Add(&out->metrics, "write_amp", "ratio",
           put_bytes > 0 ? (after.bytes_written - before.bytes_written) /
                               put_bytes
                         : 0);
  out->Add(&out->detail, "slo_ops_s", "1/s", slo_rate);
  AddLatency(out, "get", Summarize(ref.get_us));
  AddLatency(out, "put", Summarize(ref.put_us));
  AddLatency(out, "scan", Summarize(ref.scan_us));
  out->Info("requests", std::to_string(col.attempted() - attempted_before));
  out->Info("stall_s",
            JsonDouble((after.stall_micros - before.stall_micros) * 1e-6));
  out->Info("compactions",
            std::to_string(after.compactions - before.compactions));

  if (cfg.trace) {
    AddCompactionLayers(out, before, after, window_ns);
    AddModelError(out, ModelErrorPct(s.db.get()));
    AddCacheLayers(out, cache_before, BlockCache(s.db.get()), gets);
    out->Add(&out->layers, "version.sorted_runs", "count",
             SortedRuns(s.db.get()));
    out->Add(&out->layers, "harness.trace_overhead_pct", "%",
             plain_p50 > 0 ? (get.p50 / plain_p50 - 1) * 100 : 0);
  }

  // Let background work finish before measuring space.
  s.db->WaitForCompactions();
  out->Add(&out->metrics, "space_amp", "ratio",
           TableBytes(Env::Posix(), path) / (kLoadedKeys * kRecordBytes));
  out->Info("files_per_level_after_run", FilesPerLevel(s.db.get()));
  s.Stop();
  pipelsm::DestroyDB(path, PosixOptions());
}

}  // namespace perfbench
