// Layer passes of a traced run: direct calls into each module's public
// API on data shaped like the workloads' (16-byte keys, 100-byte values at
// 0.5 compressibility), timed by the harness. Calls of a microsecond or
// more get one span each; cheaper calls are spanned per batch.
#include <cstring>
#include <memory>
#include <thread>

#include "bench.h"
#include "harness.h"
#include "src/client/client.h"
#include "src/compaction/executor.h"
#include "src/compress/lz_codec.h"
#include "src/db/db.h"
#include "src/db/dbformat.h"
#include "src/db/write_batch.h"
#include "src/env/env.h"
#include "src/env/sim_env.h"
#include "src/memtable/memtable.h"
#include "src/read/cache.h"
#include "src/server/server.h"
#include "src/table/block.h"
#include "src/table/block_builder.h"
#include "src/table/comparator.h"
#include "src/table/filter_policy.h"
#include "src/table/merger.h"
#include "src/table/table.h"
#include "src/table/table_builder.h"
#include "src/util/crc32c.h"
#include "src/wal/log_writer.h"
#include "src/workload/generator.h"
#include "src/workload/table_gen.h"

namespace perfbench {
namespace {

using namespace pipelsm;

constexpr size_t kKeySize = 16;
constexpr size_t kValueSize = 100;
constexpr double kCompressibility = 0.5;
// Minimum timed span of one layer measurement.
constexpr uint64_t kMinPassNs = 150000000;
// Takes the CRC results so the timed loop cannot be optimized away.
volatile uint32_t g_crc_sink = 0;

struct Records {
  explicit Records(uint64_t n, uint32_t seed)
      : gen(n, kKeySize, kValueSize, KeyOrder::kRandom, seed,
            kCompressibility) {
    keys.reserve(n);
    values.reserve(n);
    for (uint64_t i = 0; i < n; i++) {
      keys.push_back(gen.Key(i));
      values.push_back(gen.Value(i));
    }
  }
  WorkloadGenerator gen;
  std::vector<std::string> keys, values;
};

// Repeats `body` (which returns the units of work it did) until at least
// kMinPassNs has passed; returns units per second.
template <typename Body>
double Rate(const char* span_name, Body body) {
  Span span(span_name);
  double units = 0;
  const uint64_t t0 = NowNs();
  uint64_t elapsed = 0;
  do {
    units += body();
    elapsed = NowNs() - t0;
  } while (elapsed < kMinPassNs);
  return units / (elapsed * 1e-9);
}

// Raw (uncompressed) data blocks of about 4 KiB built from sorted records.
std::vector<std::string> RawBlocks(const Records& r, size_t count) {
  std::vector<std::pair<std::string, std::string>> kv;
  for (size_t i = 0; i < r.keys.size(); i++) {
    kv.emplace_back(r.keys[i], r.values[i]);
  }
  std::sort(kv.begin(), kv.end());
  std::vector<std::string> blocks;
  size_t i = 0;
  while (blocks.size() < count && i < kv.size()) {
    BlockBuilder builder(16);
    while (i < kv.size() && builder.CurrentSizeEstimate() < 4096) {
      builder.Add(kv[i].first, kv[i].second);
      i++;
    }
    blocks.push_back(builder.Finish().ToString());
  }
  return blocks;
}

void UtilAndCompress(const Records& r, RunResult* out) {
  const std::vector<std::string> blocks = RawBlocks(r, 256);
  size_t raw_bytes = 0;
  for (const auto& b : blocks) raw_bytes += b.size();

  uint32_t sink = 0;
  const double crc_bps = Rate("layer.crc32c", [&] {
    for (const auto& b : blocks) sink ^= crc32c::Value(b.data(), b.size());
    return double(raw_bytes);
  });
  out->Add(&out->layers, "util.crc32c_gib_s", "GiB/s",
           crc_bps / (1024.0 * 1024 * 1024));

  std::vector<std::string> compressed(blocks.size());
  const double comp_bps = Rate("layer.lz_compress", [&] {
    for (size_t i = 0; i < blocks.size(); i++) {
      lz::Compress(blocks[i].data(), blocks[i].size(), &compressed[i]);
    }
    return double(raw_bytes);
  });
  size_t comp_bytes = 0;
  for (const auto& c : compressed) comp_bytes += c.size();
  std::string plain;
  bool ok = true;
  const double decomp_bps = Rate("layer.lz_decompress", [&] {
    for (size_t i = 0; i < compressed.size(); i++) {
      ok &= lz::Uncompress(compressed[i].data(), compressed[i].size(), &plain)
                .ok() &&
            plain.size() == blocks[i].size();
    }
    return double(raw_bytes);
  });
  if (!ok) out->Mismatch("lz round trip failed");
  out->Add(&out->layers, "compress.lz_compress_mib_s", "MiB/s",
           comp_bps / 1048576.0);
  out->Add(&out->layers, "compress.lz_decompress_mib_s", "MiB/s",
           decomp_bps / 1048576.0);
  out->Add(&out->layers, "compress.ratio", "ratio",
           comp_bytes > 0 ? double(raw_bytes) / comp_bytes : 0);
  g_crc_sink = sink;
}

void TableLayer(const Records& r, RunResult* out) {
  SimEnv env;  // null device: in-memory files, no modeled I/O time
  std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));
  std::vector<size_t> order(r.keys.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return r.keys[a] < r.keys[b]; });
  TableOptions topt;
  topt.filter_policy = bloom.get();

  // TableBuilder: MiB of key and value bytes per second.
  uint64_t file_size = 0;
  int round = 0;
  const double build_bps = Rate("layer.table_build", [&] {
    std::unique_ptr<WritableFile> file;
    const std::string name = "/t" + std::to_string(round++ % 2);
    if (!env.NewWritableFile(name, &file).ok()) return 0.0;
    TableBuilder builder(topt, file.get());
    double bytes = 0;
    for (size_t i : order) {
      builder.Add(r.keys[i], r.values[i]);
      bytes += r.keys[i].size() + r.values[i].size();
    }
    if (!builder.Finish().ok()) out->Mismatch("table build failed");
    file_size = builder.FileSize();
    file->Close();
    return bytes;
  });
  out->Add(&out->layers, "table.block_build_mib_s", "MiB/s",
           build_bps / 1048576.0);

  // Point lookups on the built table, without a block cache: each one
  // consults the filter, reads and checks a block, and searches it.
  std::unique_ptr<RandomAccessFile> file;
  std::unique_ptr<Table> table;
  if (!env.NewRandomAccessFile("/t0", &file).ok() ||
      !env.GetFileSize("/t0", &file_size).ok() ||
      !Table::Open(topt, std::move(file), file_size, &table).ok()) {
    out->Mismatch("table open failed");
    return;
  }
  uint64_t probe = 0, found = 0, lookups = 0;
  const double get_rate = Rate("layer.table_get", [&] {
    Span span("table.InternalGet x1000");
    for (int i = 0; i < 1000; i++) {
      const size_t k = (probe++ * 7919) % r.keys.size();
      table->InternalGet({}, r.keys[k], [&](const Slice& key, const Slice&) {
        if (key == Slice(r.keys[k])) found++;
      });
      lookups++;
    }
    return 1000.0;
  });
  if (found != lookups) out->Mismatch("table get missed a present key");
  out->Add(&out->layers, "table.get_ns", "ns", 1e9 / get_rate);

  // Bloom filter false positives on absent keys (10 bits per key).
  std::vector<Slice> present;
  for (const auto& k : r.keys) present.push_back(k);
  std::string filter;
  bloom->CreateFilter(present.data(), present.size(), &filter);
  uint64_t fp = 0;
  const uint64_t probes = 100000;
  {
    Span span("layer.bloom");
    for (uint64_t i = 0; i < probes; i++) {
      // Present keys are 16 decimal digits; a letter suffix is never one.
      const std::string absent = r.keys[i % r.keys.size()].substr(0, 15) + "x";
      if (bloom->KeyMayMatch(absent, filter)) fp++;
    }
  }
  out->Add(&out->layers, "table.filter_fp_rate", "ratio", double(fp) / probes);

  // k-way MergingIterator over k sorted blocks.
  for (int k : {2, 8}) {
    std::vector<std::shared_ptr<Block>> blocks;
    for (int run = 0; run < k; run++) {
      BlockBuilder builder(16);
      for (size_t n = run; n < order.size() && n < 12000; n += k) {
        builder.Add(r.keys[order[n]], r.values[order[n]]);
      }
      const Slice raw = builder.Finish();
      char* buf = new char[raw.size()];
      std::memcpy(buf, raw.data(), raw.size());
      BlockContents contents;
      contents.data = Slice(buf, raw.size());
      contents.heap_allocated = true;
      contents.cachable = false;
      blocks.push_back(std::make_shared<Block>(contents));
    }
    const char* span = k == 2 ? "layer.merge_k2" : "layer.merge_k8";
    const double items = Rate(span, [&] {
      std::vector<Iterator*> children;
      for (auto& b : blocks) {
        children.push_back(b->NewIterator(BytewiseComparator()));
      }
      std::unique_ptr<Iterator> merged(NewMergingIterator(
          BytewiseComparator(), children.data(), int(children.size())));
      double n = 0;
      for (merged->SeekToFirst(); merged->Valid(); merged->Next()) n++;
      return n;
    });
    out->Add(&out->layers, "table.merge_k" + std::to_string(k) + "_mitems_s",
             "Mitems/s", items / 1e6);
  }
}

void MemtableLayer(const Records& r, RunResult* out) {
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  uint64_t t0 = NowNs();
  {
    Span span("layer.memtable_add");
    for (size_t i = 0; i < r.keys.size(); i++) {
      mem->Add(i + 1, kTypeValue, r.keys[i], r.values[i]);
    }
  }
  out->Add(&out->layers, "memtable.insert_ns", "ns",
           double(NowNs() - t0) / r.keys.size());
  std::string value;
  Status s;
  uint64_t hits = 0;
  t0 = NowNs();
  {
    Span span("layer.memtable_get");
    for (size_t i = 0; i < r.keys.size(); i++) {
      const size_t k = (i * 7919) % r.keys.size();
      LookupKey lkey(r.keys[k], kMaxSequenceNumber);
      if (mem->Get(lkey, &value, &s) && value == r.values[k]) hits++;
    }
  }
  out->Add(&out->layers, "memtable.get_ns", "ns",
           double(NowNs() - t0) / r.keys.size());
  if (hits != r.keys.size()) out->Mismatch("memtable get missed a key");
  mem->Unref();
}

void WalAndEnvLayer(const RunConfig& cfg, const Records& r, RunResult* out) {
  Env* env = Env::Posix();
  const std::string wal_path = cfg.work_dir + "/layer.wal";
  std::unique_ptr<WritableFile> file;
  if (!env->NewWritableFile(wal_path, &file).ok()) {
    out->Mismatch("wal open failed");
    return;
  }
  {
    // One-put write batches, encoded before the clock starts; a span per
    // 1000 records keeps the tracer's cost out of the per-record time.
    const size_t n = std::min<size_t>(r.keys.size(), 100000);
    std::vector<std::string> records(n);
    for (size_t i = 0; i < n; i++) {
      WriteBatch batch;
      batch.Put(r.keys[i], r.values[i]);
      records[i] = WriteBatchInternal::Contents(&batch).ToString();
    }
    log::Writer writer(file.get());
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < n; i += 1000) {
      Span span("wal.AddRecord x1000");
      for (size_t j = i; j < std::min(n, i + 1000); j++) {
        if (!writer.AddRecord(records[j]).ok()) out->failed++;
      }
    }
    out->Add(&out->layers, "wal.append_ns", "ns", double(NowNs() - t0) / n);
  }
  file->Close();
  file.reset();
  env->RemoveFile(wal_path);

  // Sequential appends of 4 KiB chunks, then 4 KiB random reads.
  const std::string path = cfg.work_dir + "/layer.env";
  const size_t kChunk = 4096;
  const size_t kFileBytes = 32 << 20;
  std::string chunk;
  for (size_t i = 0; chunk.size() < kChunk; i++) chunk += r.values[i];
  chunk.resize(kChunk);
  uint64_t t0 = NowNs();
  {
    Span span("layer.env_append");
    if (!env->NewWritableFile(path, &file).ok()) {
      out->Mismatch("env open failed");
      return;
    }
    for (size_t off = 0; off < kFileBytes; off += kChunk) file->Append(chunk);
    file->Close();
  }
  out->Add(&out->layers, "env.append_mib_s", "MiB/s",
           (kFileBytes / 1048576.0) / ((NowNs() - t0) * 1e-9));
  std::unique_ptr<RandomAccessFile> rfile;
  if (!env->NewRandomAccessFile(path, &rfile).ok()) {
    out->Mismatch("env reopen failed");
    return;
  }
  std::vector<double> us;
  std::string scratch(kChunk, '\0');
  uint64_t state = cfg.seed;
  {
    // Each read is timed on its own; the span covers the whole batch.
    Span span("env.Read x20000");
    for (int i = 0; i < 20000; i++) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t off = ((state >> 33) % (kFileBytes / kChunk)) * kChunk;
      Slice result;
      const uint64_t s0 = NowNs();
      if (!rfile->Read(off, kChunk, &result, scratch.data()).ok() ||
          result.size() != kChunk) {
        out->Mismatch("env read failed");
        break;
      }
      us.push_back((NowNs() - s0) / 1e3);
    }
  }
  out->Add(&out->layers, "env.rand_read_us", "us", Summarize(us).p50);
  rfile.reset();
  env->RemoveFile(path);
}

void CacheLayer(RunResult* out) {
  std::unique_ptr<read::Cache> cache = read::NewShardedLRUCache(8 << 20);
  const int kEntries = 1000;
  for (int i = 0; i < kEntries; i++) {
    cache->Insert("block" + std::to_string(i), std::make_shared<int>(i), 4096);
  }
  std::atomic<uint64_t> total_ns{0}, total_ops{0};
  Span span("layer.cache_lookup");
  auto worker = [&](int t) {
    uint64_t state = t + 1, ops = 0;
    std::vector<std::string> keys;
    for (int i = 0; i < kEntries; i++) {
      keys.push_back("block" + std::to_string(i));
    }
    const uint64_t t0 = NowNs();
    while (NowNs() - t0 < kMinPassNs) {
      for (int i = 0; i < 1000; i++) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        if (cache->Lookup(keys[(state >> 33) % kEntries]) == nullptr) break;
        ops++;
      }
    }
    total_ns += NowNs() - t0;
    total_ops += ops;
  };
  std::thread a(worker, 0), b(worker, 1);
  a.join();
  b.join();
  out->Add(&out->layers, "read.cache_lookup_ns", "ns",
           total_ops > 0 ? double(total_ns) / total_ops : 0);
}

// The paper's executors on fixed generated inputs (4 MiB upper over 8 MiB
// lower) on the ingest workload's simulated SSD.
void ExecutorLayer(const RunConfig& cfg, RunResult* out) {
  SimEnv env(DeviceProfile::Ssd());
  InternalKeyComparator icmp(BytewiseComparator());
  TableGenOptions gen;
  gen.env = &env;
  gen.icmp = &icmp;
  gen.seed = static_cast<uint32_t>(cfg.seed);
  CompactionInputs inputs;
  if (!GenerateCompactionInputs(gen, &inputs).ok()) {
    out->Mismatch("compaction input generation failed");
    return;
  }
  struct Mode {
    const char* metric;
    CompactionMode mode;
    int compute;
  };
  const Mode modes[] = {
      {"compaction.exec_scp_mib_s", CompactionMode::kSCP, 1},
      {"compaction.exec_pcp_mib_s", CompactionMode::kPCP, 1},
      {"compaction.exec_cppcp2_mib_s", CompactionMode::kCPPCP, 2},
  };
  uint64_t output_bytes = 0;
  for (const Mode& m : modes) {
    CompactionJobOptions job;
    job.icmp = &icmp;
    job.compute_parallelism = m.compute;
    CountingSink sink(&env, std::string("/out_") + m.metric);
    StepProfile profile;
    Status s;
    {
      Span span("compaction.Run");
      s = NewCompactionExecutor(m.mode)->Run(job, inputs.tables, &sink,
                                             &profile);
    }
    if (!s.ok()) {
      out->Mismatch(std::string("executor run failed: ") + s.ToString());
      return;
    }
    if (output_bytes != 0 && sink.total_output_bytes() != output_bytes) {
      out->Mismatch("executors disagree on output size");
    }
    output_bytes = sink.total_output_bytes();
    const double wall_s = profile.wall_nanos * 1e-9;
    out->Add(&out->layers, m.metric, "MiB/s",
             wall_s > 0 ? profile.input_bytes / 1048576.0 / wall_s : 0);
  }
}

// The served path on a small posix store over loopback: PING and GET
// round trips at a fixed open-loop rate, then a burst of pipelined PUTs
// for the group-commit batch size.
void ServerLayer(const RunConfig& cfg, const Records& r, RunResult* out) {
  const std::string path = cfg.work_dir + "/layer_server";
  Options options;
  options.env = Env::Posix();
  options.create_if_missing = true;
  DestroyDB(path, options);
  DB* raw = nullptr;
  if (!DB::Open(options, path, &raw).ok()) {
    out->Mismatch("server layer: open failed");
    return;
  }
  std::unique_ptr<DB> db(raw);
  const size_t n = std::min<size_t>(r.keys.size(), 20000);
  for (size_t i = 0; i < n; i++) {
    db->Put(WriteOptions(), r.keys[i], r.values[i]);
  }
  {
    server::ServerOptions so;
    so.host = "127.0.0.1";
    so.port = 0;
    so.sync_writes = false;
    server::Server srv(db.get(), so);
    if (!srv.Start().ok()) {
      out->Mismatch("server layer: start failed");
      return;
    }
    client::ClientOptions co;
    co.port = srv.port();
    co.num_connections = 4;
    client::Client cli(co);
    constexpr double kRate = 2000;
    constexpr uint64_t kWindowNs = 500000000;

    std::vector<double> ping_us;
    OpenLoopGenerator ping(kRate, NowNs() + 1000000);
    ping.Run(0, NowNs() + kWindowNs, [&](uint64_t, uint64_t due) {
      Span span("client.Ping");
      if (cli.Ping().ok()) {
        ping_us.push_back((NowNs() - due) / 1e3);
      } else {
        out->failed++;
      }
    });
    out->Add(&out->layers, "client.ping_rtt_us", "us", Summarize(ping_us).p50);
    out->Add(&out->layers, "harness.gen_late_p99_us", "us",
             Summarize(ping.late_us()).p99);

    std::vector<double> get_us;
    OpenLoopGenerator get(kRate, NowNs() + 1000000);
    std::string value;
    get.Run(0, NowNs() + kWindowNs, [&](uint64_t i, uint64_t due) {
      const size_t k = (i * 7919) % n;
      Span span("client.Get");
      const Status s = cli.Get(r.keys[k], &value);
      get_us.push_back((NowNs() - due) / 1e3);
      if (!s.ok()) {
        out->failed++;
      } else if (value != r.values[k]) {
        out->Mismatch("server layer: wrong GET value");
      }
    });
    std::string metrics;
    db->GetProperty("pipelsm.metrics", &metrics);
    const double server_get = JsonNumberAt(
        metrics, {"histograms", "server.req_micros.get", "p50"});
    out->Add(&out->layers, "server.get_req_p50_us", "us", server_get);
    out->Add(&out->layers, "client.overhead_us", "us",
             Summarize(get_us).p50 - server_get);

    {
      Span span("layer.put_burst");
      std::vector<std::future<client::Result>> puts;
      for (size_t i = 0; i < n; i++) {
        puts.push_back(cli.AsyncPut(r.keys[i], r.values[(i + 1) % n]));
      }
      for (auto& f : puts) {
        if (!cli.Wait(f).status.ok()) out->failed++;
      }
    }
    db->GetProperty("pipelsm.metrics", &metrics);
    out->Add(&out->layers, "server.group_commit_batch_avg", "count",
             JsonNumberAt(metrics, {"histograms",
                                    "server.group_commit.batch_size", "avg"}));
    out->attempted += ping_us.size() + get_us.size() + n;
  }  // client, then server, go before the store
  db.reset();
  DestroyDB(path, options);
}

}  // namespace

void RunLayerPasses(const RunConfig& cfg, RunResult* out) {
  Span span("layer_pass");
  const Records records(50000, static_cast<uint32_t>(cfg.seed));
  UtilAndCompress(records, out);
  TableLayer(records, out);
  MemtableLayer(records, out);
  WalAndEnvLayer(cfg, records, out);
  CacheLayer(out);
  ExecutorLayer(cfg, out);
  ServerLayer(cfg, records, out);
}

}  // namespace perfbench
