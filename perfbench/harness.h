// Shared pieces of the pipelsm benchmark harness: latency summaries, the
// open-loop request generator, the in-memory span tracer, and small JSON
// and process helpers. Nothing here reaches into the store; the workload
// and layer code call the store's public API and time it with these.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds since the first call in this process.
uint64_t NowNs();

// Sleeps (coarsely) then spins until NowNs() >= deadline_ns.
void WaitUntilNs(uint64_t deadline_ns);

// A timing distribution reduced to what the benchmark reports: the
// median, p99, and the highest percentile that still has at least ten
// samples above it (the deepest tail the sample supports).
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double tail_pct = 0;  // 0 when count < 11
  double tail = 0;
};

// Nearest-rank percentiles of `samples` (any unit); sorts its copy.
LatencySummary Summarize(std::vector<double> samples);

// The median over `windows` (consecutive slices of one measurement) of
// each slice's p99: a tail figure one hiccup cannot move. Empty slices
// are skipped.
double MedianWindowP99(const std::vector<std::vector<double>>& windows);

double Median(std::vector<double> v);

// A latency distribution in constant memory, for measurements with too
// many samples to keep: log buckets 0.2% wide from 1 ns to 100 s (values
// in microseconds). Percentiles match the nearest-rank value of the
// samples to within half a bucket.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Add(double us);
  void Merge(const LatencyHistogram& other);
  size_t count() const { return count_; }
  LatencySummary Summarize() const;

 private:
  std::vector<uint64_t> counts_;
  size_t count_ = 0;
};

double MedianWindowP99(const std::vector<LatencyHistogram>& windows);

// Drives requests on a fixed schedule regardless of how fast earlier ones
// complete (an open loop): request i is due at start + i / rate. The
// caller times each request from its due time, so a stall delays every
// request due behind it instead of silently thinning the load.
class OpenLoopGenerator {
 public:
  // `issue(index, due_ns)` sends request `index`; it may block (a blocked
  // issue makes later requests late, which their latency then shows).
  using IssueFn = std::function<void(uint64_t index, uint64_t due_ns)>;

  OpenLoopGenerator(double rate_per_s, uint64_t start_ns);

  uint64_t DueNs(uint64_t index) const;

  // Issues requests first_index, first_index + 1, ... while their due
  // time is before end_ns. Returns the index after the last one issued.
  uint64_t Run(uint64_t first_index, uint64_t end_ns, const IssueFn& issue);

  // Generator lateness (issue time minus due time), microseconds.
  const std::vector<double>& late_us() const { return late_us_; }

 private:
  const double interval_ns_;
  const uint64_t start_ns_;
  std::vector<double> late_us_;
};

// In-memory span recorder. Each span has a name, start, end, id, parent
// and an optional request id shared by the spans of one request. Spans
// nest per thread; a thread's outermost span takes its parent from
// SetThreadParent, so a worker's spans hang under the phase that spawned
// it. The first `max_stored` spans are kept for the Chrome trace; every
// span, kept or not, feeds per-name totals of duration and self time
// (duration minus the part covered by its children).
class Tracer {
 public:
  explicit Tracer(size_t max_stored);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint32_t Begin(const char* name, uint64_t req = 0);
  void End(uint32_t id);

  // Parent for spans begun on this thread with no open span.
  static void SetThreadParent(uint32_t parent);

  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::map<std::string, Totals> SelfTimes() const;

  uint64_t stored() const;
  uint64_t dropped() const;

  // {"traceEvents":[...],"otherData":{"self_time_ms":{...}, ...}}
  std::string ToChromeJson() const;
  bool WriteFile(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t id;
    uint32_t parent;
    uint64_t req;
    uint32_t tid;
  };
  struct Interval {
    uint64_t start_ns;
    uint64_t end_ns;
  };

  const size_t max_stored_;
  std::atomic<uint32_t> next_id_{1};
  std::atomic<uint32_t> next_tid_{1};
  mutable std::mutex mu_;
  std::vector<Record> records_;
  uint64_t dropped_ = 0;
  std::map<std::string, Totals> totals_;
  // Outermost spans of other threads, by the span they hang under.
  std::map<uint32_t, std::vector<Interval>> cross_children_;
};

// The process-wide tracer of a traced run (nullptr otherwise). Spans go
// to it only while SetTracing(true) is in effect.
extern Tracer* g_tracer;

// Tracing is switched between phases (never inside one), so a span keeps
// the tracer it began on.
extern std::atomic<Tracer*> g_active_tracer;

// RAII span on the active tracer; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name, uint64_t req = 0)
      : tracer_(g_active_tracer.load(std::memory_order_relaxed)),
        id_(tracer_ != nullptr ? tracer_->Begin(name, req) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* const tracer_;
  const uint32_t id_;
};

// Turns span recording on (the process tracer) or off.
void SetTracing(bool on);

// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMiB();

// 64-bit FNV-1a, chained through `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n);
constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

// The number stored under the key path `path` in `json`, found by
// searching for each key in turn after the previous one (enough for the
// store's flat property payloads). Returns `fallback` if absent.
double JsonNumberAt(const std::string& json,
                    const std::vector<std::string>& path,
                    double fallback = 0);

// Escapes `s` as a JSON string literal, quotes included.
std::string JsonString(const std::string& s);

// Formats a double with all significant digits (JSON-safe; NaN and
// infinities become 0).
std::string JsonDouble(double v);

}  // namespace perfbench
