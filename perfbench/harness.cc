#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

Tracer* g_tracer = nullptr;
std::atomic<Tracer*> g_active_tracer{nullptr};

void SetTracing(bool on) {
  g_active_tracer.store(on ? g_tracer : nullptr, std::memory_order_relaxed);
}


uint64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void WaitUntilNs(uint64_t deadline_ns) {
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= deadline_ns) return;
    const uint64_t left = deadline_ns - now;
    if (left > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    } else if (left > 20000) {
      std::this_thread::yield();
    }
  }
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  auto nearest_rank = [&](double q) {
    size_t rank = static_cast<size_t>(std::ceil(q * n));
    if (rank < 1) rank = 1;
    if (rank > n) rank = n;
    return samples[rank - 1];
  };
  out.p50 = nearest_rank(0.50);
  out.p99 = nearest_rank(0.99);
  if (n >= 11) {
    // Exactly ten samples lie above index n - 11.
    out.tail_pct = 100.0 * static_cast<double>(n - 10) / n;
    out.tail = samples[n - 11];
  }
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double MedianWindowP99(const std::vector<std::vector<double>>& windows) {
  std::vector<double> p99;
  for (const auto& w : windows) {
    if (!w.empty()) p99.push_back(Summarize(w).p99);
  }
  return Median(std::move(p99));
}

namespace {

constexpr double kHistMinUs = 1e-3;
constexpr double kHistGrowth = 1.002;
const double kLogGrowth = std::log(kHistGrowth);
const size_t kHistBuckets =
    static_cast<size_t>(std::log(1e8 / kHistMinUs) / kLogGrowth) + 2;

// Bucket 0 holds values up to kHistMinUs; bucket b > 0 holds
// [min * g^(b-1), min * g^b); the last one also takes everything above.
size_t HistBucket(double us) {
  if (!(us > kHistMinUs)) return 0;
  const double b = std::log(us / kHistMinUs) / kLogGrowth + 1;
  return b >= kHistBuckets - 1 ? kHistBuckets - 1 : static_cast<size_t>(b);
}

double HistValue(size_t bucket) {
  return bucket == 0 ? kHistMinUs
                     : kHistMinUs * std::pow(kHistGrowth, bucket - 0.5);
}

}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kHistBuckets, 0) {}

void LatencyHistogram::Add(double us) {
  counts_[HistBucket(us)]++;
  count_++;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < counts_.size(); i++) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

LatencySummary LatencyHistogram::Summarize() const {
  LatencySummary out;
  out.count = count_;
  if (count_ == 0) return out;
  const size_t n = count_;
  // Value of the sample with 1-based nearest rank `rank`.
  auto at_rank = [&](size_t rank) {
    size_t cum = 0;
    for (size_t b = 0; b < counts_.size(); b++) {
      cum += counts_[b];
      if (cum >= rank) return HistValue(b);
    }
    return HistValue(counts_.size() - 1);
  };
  auto nearest = [&](double q) {
    size_t rank = static_cast<size_t>(std::ceil(q * n));
    return at_rank(rank < 1 ? 1 : (rank > n ? n : rank));
  };
  out.p50 = nearest(0.50);
  out.p99 = nearest(0.99);
  if (n >= 11) {
    out.tail_pct = 100.0 * static_cast<double>(n - 10) / n;
    out.tail = at_rank(n - 10);
  }
  return out;
}

double MedianWindowP99(const std::vector<LatencyHistogram>& windows) {
  std::vector<double> p99;
  for (const auto& w : windows) {
    if (w.count() > 0) p99.push_back(w.Summarize().p99);
  }
  return Median(std::move(p99));
}

OpenLoopGenerator::OpenLoopGenerator(double rate_per_s, uint64_t start_ns)
    : interval_ns_(1e9 / rate_per_s), start_ns_(start_ns) {}

uint64_t OpenLoopGenerator::DueNs(uint64_t index) const {
  return start_ns_ + static_cast<uint64_t>(index * interval_ns_);
}

uint64_t OpenLoopGenerator::Run(uint64_t first_index, uint64_t end_ns,
                                const IssueFn& issue) {
  uint64_t i = first_index;
  for (;; i++) {
    const uint64_t due = DueNs(i);
    if (due >= end_ns) break;
    WaitUntilNs(due);
    late_us_.push_back((NowNs() - due) / 1e3);
    issue(i, due);
  }
  return i;
}

// ---------------------------------------------------------------- Tracer

namespace {

struct Frame {
  uint32_t id;
  const char* name;
  uint64_t start_ns;
  uint64_t req;
  uint64_t child_ns;  // covered by this thread's nested spans
};

thread_local std::vector<Frame> t_stack;
thread_local uint32_t t_parent = 0;
thread_local uint32_t t_tid = 0;

// Length of the union of `v`'s intervals.
uint64_t UnionLength(std::vector<std::pair<uint64_t, uint64_t>> v) {
  std::sort(v.begin(), v.end());
  uint64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : v) {
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

}  // namespace

Tracer::Tracer(size_t max_stored) : max_stored_(max_stored) {}

void Tracer::SetThreadParent(uint32_t parent) { t_parent = parent; }

uint32_t Tracer::Begin(const char* name, uint64_t req) {
  if (t_tid == 0) t_tid = next_tid_.fetch_add(1);
  const uint32_t id = next_id_.fetch_add(1);
  t_stack.push_back(Frame{id, name, NowNs(), req, 0});
  return id;
}

void Tracer::End(uint32_t id) {
  const uint64_t end = NowNs();
  // Spans close in LIFO order on a thread; tolerate a mismatched id by
  // searching (never happens with the RAII Span).
  size_t pos = t_stack.size();
  while (pos > 0 && t_stack[pos - 1].id != id) pos--;
  if (pos == 0) return;
  const Frame f = t_stack[pos - 1];
  t_stack.resize(pos - 1);
  const uint64_t dur = end - f.start_ns;
  uint32_t parent;
  if (!t_stack.empty()) {
    t_stack.back().child_ns += dur;
    parent = t_stack.back().id;
  } else {
    parent = t_parent;
  }

  std::lock_guard<std::mutex> l(mu_);
  uint64_t covered = f.child_ns;
  auto cross = cross_children_.find(id);
  if (cross != cross_children_.end()) {
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    for (const Interval& c : cross->second) {
      spans.emplace_back(std::max(c.start_ns, f.start_ns),
                         std::min(c.end_ns, end));
    }
    covered = std::min(dur, covered + UnionLength(std::move(spans)));
    cross_children_.erase(cross);
  }
  if (t_stack.empty() && parent != 0) {
    cross_children_[parent].push_back(Interval{f.start_ns, end});
  }
  Totals& t = totals_[f.name];
  t.count++;
  t.total_ns += dur;
  t.self_ns += dur - std::min(dur, covered);
  if (records_.size() < max_stored_) {
    records_.push_back(Record{f.name, f.start_ns, end, id, parent, f.req,
                              t_tid});
  } else {
    dropped_++;
  }
}

std::map<std::string, Tracer::Totals> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> l(mu_);
  return totals_;
}

uint64_t Tracer::stored() const {
  std::lock_guard<std::mutex> l(mu_);
  return records_.size();
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> l(mu_);
  return dropped_;
}

std::string Tracer::ToChromeJson() const {
  std::lock_guard<std::mutex> l(mu_);
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const Record& r : records_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%u,\"parent\":%u,\"req\":%llu}}",
                  first ? "" : ",\n", r.name, r.tid, r.start_ns / 1e3,
                  (r.end_ns - r.start_ns) / 1e3, r.id, r.parent,
                  static_cast<unsigned long long>(r.req));
    out += buf;
    first = false;
  }
  out += "],\n\"otherData\":{\"stored_spans\":" +
         std::to_string(records_.size()) +
         ",\"dropped_spans\":" + std::to_string(dropped_) +
         ",\"self_time_ms\":{";
  first = true;
  for (const auto& [name, t] : totals_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%llu,\"total_ms\":%.3f,"
                  "\"self_ms\":%.3f}",
                  first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                  t.self_ns / 1e6);
    out += buf;
    first = false;
  }
  out += "}}}\n";
  return out;
}

bool Tracer::WriteFile(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << ToChromeJson();
  return static_cast<bool>(f);
}

// --------------------------------------------------------------- helpers

double PeakRssMiB() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

double JsonNumberAt(const std::string& json,
                    const std::vector<std::string>& path, double fallback) {
  size_t pos = 0;
  for (const std::string& key : path) {
    const std::string quoted = "\"" + key + "\"";
    pos = json.find(quoted, pos);
    if (pos == std::string::npos) return fallback;
    pos += quoted.size();
  }
  while (pos < json.size() && (json[pos] == ' ' || json[pos] == ':')) pos++;
  if (pos >= json.size()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(json.c_str() + pos, &end);
  return end == json.c_str() + pos ? fallback : v;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
