// Tests of the benchmark's own helpers: the percentile summary, the
// open-loop generator's timing from due time, the tracer's self time and
// the JSON number lookup. Run: perfbench_tests (exit 0 = all passed).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      failures++;                                                     \
    }                                                                 \
  } while (0)

void TestSummarize() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; i--) v.push_back(i);  // unsorted input
  LatencySummary s = Summarize(v);
  EXPECT(s.count == 1000);
  EXPECT(s.p50 == 500);
  EXPECT(s.p99 == 990);
  // Ten samples (991..1000) lie above the tail value.
  EXPECT(s.tail == 990);
  EXPECT(std::fabs(s.tail_pct - 99.0) < 1e-9);

  v.resize(100);  // 1000..901
  s = Summarize(v);
  EXPECT(s.count == 100);
  EXPECT(s.p50 == 950);
  EXPECT(s.p99 == 999);
  EXPECT(s.tail == 990);
  EXPECT(std::fabs(s.tail_pct - 90.0) < 1e-9);

  s = Summarize({7});
  EXPECT(s.count == 1 && s.p50 == 7 && s.p99 == 7 && s.tail_pct == 0);
  s = Summarize({});
  EXPECT(s.count == 0 && s.p50 == 0);
  // A failed request counts as infinitely late.
  s = Summarize({1, 2, 1.0 / 0.0});
  EXPECT(std::isinf(s.p99));
}

// The histogram agrees with the exact summary to within a bucket.
void TestHistogram() {
  LatencyHistogram h;
  std::vector<double> v;
  for (int i = 1; i <= 1000; i++) {
    h.Add(i);
    v.push_back(i);
  }
  const LatencySummary exact = Summarize(v), approx = h.Summarize();
  EXPECT(approx.count == 1000);
  EXPECT(std::fabs(approx.p50 / exact.p50 - 1) < 0.002);
  EXPECT(std::fabs(approx.p99 / exact.p99 - 1) < 0.002);
  EXPECT(std::fabs(approx.tail / exact.tail - 1) < 0.002);
  EXPECT(approx.tail_pct == exact.tail_pct);
  LatencyHistogram other;
  other.Add(0);  // clamps into the lowest bucket
  other.Add(1e12);  // and the highest
  h.Merge(other);
  EXPECT(h.count() == 1002);
  EXPECT(LatencyHistogram().Summarize().count == 0);
}

// A 50 ms stall inside one request must show in the latency of every
// request due while it lasted, because latency runs from the due time.
void TestOpenLoopStall() {
  const double rate = 2000;  // one request every 500 us
  const uint64_t start = NowNs() + 2000000;
  const uint64_t stall_due = start + 100000000;  // 100 ms in
  const uint64_t stall_ns = 50000000;
  const uint64_t end = start + 300000000;
  OpenLoopGenerator gen(rate, start);
  std::vector<std::pair<uint64_t, double>> latency;  // due, us
  bool stalled = false;
  uint64_t stall_end = 0;
  const uint64_t next = gen.Run(0, end, [&](uint64_t, uint64_t due) {
    if (!stalled && due >= stall_due) {
      stalled = true;
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
      stall_end = NowNs();
    }
    latency.emplace_back(due, (NowNs() - due) / 1e3);
  });
  // Every scheduled request was sent: none were skipped during the stall.
  EXPECT(next == 600);
  EXPECT(latency.size() == 600);
  EXPECT(stalled);
  int in_stall = 0;
  for (const auto& [due, us] : latency) {
    if (due >= stall_due && due < stall_end) {
      in_stall++;
      // Raised by at least the rest of the stall after its due time.
      EXPECT(us * 1e3 >= static_cast<double>(stall_end - due));
    }
  }
  EXPECT(in_stall >= 95);  // 50 ms at 2000/s
  // The generator reports how late it ran.
  EXPECT(Summarize(gen.late_us()).tail >= 40000);
}

void TestTracerSelfTime() {
  Tracer tracer(100);
  g_tracer = &tracer;
  SetTracing(true);
  {
    Span parent("parent", 7);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      Span child("child", 7);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    // A worker thread's spans hang under the parent and cover it too.
    std::thread worker([id = parent.id()] {
      Tracer::SetThreadParent(id);
      Span w("worker");
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
    worker.join();
  }
  SetTracing(false);
  g_tracer = nullptr;
  const auto totals = tracer.SelfTimes();
  const auto& p = totals.at("parent");
  const auto& c = totals.at("child");
  EXPECT(p.count == 1 && c.count == 1);
  EXPECT(c.self_ns == c.total_ns);
  // Parent self time is the 20 ms before its children, not 80 ms.
  EXPECT(p.self_ns >= 19000000 && p.self_ns < 30000000);
  EXPECT(tracer.stored() == 3 && tracer.dropped() == 0);
  const std::string json = tracer.ToChromeJson();
  EXPECT(json.find("\"req\":7") != std::string::npos);
  EXPECT(json.find("\"self_time_ms\"") != std::string::npos);
}

void TestJsonNumberAt() {
  const std::string j =
      "{\"block\":{\"hits\":12,\"misses\":3},\"table\":{\"hits\":5}}";
  EXPECT(JsonNumberAt(j, {"block", "hits"}) == 12);
  EXPECT(JsonNumberAt(j, {"table", "hits"}) == 5);
  EXPECT(JsonNumberAt(j, {"block", "absent"}, -1) == -1);
  EXPECT(JsonString("a\"b") == "\"a\\\"b\"");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestSummarize();
  perfbench::TestHistogram();
  perfbench::TestOpenLoopStall();
  perfbench::TestTracerSelfTime();
  perfbench::TestJsonNumberAt();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_tests: all passed\n");
  return 0;
}
