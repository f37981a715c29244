// Per-request end-to-end tracing (docs/OBSERVABILITY.md): a request
// slowed by an injected WAL-append delay must emit one
// "EVENT slow_request" line whose db_micros stage accounts for the
// injected latency, and sampled requests must land in a TraceCollector
// as server-process spans alongside whatever else shares the collector.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>

#include "src/client/client.h"
#include "src/db/db.h"
#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/obs/logger.h"
#include "src/obs/trace.h"
#include "src/server/server.h"
#include "tests/temp_path.h"

namespace pipelsm::server {
namespace {

// Value of `key=` in the first line of `log` containing `marker`, or -1.
long long EventField(const std::string& log, const std::string& marker,
                     const std::string& key) {
  const size_t at = log.find(marker);
  if (at == std::string::npos) return -1;
  const size_t eol = log.find('\n', at);
  const std::string line = log.substr(at, eol - at);
  const size_t k = line.find(key + "=");
  if (k == std::string::npos) return -1;
  return std::atoll(line.c_str() + k + key.size() + 1);
}

class RequestTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dbname_ = testpath::TestTempPath("request_trace_test_");
    log_path_ = dbname_ + ".LOG";
    options_.create_if_missing = true;
    options_.env = &fault_;
    DestroyDB(dbname_, options_);
    ::unlink(log_path_.c_str());
  }

  void TearDown() override {
    server_.reset();
    client_.reset();
    db_.reset();
    fault_.ClearFaults();
    DestroyDB(dbname_, options_);
    ::unlink(log_path_.c_str());
  }

  void StartServer(ServerOptions sopts = ServerOptions()) {
    options_.listeners.clear();
    options_.listeners.push_back(&gate_);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, dbname_, &raw).ok());
    db_.reset(raw);
    sopts.host = "127.0.0.1";
    sopts.port = 0;
    sopts.stall_gate = &gate_;
    ASSERT_TRUE(obs::NewFileLogger(Env::Posix(), log_path_, &log_).ok());
    sopts.info_log = log_.get();
    server_ = std::make_unique<Server>(db_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
  }

  client::Client* NewClient() {
    client::ClientOptions copts;
    copts.host = "127.0.0.1";
    copts.port = server_->port();
    client_ = std::make_unique<client::Client>(copts);
    return client_.get();
  }

  std::string ReadLog() {
    std::string contents;
    ReadFileToString(Env::Posix(), log_path_, &contents);
    return contents;
  }

  long long SlowRequests() {
    for (const obs::MetricSample& s :
         server_->metrics_registry()->Snapshot()) {
      if (s.name == "server.slow_requests") {
        return static_cast<long long>(s.counter);
      }
    }
    return -1;
  }

  std::string dbname_;
  std::string log_path_;
  Options options_;
  WriteStallGate gate_;
  FaultInjectionEnv fault_{Env::Posix()};
  std::unique_ptr<obs::Logger> log_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<client::Client> client_;
};

// The warm-up PUT opens the WAL and, with sync_writes on, pays the first
// fsync: on a loaded host that alone can cross the 10 ms threshold, so
// the test compares against the log and the slow-request counter as they
// stand once the warm-up is fully finished, not against zero.
TEST_F(RequestTraceTest, SlowRequestLineAccountsForInjectedDbDelay) {
  ServerOptions sopts;
  sopts.slow_request_micros = 10 * 1000;  // 10 ms threshold
  StartServer(sopts);
  client::Client* cli = NewClient();
  ASSERT_TRUE(cli->Put("fast", "v").ok());

  // 60 ms injected into the WAL append puts the PUT's db stage well over
  // the threshold, and the breakdown must attribute it to db_micros.
  fault_.SetPathFilter(FaultOp::kAppend, ".log");
  fault_.SetDelayMicros(FaultOp::kAppend, 60 * 1000);
  fault_.ClearCounters();
  std::future<client::Result> slow = cli->AsyncPut("slow", "v");
  cli->Flush();
  // One group-commit thread runs both PUTs in order, and it finishes a
  // request (slow line included) before taking the next. So once the
  // slow PUT's WAL append has begun its 60 ms sleep, the warm-up is done
  // and the slow PUT's line is not yet written: the state to compare to.
  while (fault_.counter(FaultOp::kAppend) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const size_t offset = ReadLog().size();
  const long long slow_before = SlowRequests();
  ASSERT_NE(std::future_status::ready,
            slow.wait_for(std::chrono::seconds(0)))
      << "the slow PUT was answered before the state was taken";
  ASSERT_TRUE(cli->Wait(slow).status.ok());
  fault_.ClearFaults();

  // The reply reaches the client before the server stamps the request
  // finished, so the line can trail the Put by a moment.
  std::string log;
  size_t at = std::string::npos;
  for (int i = 0; i < 500 && at == std::string::npos; i++) {
    log = ReadLog();
    at = log.find("EVENT slow_request type=PUT", offset);
    if (at == std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_NE(std::string::npos, at) << log;
  // Exactly one slow line since the warm-up.
  EXPECT_EQ(std::string::npos, log.find("EVENT slow_request", at + 1));
  const std::string line = log.substr(at);
  const long long total =
      EventField(line, "EVENT slow_request", "total_micros");
  const long long db = EventField(line, "EVENT slow_request", "db_micros");
  const long long queue =
      EventField(line, "EVENT slow_request", "queue_micros");
  const long long reply =
      EventField(line, "EVENT slow_request", "reply_micros");
  EXPECT_GE(db, 50 * 1000) << log;   // injected delay shows up in db stage
  EXPECT_GE(total, db);              // stages nest inside the total
  EXPECT_GE(queue, 0);
  EXPECT_GE(reply, 0);
  EXPECT_LE(queue + db + reply, total + 1000);  // consistent breakdown

  // The slow-request counter ticked exactly once.
  EXPECT_EQ(slow_before + 1, SlowRequests());
}

TEST_F(RequestTraceTest, ThresholdZeroDisablesSlowRequestLines) {
  ServerOptions sopts;
  sopts.slow_request_micros = 0;
  StartServer(sopts);
  client::Client* cli = NewClient();
  fault_.SetPathFilter(FaultOp::kAppend, ".log");
  fault_.SetDelayMicros(FaultOp::kAppend, 20 * 1000);
  ASSERT_TRUE(cli->Put("slow", "v").ok());
  fault_.ClearFaults();
  EXPECT_EQ(std::string::npos, ReadLog().find("EVENT slow_request"));
}

TEST_F(RequestTraceTest, SampledRequestsLandInTheTraceCollector) {
  obs::TraceCollector trace;
  ServerOptions sopts;
  sopts.trace = &trace;
  sopts.trace_sample_every = 1;  // sample everything
  StartServer(sopts);
  client::Client* cli = NewClient();
  ASSERT_TRUE(cli->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(cli->Get("k", &value).ok());

  // Drain first: it joins every server thread, so all sampled spans have
  // landed by the time we look (and the collector outlives the server).
  client_.reset();
  server_.reset();
  // Each sampled request records a whole-request span plus its db stage.
  EXPECT_GE(trace.span_count(), 4u);
  const std::string json = trace.ToJson();
  EXPECT_NE(std::string::npos, json.find("\"request\""));
  EXPECT_NE(std::string::npos, json.find("\"db\""));
  EXPECT_NE(std::string::npos, json.find("server requests"));
}

TEST_F(RequestTraceTest, SamplingEveryNthRecordsRoughlyOneInN) {
  obs::TraceCollector trace;
  ServerOptions sopts;
  sopts.trace = &trace;
  sopts.trace_sample_every = 8;
  StartServer(sopts);
  client::Client* cli = NewClient();
  for (int i = 0; i < 32; i++) {
    ASSERT_TRUE(cli->Put("k" + std::to_string(i), "v").ok());
  }
  client_.reset();
  server_.reset();  // joins all threads; the sample set is final
  // 32 requests at 1-in-8 → 4 sampled → 8 spans (request + db each).
  EXPECT_GE(trace.span_count(), 2u);
  EXPECT_LE(trace.span_count(), 12u);
}

}  // namespace
}  // namespace pipelsm::server
