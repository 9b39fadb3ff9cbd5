// Server-mode end to end: the wire codec, per-session execution and SET
// options, admission control with RESOURCE_EXHAUSTED shedding, the
// multi-session determinism matrix (concurrent sessions at 1/2/4/8
// engine threads, cache on and off, bit-identical to a serial baseline),
// registry-routed cancellation reaching every in-flight query, the
// statement-length cap, and graceful server shutdown -- all TSan-clean.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "obs/query_registry.h"
#include "server/admission.h"
#include "server/server.h"
#include "server/server_metrics.h"
#include "server/session.h"
#include "server/wire.h"
#include "shell/shell.h"

namespace fuzzydb {
namespace server {
namespace {

// ---------------------------------------------------------------------
// Wire codec

TEST(WireTest, RoundTripPreservesEveryField) {
  ReplyFrame frame;
  frame.session_id = 42;
  frame.seq = 7;
  frame.status = "CANCELLED";
  frame.error = "Cancelled: a \"quoted\"\nmulti-line\terror \\ with \x01";
  frame.text = "rendered text\n";
  frame.has_answer = true;
  frame.columns = {"name", "sal"};
  frame.rows = {{"'ann'", "[90, 110]"}, {"'bob'", "200"}};
  // 0.91999...882 is one ulp-cluster away from strtod("0.92"): degrees
  // must survive the wire bit-identical, not just to 6 digits.
  frame.degrees = {0.91999999999999882, 1.0};
  frame.elapsed_ms = 12.5;
  frame.queue_wait_ms = 0.25;
  frame.goodbye = true;

  const std::string line = RenderReplyFrame(frame);
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;

  ReplyFrame parsed;
  ASSERT_TRUE(ParseReplyFrame(line, &parsed)) << line;
  EXPECT_EQ(parsed.session_id, frame.session_id);
  EXPECT_EQ(parsed.seq, frame.seq);
  EXPECT_EQ(parsed.status, frame.status);
  EXPECT_EQ(parsed.error, frame.error);
  EXPECT_EQ(parsed.text, frame.text);
  EXPECT_TRUE(parsed.has_answer);
  EXPECT_EQ(parsed.columns, frame.columns);
  EXPECT_EQ(parsed.rows, frame.rows);
  EXPECT_EQ(parsed.degrees, frame.degrees);
  EXPECT_DOUBLE_EQ(parsed.elapsed_ms, frame.elapsed_ms);
  EXPECT_DOUBLE_EQ(parsed.queue_wait_ms, frame.queue_wait_ms);
  EXPECT_TRUE(parsed.goodbye);
}

TEST(WireTest, RoundTripOfMinimalFrame) {
  ReplyFrame frame;
  frame.session_id = 1;
  frame.seq = 1;
  const std::string line = RenderReplyFrame(frame);
  ReplyFrame parsed;
  ASSERT_TRUE(ParseReplyFrame(line, &parsed)) << line;
  EXPECT_EQ(parsed.status, "OK");
  EXPECT_FALSE(parsed.has_answer);
  EXPECT_FALSE(parsed.goodbye);
  EXPECT_TRUE(parsed.rows.empty());
}

TEST(WireTest, RejectsMalformedFrames) {
  ReplyFrame frame;
  for (const char* bad :
       {"", "{", "[1, 2]", "{\"status\":}", "{\"status\":\"OK\"",
        "{\"unknown_key\":1}", "{\"rows\":[[1]]}", "not json at all"}) {
    EXPECT_FALSE(ParseReplyFrame(bad, &frame)) << bad;
  }
}

// ---------------------------------------------------------------------
// Sessions

TEST(SessionTest, ExecutesStatementsAndCapturesAnswers) {
  Session session(5, SessionDefaults{}, /*fair_share_budget=*/0);
  ReplyFrame frame =
      session.Execute("CREATE TABLE emp (name STRING, sal FUZZY);");
  EXPECT_EQ(frame.status, "OK");
  EXPECT_EQ(frame.session_id, 5u);
  EXPECT_EQ(frame.seq, 1u);
  EXPECT_FALSE(frame.has_answer);

  EXPECT_EQ(
      session.Execute("INSERT INTO emp VALUES ('ann', ABOUT(100, 10));")
          .status,
      "OK");
  EXPECT_EQ(
      session.Execute("INSERT INTO emp VALUES ('bob', ABOUT(200, 10));")
          .status,
      "OK");

  frame = session.Execute(
      "SELECT name FROM emp WHERE sal > ABOUT(150, 5) WITH D >= 0.3;");
  EXPECT_EQ(frame.status, "OK");
  EXPECT_EQ(frame.seq, 4u);
  ASSERT_TRUE(frame.has_answer);
  ASSERT_EQ(frame.columns.size(), 1u);
  EXPECT_EQ(frame.columns[0], "name");
  ASSERT_EQ(frame.rows.size(), 1u);
  EXPECT_EQ(frame.rows[0][0], "'bob'");
  ASSERT_EQ(frame.degrees.size(), 1u);
  EXPECT_EQ(frame.degrees[0], 1.0);
  EXPECT_EQ(session.statements(), 4u);
  EXPECT_EQ(session.errors(), 0u);
}

TEST(SessionTest, SetOptionsValidatedAndApplied) {
  Session session(1, SessionDefaults{}, /*fair_share_budget=*/0);
  ReplyFrame frame = session.Execute("SET batch_size 256;");
  EXPECT_EQ(frame.status, "OK");
  EXPECT_EQ(frame.text, "-- set batch_size=256\n");
  EXPECT_EQ(session.Execute("SET cache off").status, "OK");
  EXPECT_EQ(session.Execute("SET threads 2").status, "OK");
  EXPECT_EQ(session.Execute("SET slow_query_ms 5.5").status, "OK");
  EXPECT_EQ(session.Execute("SET memory_budget 64m").status, "OK");

  EXPECT_EQ(session.Execute("SET batch_size banana").status,
            "INVALID_ARGUMENT");
  // Batch size 1 is the smallest batch; there is no scalar mode.
  EXPECT_EQ(session.Execute("SET batch_size 0").status, "INVALID_ARGUMENT");
  EXPECT_EQ(session.Execute("SET cache maybe").status, "INVALID_ARGUMENT");
  EXPECT_EQ(session.Execute("SET nonsense 1").status, "INVALID_ARGUMENT");
  EXPECT_EQ(session.Execute("SET batch_size").status, "INVALID_ARGUMENT");
  EXPECT_EQ(session.errors(), 5u);
}

// Values a session cannot honour are refused before they reach the
// engine: a thread count past kMaxSessionThreads, a byte size past
// 2^64 - 1 and a non-finite timeout. A finite timeout past the clock's
// range is accepted and never fires.
TEST(SessionTest, OutOfRangeSettingsAreRejected) {
  Session session(1, SessionDefaults{}, /*fair_share_budget=*/0);
  ASSERT_EQ(session.Execute("CREATE TABLE t (x FUZZY);").status, "OK");
  ASSERT_EQ(session.Execute("INSERT INTO t VALUES (1);").status, "OK");
  const std::string select = "SELECT x FROM t WITH D >= 0;";

  EXPECT_EQ(session.Execute("SET threads 100000").status, "INVALID_ARGUMENT");
  EXPECT_EQ(
      session.Execute("SET threads " + std::to_string(kMaxSessionThreads + 1))
          .status,
      "INVALID_ARGUMENT");
  EXPECT_EQ(
      session.Execute("SET threads " + std::to_string(kMaxSessionThreads))
          .status,
      "OK");
  EXPECT_EQ(session.Execute("SET threads 1").status, "OK");
  EXPECT_EQ(session.Execute("SET memory_budget 17179869184g").status,
            "INVALID_ARGUMENT");
  EXPECT_EQ(session.effective_memory_budget(), 0u);
  EXPECT_EQ(session.Execute("SET timeout_ms inf").status, "INVALID_ARGUMENT");
  EXPECT_EQ(session.Execute("SET slow_query_ms nan").status,
            "INVALID_ARGUMENT");
  ReplyFrame frame = session.Execute(select);
  EXPECT_EQ(frame.status, "OK") << frame.error;

  EXPECT_EQ(session.Execute("SET timeout_ms 1e300").status, "OK");
  frame = session.Execute(select);
  EXPECT_EQ(frame.status, "OK") << frame.error;
  ASSERT_TRUE(frame.has_answer);
  EXPECT_EQ(frame.rows.size(), 1u);
  EXPECT_EQ(session.errors(), 5u);
}

TEST(SessionTest, ErrorsCarryMachineReadableStatus) {
  Session session(1, SessionDefaults{}, /*fair_share_budget=*/0);
  ReplyFrame frame = session.Execute("SELEKT nonsense;");
  EXPECT_EQ(frame.status, "PARSE_ERROR");
  EXPECT_FALSE(frame.error.empty());

  frame = session.Execute("SELECT x FROM nosuch;");
  EXPECT_EQ(frame.status, "NOT_FOUND");

  EXPECT_EQ(session.Execute("CREATE TABLE t (x FUZZY);").status, "OK");
  frame = session.Execute("SELECT nope FROM t;");
  EXPECT_EQ(frame.status, "BIND_ERROR");

  frame = session.Execute("DROP TABLE nosuch;");
  EXPECT_EQ(frame.status, "NOT_FOUND");
  EXPECT_EQ(session.errors(), 4u);
}

TEST(SessionTest, SessionsAreIsolated) {
  Session a(1, SessionDefaults{}, 0);
  Session b(2, SessionDefaults{}, 0);
  EXPECT_EQ(a.Execute("CREATE TABLE t (x FUZZY);").status, "OK");
  // Same name in another session: no clash, separate catalogs.
  EXPECT_EQ(b.Execute("CREATE TABLE t (x FUZZY);").status, "OK");
  EXPECT_EQ(a.Execute("INSERT INTO t VALUES (1);").status, "OK");
  const ReplyFrame in_a = a.Execute("SELECT x FROM t WITH D >= 0;");
  const ReplyFrame in_b = b.Execute("SELECT x FROM t WITH D >= 0;");
  ASSERT_TRUE(in_a.has_answer);
  ASSERT_TRUE(in_b.has_answer);
  EXPECT_EQ(in_a.rows.size(), 1u);
  EXPECT_EQ(in_b.rows.size(), 0u);
}

TEST(SessionTest, FairShareClampsMemoryBudget) {
  // fair share 1 MiB: the session may ask for less, but never more --
  // one greedy SET cannot claim the whole process budget.
  Session session(1, SessionDefaults{}, /*fair_share_budget=*/1 << 20);
  EXPECT_EQ(session.effective_memory_budget(), 1u << 20);  // clamp at start
  EXPECT_EQ(session.Execute("SET memory_budget 1g").status, "OK");
  EXPECT_EQ(session.effective_memory_budget(), 1u << 20);  // clamped down
  EXPECT_EQ(session.Execute("SET memory_budget 64k").status, "OK");
  EXPECT_EQ(session.effective_memory_budget(), 64u << 10);  // under share

  Session unconstrained(2, SessionDefaults{}, /*fair_share_budget=*/0);
  EXPECT_EQ(unconstrained.Execute("SET memory_budget 1g").status, "OK");
  EXPECT_EQ(unconstrained.effective_memory_budget(), 1u << 30);
}

// ---------------------------------------------------------------------
// Admission control

TEST(AdmissionTest, ShedsWhenQueueFullAndDrainsOnShutdown) {
  AdmissionController admission({/*workers=*/1, /*queue_depth=*/1,
                                 /*memory_budget_total=*/0});
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};

  // Occupy the single worker...
  ASSERT_TRUE(admission.Submit([&](double) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    ran.fetch_add(1);
  }));
  // Wait until the worker picked the job up (the queue is empty again).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ran.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    // ...then fill the one queue slot; dup submissions must shed.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (admission.Submit([&](double) { ran.fetch_add(1); })) break;
  }
  // The queue now holds one job; the next submission is shed.
  bool shed = false;
  for (int i = 0; i < 3; ++i) {
    if (!admission.Submit([&](double) { ran.fetch_add(1); })) {
      shed = true;
      break;
    }
  }
  EXPECT_TRUE(shed);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // Shutdown drains everything that was admitted: every admitted job
  // runs exactly once, nothing hangs.
  admission.Shutdown();
  EXPECT_GE(ran.load(), 2);
}

TEST(AdmissionTest, FairShareSplitsBudgetAcrossWorkers) {
  AdmissionController admission({/*workers=*/4, /*queue_depth=*/8,
                                 /*memory_budget_total=*/400});
  EXPECT_EQ(admission.fair_share_budget(), 100u);
  AdmissionController unconstrained({2, 4, 0});
  EXPECT_EQ(unconstrained.fair_share_budget(), 0u);
}

// ---------------------------------------------------------------------
// Multi-session determinism matrix

// The seeded per-session workload: DDL, inserts, then fuzzy selects
// including a nested (type J) query -- the same shape
// tools/stress_client.py drives over TCP.
std::vector<std::string> MatrixWorkload() {
  std::vector<std::string> lines = {
      "CREATE TABLE emp (name STRING, sal FUZZY, dept STRING);",
      "CREATE TABLE dept (dname STRING, budget FUZZY);",
  };
  for (int d = 0; d < 3; ++d) {
    lines.push_back("INSERT INTO dept VALUES ('d" + std::to_string(d) +
                    "', ABOUT(" + std::to_string(100 + 50 * d) + ", 25));");
  }
  for (int r = 0; r < 8; ++r) {
    lines.push_back("INSERT INTO emp VALUES ('e" + std::to_string(r) +
                    "', ABOUT(" + std::to_string(80 + 17 * r) + ", 15), 'd" +
                    std::to_string(r % 3) + "');");
  }
  uint32_t state = 0x2545F491u;
  for (int i = 0; i < 12; ++i) {
    state = state * 1103515245u + 12345u;
    const int threshold = 90 + static_cast<int>((state >> 8) % 120u);
    const int dept = static_cast<int>((state >> 4) % 3u);
    switch (state % 3u) {
      case 0:
        lines.push_back("SELECT name FROM emp WHERE sal > ABOUT(" +
                        std::to_string(threshold) +
                        ", 10) WITH D >= 0.5;");
        break;
      case 1:
        lines.push_back("SELECT name FROM emp WHERE sal > ABOUT(" +
                        std::to_string(threshold) + ", 10) AND dept = 'd" +
                        std::to_string(dept) + "' WITH D >= 0.3;");
        break;
      default:
        lines.push_back(
            "SELECT name FROM emp WHERE sal > ANY (SELECT budget FROM "
            "dept WHERE dname = 'd" +
            std::to_string(dept) + "') WITH D >= 0.3;");
    }
  }
  return lines;
}

// The fields that must be bit-identical between a served session and
// the serial shell (ids and timings legitimately differ).
struct NormalizedFrame {
  std::string status;
  std::string text;
  bool has_answer;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  std::vector<double> degrees;

  bool operator==(const NormalizedFrame& other) const {
    return status == other.status && text == other.text &&
           has_answer == other.has_answer && columns == other.columns &&
           rows == other.rows && degrees == other.degrees;
  }
};

std::vector<NormalizedFrame> RunWorkload(size_t threads, bool cache) {
  Session session(1, SessionDefaults{}, 0);
  EXPECT_EQ(
      session.Execute("SET threads " + std::to_string(threads)).status,
      "OK");
  EXPECT_EQ(
      session.Execute(std::string("SET cache ") + (cache ? "on" : "off"))
          .status,
      "OK");
  std::vector<NormalizedFrame> frames;
  for (const std::string& line : MatrixWorkload()) {
    const ReplyFrame frame = session.Execute(line);
    frames.push_back(NormalizedFrame{frame.status, frame.text,
                                     frame.has_answer, frame.columns,
                                     frame.rows, frame.degrees});
  }
  return frames;
}

TEST(DeterminismTest, ConcurrentSessionsMatchSerialBaselineAtEveryConfig) {
  // Serial baseline once per engine-thread count, cache off (the pure
  // computation) and on (cache hits must be indistinguishable).
  for (const bool cache : {false, true}) {
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      const std::vector<NormalizedFrame> baseline =
          RunWorkload(threads, cache);
      for (const NormalizedFrame& frame : baseline) {
        EXPECT_EQ(frame.status, "OK") << frame.text;
      }
      constexpr int kClients = 4;
      std::vector<std::vector<NormalizedFrame>> results(kClients);
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&results, c, threads, cache] {
          results[c] = RunWorkload(threads, cache);
        });
      }
      for (std::thread& thread : clients) thread.join();
      for (int c = 0; c < kClients; ++c) {
        ASSERT_EQ(results[c].size(), baseline.size());
        for (size_t i = 0; i < baseline.size(); ++i) {
          EXPECT_TRUE(results[c][i] == baseline[i])
              << "client " << c << " line " << i << " threads " << threads
              << " cache " << cache << "\n served: " << results[c][i].text
              << "\n serial: " << baseline[i].text;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Registry-routed cancellation (the g_active_query regression)

// Before cancellation was routed through ActiveQueryRegistry, the
// SIGINT path latched a single active QueryContext -- with two queries
// in flight one of them was uncancellable. This drives two concurrent
// sessions into long queries and requires ONE CancelActiveQuery() call
// to land on both.
TEST(CancelTest, CancelAllReachesEveryInFlightQuery) {
  constexpr int kQueries = 2;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kQueries; ++i) {
    sessions.push_back(
        std::make_unique<Session>(i + 1, SessionDefaults{}, 0));
    // One all-pairs group: the type J query degenerates to ~n^2 pairs,
    // slow enough (seconds) that the cancel below lands mid-flight.
    ASSERT_EQ(sessions[i]->Execute(".gen typej 7 8000 8000 8000").status,
              "OK");
  }
  const size_t before = ActiveQueryRegistry::Global().Size();
  std::vector<ReplyFrame> frames(kQueries);
  std::vector<std::thread> runners;
  runners.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    runners.emplace_back([&frames, &sessions, i] {
      frames[i] = sessions[i]->Execute(
          "SELECT R.X FROM R WHERE R.Y IN "
          "(SELECT S.Z FROM S WHERE S.V = R.U);");
    });
  }
  // Wait until both queries are registered (i.e. actually executing).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ActiveQueryRegistry::Global().Size() < before + kQueries &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(ActiveQueryRegistry::Global().Size(), before + kQueries)
      << "queries never registered";
  EXPECT_TRUE(Shell::CancelActiveQuery());
  for (std::thread& thread : runners) thread.join();
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(frames[i].status, "CANCELLED")
        << "query " << i << ": " << frames[i].error;
  }
  // The interrupt epoch is consumed: fresh queries run normally.
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(sessions[i]
                  ->Execute("SELECT R.X FROM R WHERE R.X > 1000000;")
                  .status,
              "OK");
  }
}

// ---------------------------------------------------------------------
// The TCP server end to end

// Minimal line-protocol client for the tests.
class TestClient {
 public:
  ~TestClient() { Close(); }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool SendLine(const std::string& line) { return SendRaw(line + "\n"); }

  bool SendRaw(const std::string& data) {
    size_t written = 0;
    while (written < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + written,
                               data.size() - written, MSG_NOSIGNAL);
      if (n <= 0) return false;
      written += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadFrame(ReplyFrame* frame) {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        const std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return ParseReplyFrame(line, frame);
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Sends and reads the paired reply; retries RESOURCE_EXHAUSTED (for
  /// setup statements that must eventually land on a saturated server).
  bool Roundtrip(const std::string& line, ReplyFrame* frame,
                 bool retry_shed = false) {
    for (int attempt = 0; attempt < 2000; ++attempt) {
      if (!SendLine(line) || !ReadFrame(frame)) return false;
      if (!retry_shed || frame->status != "RESOURCE_EXHAUSTED") {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  /// Bounds every later read: a reply that never comes fails the read.
  void SetReadTimeout(int seconds) {
    timeval tv{seconds, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  /// EOF probe: true when the server closed the connection.
  bool AtEof() {
    char byte;
    return ::recv(fd_, &byte, 1, 0) <= 0;
  }

  /// Unblocks a send or recv in flight on another thread.
  void Shutdown() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(ServerTest, AnswersQueriesOverTcp) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ReplyFrame frame;
  ASSERT_TRUE(
      client.Roundtrip("CREATE TABLE t (name STRING, v FUZZY);", &frame));
  EXPECT_EQ(frame.status, "OK");
  ASSERT_TRUE(client.Roundtrip(
      "INSERT INTO t VALUES ('a', ABOUT(10, 2));", &frame));
  EXPECT_EQ(frame.status, "OK");
  ASSERT_TRUE(client.Roundtrip(
      "SELECT name FROM t WHERE v > ABOUT(9, 1) WITH D >= 0.1;", &frame));
  EXPECT_EQ(frame.status, "OK");
  ASSERT_TRUE(frame.has_answer);
  ASSERT_EQ(frame.rows.size(), 1u);
  EXPECT_EQ(frame.rows[0][0], "'a'");
  EXPECT_GE(frame.queue_wait_ms, 0.0);

  // Sessions are visible to any session through sys.sessions.
  ASSERT_TRUE(client.Roundtrip(
      "SELECT id, state FROM sys.sessions WITH D >= 0;", &frame));
  EXPECT_EQ(frame.status, "OK") << frame.error;
  ASSERT_TRUE(frame.has_answer);
  EXPECT_GE(frame.rows.size(), 1u);

  // .quit closes just this session; the server stays up.
  ASSERT_TRUE(client.Roundtrip(".quit", &frame));
  EXPECT_TRUE(frame.goodbye);
  EXPECT_TRUE(client.AtEof());

  TestClient second;
  ASSERT_TRUE(second.Connect(server.port()));
  ASSERT_TRUE(second.Roundtrip(".tables", &frame));
  EXPECT_EQ(frame.status, "OK");
  server.Stop();
}

TEST(ServerTest, ShedsOverloadAsResourceExhaustedAndStaysHealthy) {
  ServerConfig config;
  config.workers = 1;
  config.queue_depth = 1;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<TestClient>());
    ASSERT_TRUE(clients.back()->Connect(server.port()));
    ReplyFrame frame;
    // Setup competes for the single worker: retry shed replies.
    ASSERT_TRUE(clients.back()->Roundtrip(".gen typej 7 5000 5000 5000",
                                          &frame, /*retry_shed=*/true));
    ASSERT_EQ(frame.status, "OK") << frame.error;
  }

  // All clients fire a ~1s query at once: 1 executes, 1 queues, the
  // rest must shed immediately as RESOURCE_EXHAUSTED -- never hang.
  std::vector<std::string> statuses(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&clients, &statuses, i] {
      ReplyFrame frame;
      if (clients[i]->Roundtrip(
              "SELECT R.X FROM R WHERE R.Y IN "
              "(SELECT S.Z FROM S WHERE S.V = R.U);",
              &frame)) {
        statuses[i] = frame.status;
      } else {
        statuses[i] = "PROTOCOL_ERROR";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(statuses[i] == "OK" || statuses[i] == "RESOURCE_EXHAUSTED")
        << "client " << i << ": " << statuses[i];
    if (statuses[i] == "OK") ++ok;
    if (statuses[i] == "RESOURCE_EXHAUSTED") ++shed;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);

  // Shedding is load shedding, not damage: the server still answers.
  ReplyFrame frame;
  ASSERT_TRUE(clients[0]->Roundtrip(".tables", &frame,
                                    /*retry_shed=*/true));
  EXPECT_EQ(frame.status, "OK");
  server.Stop();
}

TEST(ServerTest, OversizedStatementIsRejectedAndServerStaysHealthy) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  Counter* errors = ServerMetrics::Instance()->errors_total;
  const uint64_t errors_before = errors->Value();

  // 2 MiB with no newline: the server must answer once the pending
  // line passes kMaxStatementBytes, not buffer the rest. The send runs
  // on its own thread because the server stops reading at the cap.
  TestClient flooder;
  ASSERT_TRUE(flooder.Connect(server.port()));
  std::thread sender([&flooder] {
    (void)flooder.SendRaw(std::string(2 * kMaxStatementBytes, 'x'));
  });
  ReplyFrame frame;
  ASSERT_TRUE(flooder.ReadFrame(&frame));
  EXPECT_EQ(frame.status, "INVALID_ARGUMENT");
  EXPECT_NE(frame.error.find(std::to_string(kMaxStatementBytes)),
            std::string::npos)
      << frame.error;
  EXPECT_TRUE(flooder.AtEof());
  flooder.Shutdown();
  sender.join();
  EXPECT_GE(errors->Value(), errors_before + 1);

  // Other connections are served as before.
  TestClient second;
  ASSERT_TRUE(second.Connect(server.port()));
  ASSERT_TRUE(second.Roundtrip(".tables", &frame));
  EXPECT_EQ(frame.status, "OK");
  server.Stop();
}

// Polls until the server holds `n` live sessions (up to ~10 s).
bool WaitForSessions(const Server& server, size_t n) {
  for (int i = 0; i < 2000 && server.active_sessions() != n; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return server.active_sessions() == n;
}

TEST(ServerTest, ConnectionsPastTheCapAreRefusedAndServerStaysHealthy) {
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  Counter* refused = ServerMetrics::Instance()->connections_refused;
  const uint64_t refused_before = refused->Value();

  // kMaxConnections idle sessions, each accepted before the next.
  std::vector<std::unique_ptr<TestClient>> idle;
  for (size_t i = 0; i < kMaxConnections; ++i) {
    idle.push_back(std::make_unique<TestClient>());
    ASSERT_TRUE(idle.back()->Connect(server.port())) << i;
    ASSERT_TRUE(WaitForSessions(server, i + 1)) << i;
  }

  // One more: a single RESOURCE_EXHAUSTED frame, then EOF.
  TestClient extra;
  ASSERT_TRUE(extra.Connect(server.port()));
  extra.SetReadTimeout(10);
  ReplyFrame frame;
  ASSERT_TRUE(extra.ReadFrame(&frame));
  EXPECT_EQ(frame.status, "RESOURCE_EXHAUSTED");
  EXPECT_NE(frame.error.find(std::to_string(kMaxConnections)),
            std::string::npos)
      << frame.error;
  EXPECT_TRUE(extra.AtEof());
  EXPECT_EQ(refused->Value(), refused_before + 1);

  // A session that leaves frees its slot for the next connection.
  idle.back()->Close();
  ASSERT_TRUE(WaitForSessions(server, kMaxConnections - 1));
  TestClient next;
  ASSERT_TRUE(next.Connect(server.port()));
  ASSERT_TRUE(next.Roundtrip(".tables", &frame));
  EXPECT_EQ(frame.status, "OK");
  server.Stop();
}

TEST(ServerTest, FailedAcceptIsRetried) {
  // The first accept fails as if the process were out of descriptors;
  // the loop must pause and go on accepting.
  FailPoints::Arm("server/accept", /*failures=*/1);
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 2000 && FailPoints::Hits("server/accept") == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(FailPoints::Hits("server/accept"), 1u);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ReplyFrame frame;
  ASSERT_TRUE(client.Roundtrip(".tables", &frame));
  EXPECT_EQ(frame.status, "OK");
  server.Stop();
  FailPoints::DisarmAll();
}

// A connection is registered before its session thread starts, so the
// very first statement a fresh connection answers already finds its own
// session in sys.sessions and in active_sessions().
TEST(ServerTest, FreshConnectionListsItselfOnItsFirstStatement) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 100; ++i) {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port())) << i;
    client.SetReadTimeout(30);
    ReplyFrame frame;
    ASSERT_TRUE(client.Roundtrip(
        "SELECT id, state FROM sys.sessions WITH D >= 0;", &frame))
        << i;
    ASSERT_EQ(frame.status, "OK") << frame.error;
    EXPECT_GE(server.active_sessions(), 1u) << i;
    const std::string own =
        FormatDouble(static_cast<double>(frame.session_id));
    bool listed = false;
    for (const auto& row : frame.rows) {
      if (row[0] == own && row[1] == "'open'") listed = true;
    }
    EXPECT_TRUE(listed) << "connection " << i << " (session " << own
                        << ") missing from sys.sessions";
  }
  server.Stop();
}

TEST(ServerTest, GracefulStopClosesSessionsAndIsIdempotent) {
  ServerConfig config;
  config.workers = 2;
  Server server(config);
  ASSERT_TRUE(server.Start().ok());

  TestClient a;
  TestClient b;
  ASSERT_TRUE(a.Connect(server.port()));
  ASSERT_TRUE(b.Connect(server.port()));
  ReplyFrame frame;
  ASSERT_TRUE(a.Roundtrip("CREATE TABLE t (x FUZZY);", &frame));
  EXPECT_EQ(frame.status, "OK");
  ASSERT_TRUE(b.Roundtrip(".tables", &frame));
  EXPECT_EQ(frame.status, "OK");
  EXPECT_EQ(server.active_sessions(), 2u);

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_TRUE(a.AtEof());
  EXPECT_TRUE(b.AtEof());
  server.Stop();  // idempotent

  // The port is released: a new server can bind it right away.
  ServerConfig again;
  again.port = server.port();
  Server second(again);
  EXPECT_TRUE(second.Start().ok());
  second.Stop();
}

}  // namespace
}  // namespace server
}  // namespace fuzzydb
