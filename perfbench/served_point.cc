// served_point: short interactive statements over TCP.
//
// Three client connections to an in-process server::Server with three
// admission workers, a queue deep enough never to shed, one engine
// thread per session and the cross-query cache sized for the working
// set. Each session loads a private catalog over the wire (a 2k-row
// relation P for selective fuzzy filters, a small type J pair R/S, and
// append-only event relations E0..E7), then runs a closed loop of
// filters answering about ten rows, small type N and type J selects, and
// one INSERT per ten statements, into the event relations in turn.
// Select parameters repeat from a small seeded set, so the cache gets
// hits; no select reads an event relation, so writes do not invalidate
// them. Spreading the INSERTs over eight relations keeps each one small,
// so the cost of an INSERT does not climb through the loop.
#include <atomic>
#include <limits>
#include <thread>

#include "cache/cache_manager.h"
#include "server/server.h"
#include "server/session.h"
#include "trace.h"
#include "workload/generator.h"
#include "workloads.h"

namespace fuzzydb {
namespace perfbench {

namespace {

constexpr size_t kClients = 3;
constexpr size_t kFilterRows = 2000;
constexpr double kFilterDomain = 2000.0;
constexpr size_t kPairRows = 300;
constexpr size_t kFilterParams = 8;
constexpr uint64_t kCacheBytes = 256ull << 20;
constexpr size_t kLoadBatch = 100;  // set-up statements per request line
constexpr size_t kEventTables = 8;

/// One session's data as the statements that load it.
std::vector<std::string> LoadStatements(uint64_t seed) {
  Rng rng(SubSeed(seed, 1));
  Relation p("P", Schema{{"ID", ValueType::kFuzzy},
                         {"V", ValueType::kFuzzy},
                         {"G", ValueType::kFuzzy}});
  for (size_t i = 0; i < kFilterRows; ++i) {
    const double center = rng.UniformDouble(0.0, kFilterDomain);
    const double core = rng.UniformDouble(0.0, 0.5);
    const double support = rng.UniformDouble(0.5, 1.5);
    const double degree =
        rng.Bernoulli(0.5) ? 1.0 : rng.UniformDouble(0.5, 1.0);
    (void)p.Append(Tuple({Value::Number(static_cast<double>(i)),
                          Value::Fuzzy(Trapezoid(center - support,
                                                 center - core, center + core,
                                                 center + support)),
                          Value::Number(static_cast<double>(i % 20))},
                         degree));
  }
  WorkloadConfig config;
  config.seed = SubSeed(seed, 2);
  config.num_r = kPairRows;
  config.num_s = kPairRows;
  config.join_fanout = 4;
  config.partial_membership_fraction = 0.4;
  TypeJDataset pair = GenerateTypeJDataset(config);
  std::vector<std::string> lines;
  for (const Relation* relation : {&p, &pair.r, &pair.s}) {
    lines.push_back(CreateStatement(*relation));
    for (const Tuple& tuple : relation->tuples()) {
      lines.push_back(InsertStatement(relation->name(), tuple));
    }
  }
  for (size_t i = 0; i < kEventTables; ++i) {
    lines.push_back("CREATE TABLE E" + std::to_string(i) +
                    " (K FUZZY, W FUZZY);");
  }
  return lines;
}

/// Joins statements into request lines of kLoadBatch each: a line may
/// carry several statements, and the session executes them in order, so
/// loading costs CPU work rather than round trips.
std::vector<std::string> Batched(const std::vector<std::string>& statements) {
  std::vector<std::string> lines;
  for (size_t i = 0; i < statements.size(); ++i) {
    if (i % kLoadBatch == 0) {
      lines.emplace_back();
    } else {
      lines.back() += ' ';
    }
    lines.back() += statements[i];
  }
  return lines;
}

/// One session's seeded statement stream: a fixed pattern of ten
/// statements (six filters, one type N, two type J, one INSERT) whose
/// parameters are drawn from a small per-session set.
class PointStatements {
 public:
  PointStatements(uint64_t seed, size_t conn) : rng_(SubSeed(seed, 3)),
                                                conn_(conn) {
    Rng params(SubSeed(seed, 4));
    for (size_t i = 0; i < kFilterParams; ++i) {
      filters_.push_back(
          "SELECT P.ID, P.V FROM P WHERE P.V = ABOUT(" +
          std::to_string(params.UniformInt(10, 1990)) + ", 4) WITH D >= 0." +
          std::to_string(params.UniformInt(1, 3)) + ";");
    }
  }

  /// Every select the loop can issue, once: the warm-up pass.
  std::vector<Stmt> WarmUp() const {
    std::vector<Stmt> stmts;
    for (const std::string& sql : filters_) {
      stmts.push_back(Select("FILTER", sql, conn_));
    }
    for (const char* theta : {"0.3", "0.5"}) {
      stmts.push_back(Select("N", TypeN(theta), conn_));
      stmts.push_back(Select("J", TypeJ(theta), conn_));
    }
    return stmts;
  }

  Stmt Next() {
    static constexpr char kPattern[] = "FFNFJFFJFI";
    const char kind = kPattern[next_++ % (sizeof(kPattern) - 1)];
    const char* theta = rng_.Bernoulli(0.5) ? "0.3" : "0.5";
    switch (kind) {
      case 'F':
        return Select("FILTER",
                      filters_[static_cast<size_t>(rng_.UniformInt(
                          0, static_cast<int64_t>(kFilterParams) - 1))],
                      conn_);
      case 'N':
        return Select("N", TypeN(theta), conn_);
      case 'J':
        return Select("J", TypeJ(theta), conn_);
      default: {
        const std::string x = NumberLiteral(
            static_cast<double>(rng_.UniformInt(0, 99999)) / 100.0);
        const size_t table = next_ / 10 % kEventTables;
        return Insert("INSERT INTO E" + std::to_string(table) + " VALUES (" +
                          std::to_string(next_) + ", ABOUT(" + x + ", 1));",
                      conn_);
      }
    }
  }

 private:
  static std::string TypeN(const char* theta) {
    return std::string("SELECT R.X FROM R WHERE R.Y IN (SELECT S.Z FROM S) "
                       "WITH D >= ") +
           theta + ";";
  }
  static std::string TypeJ(const char* theta) {
    return std::string("SELECT R.X FROM R WHERE R.Y IN (SELECT S.Z FROM S "
                       "WHERE S.V = R.U) WITH D >= ") +
           theta + ";";
  }

  Rng rng_;
  const size_t conn_;
  std::vector<std::string> filters_;
  size_t next_ = 0;
};

uint64_t SessionSeed(uint64_t seed, size_t conn) {
  return SubSeed(seed, 10 + conn);
}

server::SessionDefaults Defaults() {
  server::SessionDefaults defaults;
  defaults.batch_size = 1024;
  defaults.cache = true;
  defaults.threads = 1;
  return defaults;
}

/// A running server with every session loaded and warmed up.
struct Served {
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<Client>> clients;
};

Served StartServed(uint64_t seed, Outcome* out) {
  Served served;
  server::ServerConfig config;
  config.workers = kClients;
  config.queue_depth = 64;
  config.session_defaults = Defaults();
  served.server = std::make_unique<server::Server>(config);
  if (!served.server->Start().ok()) {
    out->Fail("server failed to start");
    return served;
  }
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    served.clients.push_back(std::make_unique<Client>());
  }
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *served.clients[c];
      if (!client.Connect(served.server->port())) {
        errors[c] = "connect failed";
        return;
      }
      server::ReplyFrame frame;
      std::vector<std::string> lines =
          Batched(LoadStatements(SessionSeed(seed, c)));
      for (const Stmt& stmt : PointStatements(SessionSeed(seed, c), c)
                                  .WarmUp()) {
        lines.push_back(stmt.sql);
      }
      for (const std::string& line : lines) {
        if (!client.Roundtrip(line, &frame) || frame.status != "OK") {
          errors[c] = "set-up statement failed: " + line;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) out->Fail(error);
  }
  return served;
}

/// Pass B of the traced run: one private catalog per session, loaded
/// and warmed up through the replay without spans.
class PointReplay : public ReplayEnv {
 public:
  PointReplay(uint64_t seed, Outcome* out) {
    for (size_t c = 0; c < kClients; ++c) {
      catalogs_[c] = std::make_unique<Catalog>();
      targets_[c].catalog = catalogs_[c].get();
      targets_[c].options.num_threads = 1;
      targets_[c].options.batch_size = 1024;
      targets_[c].options.cost_based = true;
      targets_[c].options.cache = &CacheManager::Global();
      std::vector<Stmt> setup;
      for (const std::string& line : LoadStatements(SessionSeed(seed, c))) {
        setup.push_back(Stmt{Kind::kOther, "", line, c});
      }
      for (const Stmt& stmt :
           PointStatements(SessionSeed(seed, c), c).WarmUp()) {
        setup.push_back(stmt);
      }
      for (const Stmt& stmt : setup) {
        if (!Replay(stmt, &targets_[c], true, nullptr, nullptr).ok) {
          out->Fail("replay set-up failed: " + stmt.sql);
          return;
        }
      }
    }
  }
  ReplayTarget* Target(size_t conn) override { return &targets_[conn]; }

 private:
  std::unique_ptr<Catalog> catalogs_[kClients];
  ReplayTarget targets_[kClients];
};

/// Per-client record of the timed loop.
struct ClientLog {
  std::vector<Sample> samples;
  std::vector<uint64_t> digests;  // reply frame digest per statement
  uint64_t attempted = 0, failed = 0, shed = 0;
  std::string error;
};

/// The gate: replays each client's statements through an embedded
/// Session and requires every reply frame to match the served one.
void CheckFrames(uint64_t seed, const std::vector<ClientLog>& logs,
                 Outcome* out) {
  CacheManager::Global().Clear();
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      server::Session session(c + 1, Defaults(), 0);
      const uint64_t session_seed = SessionSeed(seed, c);
      PointStatements statements(session_seed, c);
      std::vector<std::string> lines = Batched(LoadStatements(session_seed));
      for (const Stmt& stmt : statements.WarmUp()) lines.push_back(stmt.sql);
      for (const std::string& line : lines) {
        if (session.Execute(line).status != "OK") {
          errors[c] = "embedded set-up failed: " + line;
          return;
        }
      }
      for (size_t i = 0; i < logs[c].digests.size(); ++i) {
        const Stmt stmt = statements.Next();
        if (FrameDigest(session.Execute(stmt.sql)) != logs[c].digests[i]) {
          errors[c] = "served frame differs from the embedded Session's "
                      "for: " + stmt.sql;
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  size_t frames = 0;
  for (size_t c = 0; c < kClients; ++c) {
    if (!errors[c].empty()) out->Fail(errors[c]);
    frames += logs[c].digests.size();
  }
  out->Note("gate: " + std::to_string(frames) +
            " served reply frames identical to an embedded Session's");
}

}  // namespace

Outcome RunServedPoint(const Options& options) {
  Outcome out;
  CacheManager::Global().set_capacity_bytes(kCacheBytes);
  const uint64_t seed = options.seed;

  if (options.trace) {
    TracedWorkload traced;
    traced.name = "served_point";
    std::vector<PointStatements> streams;
    for (size_t c = 0; c < kClients; ++c) {
      streams.emplace_back(SessionSeed(seed, c), c);
    }
    for (size_t round = 0; round < 100; ++round) {
      for (PointStatements& stream : streams) {
        traced.script.push_back(stream.Next());
      }
    }
    traced.make_surface = [seed](Outcome* out) -> std::unique_ptr<Surface> {
      Served served = StartServed(seed, out);
      return std::make_unique<ServedSurface>(
          std::move(served.server), std::move(served.clients), nullptr);
    };
    traced.make_replay = [seed](Tracer*, Outcome* out) {
      return std::make_unique<PointReplay>(seed, out);
    };
    RunTraced(traced, options, &out);
    return out;
  }

  std::vector<double> setup_s;
  Served served;
  for (int i = 0; i < kSetups; ++i) {
    served = Served{};
    CacheManager::Global().Clear();
    const auto start = Clock::now();
    served = StartServed(seed, &out);
    if (!out.correct) return out;
    setup_s.push_back(MsSince(start) / 1e3);
  }

  std::vector<ClientLog> logs(kClients);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> selects_done{0}, inserts_done{0};
  LoopLog log;
  const double cpu0 = ProcessCpuMs();
  const auto loop_start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& client_log = logs[c];
      Client& client = *served.clients[c];
      PointStatements statements(SessionSeed(seed, c), c);
      server::ReplyFrame frame;
      while (!stop.load(std::memory_order_relaxed)) {
        const Stmt stmt = statements.Next();
        const auto start = Clock::now();
        if (!client.Roundtrip(stmt.sql, &frame)) {
          client_log.error = "connection lost";
          return;
        }
        double ms = MsSince(start);
        ++client_log.attempted;
        if (frame.status != "OK") {
          ++client_log.failed;
          if (frame.status == "RESOURCE_EXHAUSTED") ++client_log.shed;
          ms = std::numeric_limits<double>::infinity();
        }
        client_log.digests.push_back(FrameDigest(frame));
        const bool select = stmt.kind == Kind::kSelect;
        client_log.samples.push_back({ms, select});
        (select ? selects_done : inserts_done)
            .fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const double elapsed_ms = MsSince(loop_start);
    const bool enough = selects_done.load() >= kMinSamples &&
                        inserts_done.load() >= kMinSamples;
    if ((elapsed_ms >= options.seconds * 1e3 && enough) ||
        elapsed_ms >= kMaxLoopSeconds * 1e3) {
      break;
    }
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  log.wall_ms = MsSince(loop_start);
  log.cpu_ms = ProcessCpuMs() - cpu0;
  const double peak_rss_mb = PeakRssMb();
  served = Served{};

  for (const ClientLog& client_log : logs) {
    if (!client_log.error.empty()) out.Fail(client_log.error);
    out.attempted += client_log.attempted;
    out.failed += client_log.failed;
    out.shed += client_log.shed;
    log.samples.insert(log.samples.end(), client_log.samples.begin(),
                       client_log.samples.end());
  }
  CheckFrames(seed, logs, &out);
  AddLoopMetrics(log, Median(setup_s), peak_rss_mb, &out);
  return out;
}

}  // namespace perfbench
}  // namespace fuzzydb
