// The multi-session TCP front end: concurrent clients over a line
// protocol (docs/operations.md, "Server mode").
//
// Life of a request: a connection thread reads one line, submits it to
// the AdmissionController's bounded queue, and blocks until a worker
// has executed it against the connection's Session (its own Shell +
// catalog) and produced a ReplyFrame; the connection thread then writes
// the frame back as one JSON line. A full queue is answered
// RESOURCE_EXHAUSTED immediately -- the connection itself never blocks
// on someone else's backlog. At most one request per session is in
// flight, so per-session ordering is by construction and sessions never
// contend on their own state.
//
// Shutdown is graceful: Stop() closes the listener, cancels every
// in-flight query through ActiveQueryRegistry::CancelAll() (each lands
// as a well-formed CANCELLED frame), drains the queue, and joins every
// connection thread. SIGINT in server mode routes here (see
// tools/fuzzydb_server.cc).
//
// Observability: aggregate fuzzydb_server_* metrics (server_metrics.h)
// and the sys.sessions system relation (one row per live session,
// registered through Shell::RegisterSystemRelationProvider so any
// session can SELECT it).
#ifndef FUZZYDB_SERVER_SERVER_H_
#define FUZZYDB_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "relational/relation.h"
#include "server/admission.h"
#include "server/session.h"

namespace fuzzydb {
namespace server {

/// The longest statement line a connection may send. A pending line
/// past it is answered with one INVALID_ARGUMENT frame and the
/// connection is closed, so no client can grow server memory without
/// bound by never sending a newline.
inline constexpr size_t kMaxStatementBytes = size_t{1} << 20;

/// The most connections served at once. A connection past the cap --
/// or one whose thread cannot be spawned -- is answered with one
/// RESOURCE_EXHAUSTED frame and closed, and counted in
/// fuzzydb_server_connections_refused_total, so idle clients cannot
/// exhaust the server's threads or descriptors.
inline constexpr size_t kMaxConnections = 256;

/// The most engine threads one session may ask for (SET threads,
/// --threads). A larger count is refused with INVALID_ARGUMENT before
/// any query tries to spawn the threads, where a failed thread creation
/// would abort the whole server.
inline constexpr size_t kMaxSessionThreads = 256;

struct ServerConfig {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port,
  /// readable from port() after Start().
  int port = 0;
  size_t workers = 2;
  size_t queue_depth = 16;
  uint64_t memory_budget_total = 0;  // bytes; 0 = unconstrained
  SessionDefaults session_defaults;
  /// When non-empty, Start() recovers the WAL database in this
  /// directory and every session shares it: writes are logged and
  /// durable, reads are MVCC snapshots. When empty (the default), each
  /// session keeps its own private in-memory catalog.
  std::string wal_dir;
  wal::WalOptions wal_options;
};

class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop. Fails (IoError) when
  /// the port is taken.
  Status Start();

  /// The bound port (after Start()).
  int port() const { return port_; }

  /// Graceful stop: close the listener, cancel in-flight queries, drain
  /// the admission queue, join every connection. Idempotent; also runs
  /// on destruction.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  size_t active_sessions() const;

  /// The shared durable catalog (WAL mode only; null otherwise). Test
  /// hooks: production access goes through the sessions.
  Catalog* shared_catalog() {
    return config_.wal_dir.empty() ? nullptr : &shared_catalog_;
  }
  wal::WalManager* wal() { return wal_.get(); }

  /// The sys.sessions relation over every live session: (id, state,
  /// statements, errors, age_ms, peer), degree 1 per row. The provider
  /// registered with the shell layer serves this for whichever server
  /// instance is currently running.
  Relation SessionsRelation() const;

 private:
  struct Connection {
    std::thread thread;
    int fd = -1;
    std::unique_ptr<Session> session;
    std::chrono::steady_clock::time_point connected;
    std::string peer;
    std::atomic<bool> done{false};
  };

  void AcceptLoop(int listen_fd);
  void ServeConnection(Connection* connection);
  /// Joins and erases finished connections; with `all`, joins every
  /// connection (Stop()).
  void ReapConnections(bool all);

  const ServerConfig config_;
  AdmissionController admission_;
  Catalog shared_catalog_;  // WAL mode: every session's database
  std::unique_ptr<wal::WalManager> wal_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> next_session_id_{1};
  std::thread accept_thread_;
  mutable std::mutex connections_mu_;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
};

}  // namespace server
}  // namespace fuzzydb

#endif  // FUZZYDB_SERVER_SERVER_H_
