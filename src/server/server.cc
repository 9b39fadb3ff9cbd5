#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <system_error>
#include <utility>

#include "common/failpoint.h"
#include "obs/query_registry.h"
#include "server/server_metrics.h"
#include "server/wire.h"
#include "wal/recovery.h"

namespace fuzzydb {
namespace server {

namespace {

// The server whose sessions the process-wide sys.sessions provider
// renders. The provider itself is registered once per process (the
// shell-layer registry is append-only), so it indirects through this
// slot instead of capturing a Server*.
std::mutex g_sessions_mu;
Server* g_sessions_server = nullptr;

Relation EmptySessionsRelation() {
  return Relation("sys.sessions", Schema{{"id", ValueType::kFuzzy},
                                         {"state", ValueType::kString},
                                         {"statements", ValueType::kFuzzy},
                                         {"errors", ValueType::kFuzzy},
                                         {"age_ms", ValueType::kFuzzy},
                                         {"peer", ValueType::kString}});
}

void RegisterSessionsProvider() {
  static std::once_flag once;
  std::call_once(once, [] {
    Shell::RegisterSystemRelationProvider("sys.sessions", [] {
      std::lock_guard<std::mutex> lock(g_sessions_mu);
      if (g_sessions_server == nullptr) return EmptySessionsRelation();
      return g_sessions_server->SessionsRelation();
    });
  });
}

/// Writes the whole buffer, riding out partial writes; MSG_NOSIGNAL so
/// a client that hung up yields an error, not SIGPIPE.
bool WriteAll(int fd, const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd, data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n <= 0) return false;
    written += static_cast<size_t>(n);
  }
  return true;
}

/// Answers a connection the server will not serve with one
/// RESOURCE_EXHAUSTED frame, then closes it.
void Refuse(int fd, const std::string& reason) {
  ServerMetrics::Instance()->connections_refused->Add();
  ReplyFrame frame;
  frame.status = "RESOURCE_EXHAUSTED";
  frame.error = reason + "; retry later";
  (void)WriteAll(fd, RenderReplyFrame(frame) + "\n");
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

std::string PeerName(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return "?";
  }
  char host[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
  return std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

Server::Server(const ServerConfig& config)
    : config_(config),
      admission_({config.workers, config.queue_depth,
                  config.memory_budget_total}) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (!config_.wal_dir.empty()) {
    // Recover the shared durable database before accepting anyone:
    // every session attaches to this catalog + WAL pair.
    BufferPool pool(64);
    auto recovered =
        wal::OpenWalDatabase(config_.wal_dir, config_.wal_options, &pool);
    FUZZYDB_RETURN_IF_ERROR(recovered.status());
    shared_catalog_ = std::move(recovered->catalog);
    wal_ = std::move(recovered->manager);
  }
  RegisterSessionsProvider();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IoError("socket() failed");
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("cannot bind port " +
                           std::to_string(config_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen() failed");
  }
  running_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(g_sessions_mu);
    g_sessions_server = this;
  }
  // The accept loop works on its own copy of the fd: Stop() writing
  // listen_fd_ = -1 must not race the loop's reads.
  accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  // 1. Stop admitting connections: closing the listener pops the accept
  //    loop out of accept().
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Cancel every in-flight query: each lands as a CANCELLED frame on
  //    its own connection within one morsel of work.
  ActiveQueryRegistry::Global().CancelAll();
  // 3. Unblock readers and join every connection thread; replies still
  //    in flight are written before each thread exits.
  // A connection's fd is written once (before its thread starts) and
  // closed only after its thread is joined (ReapConnections), so this
  // shutdown never races a close or a reused descriptor.
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto& [id, connection] : connections_) {
      ::shutdown(connection->fd, SHUT_RD);
    }
  }
  ReapConnections(/*all=*/true);
  // 4. Drain the admission queue and join the workers.
  admission_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(g_sessions_mu);
    if (g_sessions_server == this) g_sessions_server = nullptr;
  }
}

size_t Server::active_sessions() const {
  std::lock_guard<std::mutex> lock(connections_mu_);
  size_t live = 0;
  for (const auto& [id, connection] : connections_) {
    if (!connection->done.load(std::memory_order_relaxed)) ++live;
  }
  return live;
}

Relation Server::SessionsRelation() const {
  Relation rel = EmptySessionsRelation();
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(connections_mu_);
  for (const auto& [id, connection] : connections_) {
    const bool done = connection->done.load(std::memory_order_relaxed);
    const double age_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - connection->connected)
                .count()) /
        1e3;
    (void)rel.Append(Tuple(
        {Value::Number(static_cast<double>(id)),
         Value::String(done ? "closing" : "open"),
         Value::Number(static_cast<double>(connection->session->statements())),
         Value::Number(static_cast<double>(connection->session->errors())),
         Value::Number(age_ms), Value::String(connection->peer)},
        /*degree=*/1.0));
  }
  return rel;
}

void Server::AcceptLoop(int listen_fd) {
  while (running()) {
    // The fail point stands in for a failing accept(), as when the
    // process is out of descriptors.
    const bool injected = !FailPoints::Check("server/accept").ok();
    const int fd = injected ? -1 : ::accept(listen_fd, nullptr, nullptr);
    const int accept_errno = errno;
    // Finished connections release their threads and descriptors here,
    // before the cap is checked -- and on a failed accept, whose EMFILE
    // they may be the cause of.
    ReapConnections(/*all=*/false);
    if (fd < 0) {
      // Stop() clears running() before it closes the listener, which
      // is what ends the loop. Any other failure (EMFILE, ENOBUFS, ...)
      // is retried after a pause.
      if (running() && (injected || (accept_errno != EINTR &&
                                     accept_errno != ECONNABORTED))) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      if (connections_.size() >= kMaxConnections) {
        Refuse(fd, "server at its " + std::to_string(kMaxConnections) +
                       "-connection limit");
        continue;
      }
    }
    ServerMetrics* metrics = ServerMetrics::Instance();
    const uint64_t id =
        next_session_id_.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    connection->connected = std::chrono::steady_clock::now();
    connection->peer = PeerName(fd);
    connection->session = std::make_unique<Session>(
        id, config_.session_defaults, admission_.fair_share_budget(),
        shared_catalog(), wal_.get());
    Connection* raw = connection.get();
    metrics->sessions_active->Add(1);
    // Registered before its thread starts, so a session that has
    // answered a statement is always in active_sessions() and
    // sys.sessions. Only this thread reaps, so the entry stays put
    // while the thread starts.
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.emplace(id, std::move(connection));
    }
    try {
      raw->thread = std::thread([this, raw] { ServeConnection(raw); });
    } catch (const std::system_error&) {
      metrics->sessions_active->Add(-1);
      {
        std::lock_guard<std::mutex> lock(connections_mu_);
        connections_.erase(id);
      }
      Refuse(fd, "cannot start a connection thread");
      continue;
    }
    metrics->connections_total->Add();
  }
}

void Server::ServeConnection(Connection* connection) {
  ServerMetrics* metrics = ServerMetrics::Instance();
  std::string buffer;
  char chunk[4096];
  bool open = true;
  // Answers a statement line longer than kMaxStatementBytes with one
  // INVALID_ARGUMENT frame; the caller then closes the connection.
  auto reject_oversized = [&] {
    ReplyFrame frame;
    frame.session_id = connection->session->id();
    frame.seq = connection->session->statements() + 1;
    frame.status = "INVALID_ARGUMENT";
    frame.error = "statement exceeds the " +
                  std::to_string(kMaxStatementBytes) +
                  "-byte limit; closing the connection";
    metrics->errors_total->Add();
    (void)WriteAll(connection->fd, RenderReplyFrame(frame) + "\n");
    open = false;
  };
  while (open) {
    const ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or reset (or Stop()'s SHUT_RD)
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while (open && (newline = buffer.find('\n')) != std::string::npos) {
      if (newline > kMaxStatementBytes) {
        reject_oversized();
        break;
      }
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      metrics->requests_total->Add();
      Session* session = connection->session.get();
      std::promise<ReplyFrame> promise;
      std::future<ReplyFrame> future = promise.get_future();
      const bool admitted = admission_.Submit(
          [session, &line, &promise](double queue_wait_ms) {
            ReplyFrame frame = session->Execute(line);
            frame.queue_wait_ms = queue_wait_ms;
            promise.set_value(std::move(frame));
          });
      ReplyFrame frame;
      if (admitted) {
        frame = future.get();
      } else {
        // Overload shedding: a full queue answers immediately instead
        // of stacking the connection behind an unbounded backlog.
        metrics->shed_total->Add();
        frame.session_id = session->id();
        frame.seq = session->statements() + 1;
        frame.status = "RESOURCE_EXHAUSTED";
        frame.error = "admission queue full (depth " +
                      std::to_string(config_.queue_depth) +
                      "); retry later";
      }
      if (frame.status != "OK") metrics->errors_total->Add();
      if (!WriteAll(connection->fd, RenderReplyFrame(frame) + "\n")) {
        open = false;
      }
      if (frame.goodbye) open = false;
    }
    if (open && buffer.size() > kMaxStatementBytes) reject_oversized();
  }
  // Shut down (peer sees the close promptly) but do NOT close: the fd
  // number stays allocated until ReapConnections closes it after the
  // join, so Stop()'s shutdown can never hit a reused descriptor.
  ::shutdown(connection->fd, SHUT_RDWR);
  metrics->sessions_active->Add(-1);
  connection->done.store(true, std::memory_order_relaxed);
}

void Server::ReapConnections(bool all) {
  std::vector<std::unique_ptr<Connection>> to_join;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (all || it->second->done.load(std::memory_order_relaxed)) {
        to_join.push_back(std::move(it->second));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& connection : to_join) {
    if (connection->thread.joinable()) connection->thread.join();
    if (connection->fd >= 0) ::close(connection->fd);
  }
}

}  // namespace server
}  // namespace fuzzydb
