// The traced run: one fixed statement script executed three times, each
// on its own fresh set-up from the same seed.
//
//   pass A  through the program's own surface (Shell::FeedLine for the
//           embedded workload, TCP to an in-process server::Server for
//           the served ones), untraced: per-statement wall and execute
//           time, reply sizes, answer digests;
//   pass B  through the layer entry points, in the order
//           Shell::ExecuteStatement calls them (sql::ParseStatement,
//           Catalog::Snapshot, sql::Bind, Classify,
//           UnnestingEvaluator::Evaluate, Relation::ToString; for writes
//           AcquireCommitLock, WalManager::Append, wal::ApplyWalRecord,
//           CacheManager::InvalidateRelation; WalManager::Checkpoint),
//           with a span around each call;
//   pass C  pass B without spans, run in turn with it statement by
//           statement, for the tracing overhead.
//
// Pass B's and C's answers must equal pass A's. The per-layer metrics come from
// pass B's spans and counters, plus the server-side figures only pass A
// can see (round trip minus execute time, admission queue wait, reply
// frame bytes). The replay mirrors the shell's statement path as of
// this benchmark's version; spans inside the program are not used.
#ifndef FUZZYDB_PERFBENCH_TRACE_H_
#define FUZZYDB_PERFBENCH_TRACE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/exec_options.h"
#include "server/server.h"
#include "wal/wal_manager.h"

namespace fuzzydb {
namespace perfbench {

/// One statement's execution as pass A (or an untraced loop) saw it.
struct Execution {
  bool ok = false;
  uint64_t digest = 0;       // answer digest, comparable across passes
  double wall_ms = 0.0;      // as the client sees it
  double exec_ms = 0.0;      // inside Shell::FeedLine / Session::Execute,
                             // or the replay of the statement
  size_t frame_bytes = 0;    // reply line bytes (served only)
  int cow = -1;              // 1/0 when the catalog handle was observable
};

/// Pass A's surface: executes statements through the program.
class Surface {
 public:
  virtual ~Surface() = default;
  virtual Execution Execute(const Stmt& stmt) = 0;
  /// Whether replies travel as frames over TCP.
  virtual bool served() const = 0;
};

/// Pass A for the served workloads: a started in-process server and
/// connected clients; statement i goes out on client stmt.conn. When
/// `observable` (the server's shared catalog) is set, INSERTs also
/// report whether their relation's catalog handle changed.
class ServedSurface : public Surface {
 public:
  ServedSurface(std::unique_ptr<server::Server> server,
                std::vector<std::unique_ptr<Client>> clients,
                Catalog* observable);
  ~ServedSurface() override;
  Execution Execute(const Stmt& stmt) override;
  bool served() const override { return true; }

 private:
  std::unique_ptr<server::Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  Catalog* observable_;
};

/// Where pass B executes one connection's statements.
struct ReplayTarget {
  Catalog* catalog = nullptr;
  wal::WalManager* wal = nullptr;  // null: writes go straight to catalog
  ExecOptions options;             // threads, batch, cost_based, cache
};

/// Pass B's environment: a target per connection. Built after a fresh
/// set-up; the tracer lets it record a wal.recovery span.
class ReplayEnv {
 public:
  virtual ~ReplayEnv() = default;
  virtual ReplayTarget* Target(size_t conn) = 0;
};

struct TracedWorkload {
  std::string name;
  std::vector<Stmt> script;
  std::function<std::unique_ptr<Surface>(Outcome*)> make_surface;
  std::function<std::unique_ptr<ReplayEnv>(Tracer*, Outcome*)> make_replay;
};

/// Counters pass B gathers next to its spans.
struct ReplayStats {
  struct Shape {
    uint64_t calls = 0;
    double evaluate_us = 0.0;
    uint64_t tuple_pairs = 0;
    uint64_t degree_evals = 0;
  };
  std::map<std::string, Shape> shapes;
  uint64_t selects = 0;
  uint64_t inserts = 0;
  uint64_t fallbacks = 0;      // SELECTs answered by the naive fallback
  uint64_t answer_rows = 0;
  uint64_t tuple_pairs = 0;
  double phase_us[7] = {};     // indexed by QueryPhase
  double evaluate_cpu_ms = 0.0;
  double evaluate_wall_ms = 0.0;
  uint64_t cow = 0;            // INSERTs whose catalog handle changed
  uint64_t insert_bytes = 0;   // INSERT statement text acknowledged
  uint64_t checkpoint_bytes = 0;
};

/// Executes `stmt` on `target` through the layer entry points, spans on
/// `tracer` and counters in `stats` (both may be null: untraced, e.g.
/// warm-up). `served` adds the reply frame layers (fill,
/// RenderReplyFrame, ParseReplyFrame).
Execution Replay(const Stmt& stmt, ReplayTarget* target, bool served,
                 Tracer* tracer, ReplayStats* stats);

/// Runs both passes and appends every per-layer metric to `out`.
void RunTraced(const TracedWorkload& workload, const Options& options,
               Outcome* out);

}  // namespace perfbench
}  // namespace fuzzydb

#endif  // FUZZYDB_PERFBENCH_TRACE_H_
