// Live query introspection: the active-query registry and per-query
// phase/progress accounting behind SHOW QUERIES, sys.queries, and KILL.
//
// Two pieces, layered the same way as trace.h / metrics.h:
//
//  - QueryProgress is one query's live state: the phase currently
//    executing (plan / filter / sort / window / join / emit), monotonic
//    per-phase timers, and progress counters (items scanned, morsels
//    completed, rows emitted, merge-window pairs). Workers bump the
//    morsel counters with relaxed atomic adds; phase switches and the
//    row/pair folds happen only on the control thread (each operator's
//    OpScope, obs/op_scope.h, opens and closes strictly outside the
//    parallel barriers), so concurrent readers -- SHOW QUERIES from
//    another thread -- see a coherent snapshot without locks. A null
//    QueryProgress costs one pointer test per operator.
//
//  - ActiveQueryRegistry is the process-wide table of in-flight
//    queries. Registration at admission publishes the query's
//    QueryContext (so KILL <id> reaches the existing cancel flag) and
//    its QueryProgress; unregistration folds the per-phase timers into
//    the cumulative fuzzydb_phase_seconds_total{phase=...} metrics.
//
// Determinism: phase *enter counts* and the progress counters are pure
// functions of the plan and the morsel decomposition, so they are
// identical at every thread count (DeterminismSignature() is asserted
// across 1/2/4/8 threads); phase *times* are wall-clock and vary.
#ifndef FUZZYDB_OBS_QUERY_REGISTRY_H_
#define FUZZYDB_OBS_QUERY_REGISTRY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "relational/relation.h"

namespace fuzzydb {

/// The pipeline stage a query is executing. kPlan is the residual --
/// classification, planning, cache lookups, and everything between
/// operator scopes -- so the per-phase times sum to the query's wall
/// time. kNone means "not started" or "finished".
enum class QueryPhase : uint32_t {
  kNone = 0,
  kPlan,
  kFilter,
  kSort,
  kWindow,
  kJoin,
  kEmit,
};

inline constexpr size_t kNumQueryPhases = 7;

/// Lower-case stable name ("plan", "sort", ...) used by metrics labels,
/// sys.queries, the phases= annotation, and the query journal.
const char* QueryPhaseName(QueryPhase phase);

/// One query's live progress. Counter updates are relaxed atomics
/// (worker-safe); phase switches are control-thread-only. Readers may
/// sample any accessor from any thread at any time.
class QueryProgress {
 public:
  /// The phase clock: the same steady clock as ExecTrace's span clock.
  using Clock = std::chrono::steady_clock;

  QueryProgress() : created_(Clock::now()) {}
  QueryProgress(const QueryProgress&) = delete;
  QueryProgress& operator=(const QueryProgress&) = delete;

  // ---- Control-thread-only phase accounting (see OpScope) -----------

  /// Switches to `phase` at time `at`, flushing the elapsed time into
  /// the previous phase's timer and counting one enter of the new
  /// phase. The first call also latches the queue wait (construction ->
  /// first phase). Returns the previous phase so OpScope can restore it.
  QueryPhase EnterPhase(QueryPhase phase, Clock::time_point at);

  /// As EnterPhase without counting an enter: a closing OpScope
  /// restores the enclosing phase through this, so enter counts reflect
  /// operator activations, not scope nesting.
  void SwitchTo(QueryPhase phase, Clock::time_point at);

  /// Flushes the tail of the current phase and parks in kNone. Called
  /// once when the query finishes (ActiveQueryRegistration destructor).
  void FinishPhases();

  // ---- Worker-safe progress counters --------------------------------

  /// One morsel of `items` input tuples completed.
  void AddMorsel(uint64_t items) {
    morsels_done_.fetch_add(1, std::memory_order_relaxed);
    items_done_.fetch_add(items, std::memory_order_relaxed);
  }
  void AddRows(uint64_t n) {
    rows_emitted_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddPairs(uint64_t n) {
    pairs_considered_.fetch_add(n, std::memory_order_relaxed);
  }

  // ---- Readers (any thread) -----------------------------------------

  QueryPhase phase() const {
    return static_cast<QueryPhase>(phase_.load(std::memory_order_relaxed));
  }
  uint64_t items_done() const {
    return items_done_.load(std::memory_order_relaxed);
  }
  uint64_t morsels_done() const {
    return morsels_done_.load(std::memory_order_relaxed);
  }
  uint64_t rows_emitted() const {
    return rows_emitted_.load(std::memory_order_relaxed);
  }
  uint64_t pairs_considered() const {
    return pairs_considered_.load(std::memory_order_relaxed);
  }
  uint64_t queue_wait_micros() const {
    return queue_wait_micros_.load(std::memory_order_relaxed);
  }
  /// Flushed time of one phase in microseconds (the currently open
  /// phase's in-flight slice is not included until the next switch).
  uint64_t PhaseMicros(QueryPhase phase) const {
    return phase_micros_[static_cast<size_t>(phase)].load(
        std::memory_order_relaxed);
  }
  uint64_t PhaseEnters(QueryPhase phase) const {
    return phase_enters_[static_cast<size_t>(phase)].load(
        std::memory_order_relaxed);
  }

  /// "plan=1.2ms sort=0.8ms ..." over the phases entered at least once,
  /// in pipeline order (the EXPLAIN ANALYZE phases= annotation).
  std::string PhasesText() const;

  /// Thread-count-invariant digest: phase enter counts plus the
  /// progress counters, no times. Equal across 1/2/4/8 threads.
  std::string DeterminismSignature() const;

  /// The registry id, 0 until registered (set by ActiveQueryRegistry).
  uint64_t query_id() const {
    return query_id_.load(std::memory_order_relaxed);
  }
  void set_query_id(uint64_t id) {
    query_id_.store(id, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint32_t> phase_{0};
  std::array<std::atomic<uint64_t>, kNumQueryPhases> phase_micros_{};
  std::array<std::atomic<uint64_t>, kNumQueryPhases> phase_enters_{};
  std::atomic<uint64_t> items_done_{0};
  std::atomic<uint64_t> morsels_done_{0};
  std::atomic<uint64_t> rows_emitted_{0};
  std::atomic<uint64_t> pairs_considered_{0};
  std::atomic<uint64_t> queue_wait_micros_{0};
  std::atomic<uint64_t> query_id_{0};
  // Control-thread-only: when the open phase started. Readers never
  // touch these; they see only the flushed atomics above.
  Clock::time_point created_;
  Clock::time_point mark_{};
  bool started_ = false;
};

/// A point-in-time copy of one registered query, safe to hold after the
/// query finishes.
struct ActiveQueryInfo {
  uint64_t id = 0;
  std::string sql;
  std::string phase;
  double elapsed_ms = 0.0;
  double queue_wait_ms = 0.0;
  uint64_t items_done = 0;
  uint64_t morsels_done = 0;
  uint64_t rows_emitted = 0;
  uint64_t pairs_considered = 0;
  int64_t mem_used_bytes = 0;
  int64_t mem_peak_bytes = 0;
  size_t threads = 1;
  bool cancel_requested = false;
};

/// Process-wide table of in-flight queries. Register/Unregister cost one
/// mutex acquisition per query (not per morsel); all per-tuple traffic
/// stays on the lock-free QueryProgress.
class ActiveQueryRegistry {
 public:
  static ActiveQueryRegistry& Global();

  /// Admits a query and returns its id (monotonic, never reused).
  /// `ctx` and `progress` may be null (then KILL is a no-op and no
  /// progress columns populate); both must outlive the registration.
  uint64_t Register(std::string sql, QueryContext* ctx,
                    QueryProgress* progress, size_t threads);

  /// Removes a finished query. Folds its phase timers into the
  /// cumulative fuzzydb_phase_seconds_total{phase=...} counters.
  void Unregister(uint64_t id);

  /// Copies of every registered query, ordered by id.
  std::vector<ActiveQueryInfo> Snapshot() const;

  /// Cancels query `id` through its QueryContext (the same flag SIGINT
  /// and deadlines use, so it lands as CANCELLED within one morsel).
  /// False when the id is unknown (already finished) or unkillable
  /// (registered without a context).
  bool Kill(uint64_t id);

  /// Cancels every registered query through its QueryContext and
  /// returns how many were cancelled. Thread-safe (takes the registry
  /// mutex, so it never races a context's destruction -- Unregister
  /// precedes that on the query thread) but NOT async-signal-safe;
  /// signal handlers use GlobalInterrupt::Raise() instead. The server's
  /// graceful-drain path calls this from its shutdown thread.
  size_t CancelAll();

  size_t Size() const;

  /// Lock-free registered-query count for async-signal-safe callers
  /// (the SIGINT handler asks "is anything in flight" before raising
  /// the global interrupt). May lag Register/Unregister by a moment.
  size_t ApproxSize() const {
    return approx_size_.load(std::memory_order_relaxed);
  }

  /// The sys.queries system relation: (id, phase, elapsed_ms, queue_ms,
  /// items, rows, pairs, mem_bytes, threads, query), degree 1 per row.
  Relation ToRelation() const;

  /// One line per query, for SHOW QUERIES.
  std::string ToText() const;

 private:
  ActiveQueryRegistry() = default;

  struct Entry {
    std::string sql;
    QueryContext* ctx = nullptr;
    QueryProgress* progress = nullptr;
    size_t threads = 1;
    std::chrono::steady_clock::time_point start;
  };

  ActiveQueryInfo InfoFor(uint64_t id, const Entry& entry) const;

  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Entry> entries_;
  std::atomic<size_t> approx_size_{0};
};

/// RAII registration for one query execution: registers in the
/// constructor, finalizes the progress and unregisters in the
/// destructor. The id stays valid (for journaling) after destruction.
class ActiveQueryRegistration {
 public:
  ActiveQueryRegistration(std::string sql, QueryContext* ctx,
                          QueryProgress* progress, size_t threads);
  ~ActiveQueryRegistration();
  ActiveQueryRegistration(const ActiveQueryRegistration&) = delete;
  ActiveQueryRegistration& operator=(const ActiveQueryRegistration&) = delete;

  uint64_t id() const { return id_; }

 private:
  uint64_t id_;
  QueryProgress* progress_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_OBS_QUERY_REGISTRY_H_
