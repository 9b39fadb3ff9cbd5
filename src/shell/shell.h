// An embeddable command interpreter for FuzzyDB.
//
// Executes Fuzzy SQL statements (SELECT / CREATE TABLE / INSERT /
// DEFINE TERM / DROP TABLE) against an in-memory catalog, plus
// dot-commands for introspection and persistence:
//
//   .help                this summary
//   .tables              list relations
//   .schema <table>      show a relation's schema and size
//   .terms               list linguistic terms with their shapes
//   .explain on|off      print classification/plan info with answers
//   .engine naive|unnested   choose the evaluator (default unnested)
//   .slowlog             show the slow-query log (see set_slow_query_ms)
//   .save <dir> / .open <dir>   persist / load the whole database
//   .gen typej|rand ...  generate synthetic relations (src/workload/)
//   .quit
//
// SHOW METRICS renders the process-wide metrics registry, and the
// system relation sys.metrics (refreshed on reference) exposes the same
// values to Fuzzy SQL itself.
//
// The shell is a library class (driven by the fuzzydb_shell tool and by
// the test suite); statements end at ';' and may span lines.
#ifndef FUZZYDB_SHELL_SHELL_H_
#define FUZZYDB_SHELL_SHELL_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "common/status.h"
#include "relational/catalog.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace fuzzydb {

/// Receives the answer relation of each successful SELECT executed by a
/// Shell, before it is rendered as text. The server's session layer
/// installs one to serialize rows and degrees into structured reply
/// frames without re-running or re-parsing anything; the text output is
/// unchanged whether or not a sink is installed.
class ShellResultSink {
 public:
  virtual ~ShellResultSink() = default;
  virtual void OnAnswer(const Relation& answer) = 0;
};

/// Interprets statements against an owned catalog.
class Shell {
 public:
  Shell();

  /// Feeds one input line (without trailing newline). Statements execute
  /// when their terminating ';' arrives; dot-commands execute
  /// immediately. Output and errors go to `out`. Returns false when the
  /// session should end (.quit).
  bool FeedLine(const std::string& line, std::ostream& out);

  /// Runs a complete session: reads `in` line by line until EOF or
  /// .quit. When `interactive`, prints prompts to `out`.
  void Run(std::istream& in, std::ostream& out, bool interactive);

  /// The catalog statements execute against: the shell's own unless a
  /// shared database was attached (AttachSharedDatabase).
  Catalog& catalog() { return db(); }

  /// Attaches write-ahead durability: recovers the database in `dir`
  /// (creating it when empty), replaces this shell's catalog with the
  /// recovered one, and routes every subsequent mutating statement
  /// through the log. Prints a recovery summary line to `out`. While a
  /// WAL is attached, .save/.open/.gen are refused (their mutations
  /// would bypass the log) and CHECKPOINT becomes available.
  Status EnableWal(const std::string& dir, const wal::WalOptions& options,
                   std::ostream& out);

  /// Routes this shell's statements to a catalog + WAL owned by someone
  /// else (the server's shared durable database). Neither pointer is
  /// owned; both must outlive the shell. Pass a null `manager` to share
  /// a catalog without durability.
  void AttachSharedDatabase(Catalog* catalog, wal::WalManager* manager) {
    external_catalog_ = catalog;
    external_wal_ = manager;
  }

  /// The attached WAL (owned or shared); null when none.
  wal::WalManager* wal() {
    return external_wal_ != nullptr ? external_wal_ : owned_wal_.get();
  }

  /// When set, every EXPLAIN ANALYZE additionally writes its trace as
  /// Chrome trace_event JSON (chrome://tracing, Perfetto) to this path,
  /// overwriting the previous dump.
  void set_trace_json_path(std::string path) {
    trace_json_path_ = std::move(path);
  }

  /// Suppresses the interactive banner and prompts so piped sessions
  /// (fuzzydb_shell --quiet -c "SHOW METRICS") emit only results.
  void set_quiet(bool quiet) { quiet_ = quiet; }

  /// Queries at or over this wall-time threshold (milliseconds) are
  /// recorded in the process-wide slow-query log with their EXPLAIN
  /// ANALYZE tree; 0 (the default) disables the log. See .slowlog.
  void set_slow_query_ms(double ms) { slow_query_ms_ = ms; }

  /// Every SELECT / EXPLAIN ANALYZE runs under a deadline this many
  /// milliseconds from its start; 0 (the default) means no deadline.
  void set_timeout_ms(double ms) { timeout_ms_ = ms; }

  /// Per-query memory budget in bytes for budget-tracked operator state
  /// (sort batches, join windows/blocks/partitions); 0 = unlimited.
  void set_memory_budget(uint64_t bytes) { memory_budget_ = bytes; }
  uint64_t memory_budget() const { return memory_budget_; }

  /// Lanes per batch for the batch-at-a-time degree kernels
  /// (ExecOptions::batch_size): operators clamp it to [1, 1024], the
  /// SoA capacity. Answers and counters are identical for every setting.
  void set_batch_size(size_t lanes) { batch_size_ = lanes; }

  /// Cost-based physical planning (ExecOptions::cost_based; tool flag
  /// --no-cbo clears it). Off runs the fixed-rule plans: chains join in
  /// identity order and merge wherever legal. Answers are bit-identical
  /// either way.
  void set_cost_based(bool on) { cost_based_ = on; }

  /// Worker threads for the parallel operators (ExecOptions::
  /// num_threads): 0 (the default) resolves to hardware_concurrency().
  /// Answers are bit-identical at every setting; server sessions SET
  /// this per session so the determinism matrix can pin thread counts.
  void set_num_threads(size_t n) { num_threads_ = n; }

  /// Whether this shell's queries consult the process-wide cross-query
  /// cache (default true; capacity 0 keeps the cache inert regardless).
  /// Off, queries behave exactly as if the cache layer did not exist --
  /// the per-session `SET cache off` A/B switch in server mode.
  void set_cache_enabled(bool on) { cache_enabled_ = on; }

  /// When set, every EXPLAIN ANALYZE also prints its per-operator
  /// summary as a JSON array between "-- trace json begin" and
  /// "-- trace json end" marker lines, for tools (estimate_check.py)
  /// that parse estimates and actuals out of shell sessions.
  void set_explain_json(bool on) { explain_json_ = on; }

  /// True once any statement has failed (parse, bind, or execution
  /// error). The fuzzydb_shell tool maps this to a non-zero exit code
  /// in -c mode.
  bool had_error() const { return had_error_; }

  /// Resets the error latch; server sessions clear it between
  /// statements so each reply frame reports its own statement's outcome.
  void clear_error() {
    had_error_ = false;
    last_status_ = Status::OK();
  }

  /// The most recent statement's outcome: OK, or the Status whose
  /// rendered text went to the output stream. The server's session
  /// layer maps this to the machine-readable status code of each reply
  /// frame (CANCELLED, RESOURCE_EXHAUSTED, ...) without parsing text.
  const Status& last_status() const { return last_status_; }

  /// When set, every successful SELECT also hands its answer relation
  /// to `sink` (see ShellResultSink). Not owned; null disables.
  void set_result_sink(ShellResultSink* sink) { result_sink_ = sink; }

  /// Cancels every query in flight in this process, routed through
  /// ActiveQueryRegistry: the registry's lock-free size gate decides
  /// whether anything is running, and GlobalInterrupt::Raise() lands as
  /// CANCELLED in each registered query's QueryContext. Returns false
  /// when no query is in flight. Async-signal-safe (one atomic load +
  /// one atomic add, no locks, no context pointers): the SIGINT handler
  /// calls this so Ctrl-C cancels in-flight queries instead of killing
  /// the session -- with concurrent sessions, ALL of them, not just the
  /// last one registered (the old single-slot design missed the rest
  /// and could be nulled out by a racing unregister).
  static bool CancelActiveQuery();

  /// Registers a lazily materialized system relation: any statement
  /// whose text references `name` (case-insensitive, e.g.
  /// "sys.sessions") gets `provider()` put into the catalog first, the
  /// same refresh discipline as the built-in sys.metrics/sys.queries.
  /// Process-wide; later registrations for the same name win. The
  /// server uses this to expose sys.sessions without the shell layer
  /// depending on the server layer.
  static void RegisterSystemRelationProvider(
      const std::string& name, std::function<Relation()> provider);

 private:
  void ExecuteDotCommand(const std::string& line, std::ostream& out);
  void ExecuteStatement(const std::string& text, std::ostream& out);

  Catalog& db() {
    return external_catalog_ != nullptr ? *external_catalog_ : catalog_;
  }

  /// The WAL commit protocol for one mutating statement: under the
  /// commit lock, validate against the current catalog, append to the
  /// log, then apply through wal::ApplyWalRecord -- the same function
  /// recovery replays with. Validation runs first so a statement that
  /// would fail (duplicate CREATE, arity mismatch, missing table) is
  /// never logged: the durable log holds exactly the acknowledged
  /// mutations.
  Status CommitMutation(wal::WalRecord* record);

  /// Latches a statement failure (had_error_, last_status_) and prints
  /// the rendered status.
  void FailStatement(const Status& status, std::ostream& out);

  /// Re-materializes the sys.metrics relation from the registry when the
  /// statement text references it, so queries read current values.
  void RefreshSystemRelations(const std::string& statement_text);

  Catalog catalog_;
  Catalog* external_catalog_ = nullptr;      // not owned (server mode)
  wal::WalManager* external_wal_ = nullptr;  // not owned (server mode)
  std::unique_ptr<wal::WalManager> owned_wal_;
  std::string pending_;   // partial statement across lines
  std::string trace_json_path_;
  bool explain_ = false;
  bool use_naive_ = false;
  bool done_ = false;
  bool quiet_ = false;
  bool had_error_ = false;
  Status last_status_;
  double slow_query_ms_ = 0.0;
  double timeout_ms_ = 0.0;
  uint64_t memory_budget_ = 0;
  size_t batch_size_ = 1024;
  size_t num_threads_ = 0;
  bool cost_based_ = true;
  bool cache_enabled_ = true;
  bool explain_json_ = false;
  ShellResultSink* result_sink_ = nullptr;  // not owned
};

}  // namespace fuzzydb

#endif  // FUZZYDB_SHELL_SHELL_H_
