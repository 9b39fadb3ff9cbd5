#include "shell/shell.h"

#include <fstream>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>

#include "cache/cache_manager.h"
#include "common/query_context.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "engine/classifier.h"
#include "engine/explain.h"
#include "engine/naive_evaluator.h"
#include "engine/unnested_evaluator.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/trace.h"
#include "sql/binder.h"
#include "sql/statement.h"
#include "storage/database.h"
#include "workload/generator.h"

namespace fuzzydb {

namespace {

/// Splits a command line into whitespace-separated words.
std::vector<std::string> Words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream stream(line);
  std::string word;
  while (stream >> word) words.push_back(word);
  return words;
}

// Extra sys.* relations contributed by higher layers (the server's
// sys.sessions). Guarded by a mutex for registration; reads copy the
// provider under the lock, then materialize outside it.
struct SystemRelationProviders {
  std::mutex mu;
  std::map<std::string, std::function<Relation()>> providers;
};

SystemRelationProviders& Providers() {
  static SystemRelationProviders* providers = new SystemRelationProviders();
  return *providers;
}

}  // namespace

bool Shell::CancelActiveQuery() {
  // Registered queries only: the lock-free gate keeps this
  // async-signal-safe, and every shell/server statement registers. The
  // interrupt epoch reaches each in-flight QueryContext without touching
  // any context pointer, so a racing unregister cannot null out or free
  // anything under us.
  if (ActiveQueryRegistry::Global().ApproxSize() == 0) return false;
  GlobalInterrupt::Raise();
  return true;
}

void Shell::RegisterSystemRelationProvider(
    const std::string& name, std::function<Relation()> provider) {
  SystemRelationProviders& reg = Providers();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.providers[ToLower(name)] = std::move(provider);
}

Shell::Shell() {
  // Materialize the engine metric families up front so SHOW METRICS and
  // sys.metrics list every series (at zero) even before the first query.
  EngineMetrics::Instance();
}

void Shell::Run(std::istream& in, std::ostream& out, bool interactive) {
  std::string line;
  if (interactive && !quiet_) {
    out << "FuzzyDB shell -- .help for help, .quit to exit\n";
  }
  while (!done_) {
    if (interactive && !quiet_) {
      out << (pending_.empty() ? "fuzzydb> " : "    ...> ");
    }
    if (!std::getline(in, line)) break;
    if (!FeedLine(line, out)) break;
  }
}

bool Shell::FeedLine(const std::string& line, std::ostream& out) {
  if (pending_.empty()) {
    // Skip blank lines and comments between statements.
    size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) return !done_;
    if (line[first] == '#' || line.compare(first, 2, "--") == 0) {
      return !done_;
    }
    if (line[first] == '.') {
      ExecuteDotCommand(line.substr(first), out);
      return !done_;
    }
  }
  // Accumulate until ';'.
  pending_ += line;
  pending_ += ' ';
  size_t semicolon;
  while ((semicolon = pending_.find(';')) != std::string::npos) {
    const std::string statement = pending_.substr(0, semicolon);
    pending_.erase(0, semicolon + 1);
    if (statement.find_first_not_of(" \t") != std::string::npos) {
      ExecuteStatement(statement, out);
    }
  }
  // An all-whitespace remainder is no pending statement.
  if (pending_.find_first_not_of(" \t") == std::string::npos) {
    pending_.clear();
  }
  return !done_;
}

void Shell::ExecuteDotCommand(const std::string& line, std::ostream& out) {
  const std::vector<std::string> words = Words(line);
  const std::string& command = words[0];

  if (command == ".quit" || command == ".exit") {
    done_ = true;
    return;
  }
  if (command == ".help") {
    out << "statements (end with ';'):\n"
           "  SELECT ... FROM ... [WHERE ...] [GROUPBY ... [HAVING ...]]\n"
           "         [ORDER BY col|D [DESC]] [WITH D >= z];\n"
           "  EXPLAIN [ANALYZE] SELECT ...;  (plan; ANALYZE also runs it)\n"
           "  CREATE TABLE name (col STRING|FUZZY, ...);\n"
           "  INSERT INTO name VALUES (v, ...) [DEGREE d];\n"
           "  DEFINE TERM \"name\" AS TRAP(a,b,c,d);\n"
           "  DROP TABLE name;\n"
           "  SHOW METRICS [RESET];  (also queryable as sys.metrics)\n"
           "  SHOW QUERIES;  (in-flight queries; also sys.queries)\n"
           "  KILL <id>;  (cancel a running query by sys.queries id)\n"
           "  CACHE CLEAR;  (drop cache entries; contents: sys.cache)\n"
           "  CHECKPOINT;  (WAL shells: durable image; segments: sys.wal)\n"
           "commands:\n"
           "  .tables .schema <t> .terms .explain on|off\n"
           "  .engine naive|unnested .slowlog .save <dir> .open <dir>\n"
           "  .gen typej <seed> <nr> <ns> <fanout>  (relations R and S)\n"
           "  .gen rand <name> <seed> <cols> <rows>\n"
           "  .quit\n";
    return;
  }
  if (command == ".slowlog") {
    const auto entries = SlowQueryLog::Global().Entries();
    if (entries.empty()) {
      out << "slow-query log is empty\n";
      return;
    }
    for (const auto& entry : entries) {
      out << "-- " << FormatDouble(entry.elapsed_ms, 3) << " ms: "
          << (entry.query_text.empty() ? "<no query text>"
                                       : entry.query_text)
          << "\n";
      if (!entry.trace_text.empty()) out << entry.trace_text;
    }
    return;
  }
  if (command == ".tables") {
    for (const std::string& name : db().RelationNames()) {
      auto relation = db().GetRelation(name);
      out << name << " (" << (*relation)->NumTuples() << " tuples)\n";
    }
    return;
  }
  if (command == ".schema") {
    if (words.size() != 2) {
      out << "usage: .schema <table>\n";
      return;
    }
    auto relation = db().GetRelation(words[1]);
    if (!relation.ok()) {
      out << relation.status().ToString() << "\n";
      return;
    }
    out << (*relation)->name() << " " << (*relation)->schema().ToString()
        << " [" << (*relation)->NumTuples() << " tuples]\n";
    return;
  }
  if (command == ".terms") {
    for (const std::string& name : db().terms().Names()) {
      auto term = db().terms().Lookup(name);
      out << "\"" << name << "\" = " << term->ToString() << "\n";
    }
    return;
  }
  if (command == ".explain") {
    explain_ = words.size() > 1 && EqualsIgnoreCase(words[1], "on");
    out << "explain " << (explain_ ? "on" : "off") << "\n";
    return;
  }
  if (command == ".engine") {
    if (words.size() != 2 || (!EqualsIgnoreCase(words[1], "naive") &&
                              !EqualsIgnoreCase(words[1], "unnested"))) {
      out << "usage: .engine naive|unnested\n";
      return;
    }
    use_naive_ = EqualsIgnoreCase(words[1], "naive");
    out << "engine: " << (use_naive_ ? "naive" : "unnested") << "\n";
    return;
  }
  if (command == ".gen" || command == ".save" || command == ".open") {
    if (wal() != nullptr) {
      // These mutate or replace the catalog without writing the log;
      // allowing them would desynchronize the durable history from the
      // in-memory state.
      out << command
          << " is unavailable while a WAL is attached; use CHECKPOINT "
             "for durable images\n";
      had_error_ = true;
      last_status_ = Status::Unsupported(
          command + " is unavailable while a WAL is attached");
      return;
    }
  }
  if (command == ".gen") {
    // Deterministic synthetic datasets (src/workload/generator.h) so
    // scripted sessions -- the estimator-accuracy gate in particular --
    // can build workloads without shipping data files.
    auto parse_u64 = [](const std::string& word, uint64_t* value) {
      std::istringstream stream(word);
      return static_cast<bool>(stream >> *value) && stream.eof();
    };
    if (words.size() == 6 && EqualsIgnoreCase(words[1], "typej")) {
      uint64_t seed = 0, nr = 0, ns = 0, fanout = 0;
      if (!parse_u64(words[2], &seed) || !parse_u64(words[3], &nr) ||
          !parse_u64(words[4], &ns) || !parse_u64(words[5], &fanout) ||
          fanout == 0) {
        out << "usage: .gen typej <seed> <nr> <ns> <fanout>\n";
        return;
      }
      WorkloadConfig config;
      config.seed = seed;
      config.num_r = nr;
      config.num_s = ns;
      config.join_fanout = static_cast<double>(fanout);
      TypeJDataset dataset = GenerateTypeJDataset(config);
      for (const char* name : {"R", "S"}) {
        if (db().HasRelation(name)) {
          if (auto old = db().GetRelation(name); old.ok()) {
            CacheManager::Global().InvalidateRelation((*old)->id());
          }
          db().DropRelation(name);
        }
      }
      const Status status_r = db().AddRelation(std::move(dataset.r));
      const Status status_s = db().AddRelation(std::move(dataset.s));
      if (!status_r.ok() || !status_s.ok()) {
        out << (status_r.ok() ? status_s : status_r).ToString() << "\n";
        return;
      }
      out << "generated R (" << nr << " tuples), S (" << ns
          << " tuples), fanout " << fanout << "\n";
      return;
    }
    if (words.size() == 6 && EqualsIgnoreCase(words[1], "rand")) {
      const std::string& name = words[2];
      uint64_t seed = 0, cols = 0, rows = 0;
      if (!parse_u64(words[3], &seed) || !parse_u64(words[4], &cols) ||
          !parse_u64(words[5], &rows) || cols == 0) {
        out << "usage: .gen rand <name> <seed> <cols> <rows>\n";
        return;
      }
      if (db().HasRelation(name)) {
        if (auto old = db().GetRelation(name); old.ok()) {
          CacheManager::Global().InvalidateRelation((*old)->id());
        }
        db().DropRelation(name);
      }
      const Status status = db().AddRelation(
          GenerateRandomRelation(seed, name, cols, rows));
      if (!status.ok()) {
        out << status.ToString() << "\n";
        return;
      }
      out << "generated " << name << " (" << rows << " tuples, " << cols
          << " columns)\n";
      return;
    }
    out << "usage: .gen typej <seed> <nr> <ns> <fanout>\n"
           "       .gen rand <name> <seed> <cols> <rows>\n";
    return;
  }
  if (command == ".save" || command == ".open") {
    if (words.size() != 2) {
      out << "usage: " << command << " <directory>\n";
      return;
    }
    BufferPool pool(64);
    if (command == ".save") {
      const Status status = SaveDatabase(db(), words[1], &pool);
      out << (status.ok() ? "saved " + words[1] : status.ToString()) << "\n";
    } else {
      auto loaded = LoadDatabase(words[1], &pool);
      if (!loaded.ok()) {
        out << loaded.status().ToString() << "\n";
      } else {
        db() = std::move(loaded).value();
        out << "opened " << words[1] << "\n";
      }
    }
    return;
  }
  out << "unknown command '" << command << "' (.help for help)\n";
}

void Shell::RefreshSystemRelations(const std::string& statement_text) {
  // Case-insensitive scan for "sys.metrics"; materializing the registry
  // only on reference keeps .tables / .save free of system relations
  // unless the session actually queried them.
  const std::string lowered = ToLower(statement_text);
  if (lowered.find("sys.metrics") != std::string::npos) {
    db().PutRelation(MetricsRegistry::Global().ToRelation());
  }
  if (lowered.find("sys.cache") != std::string::npos) {
    db().PutRelation(CacheManager::Global().ToRelation());
  }
  if (lowered.find("sys.queries") != std::string::npos) {
    db().PutRelation(ActiveQueryRegistry::Global().ToRelation());
  }
  if (lowered.find("sys.slowlog") != std::string::npos) {
    db().PutRelation(SlowQueryLog::Global().ToRelation());
  }
  if (lowered.find("sys.wal") != std::string::npos && wal() != nullptr) {
    db().PutRelation(wal()->ToRelation());
  }
  SystemRelationProviders& reg = Providers();
  std::vector<std::function<Relation()>> to_refresh;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& [name, provider] : reg.providers) {
      if (lowered.find(name) != std::string::npos) {
        to_refresh.push_back(provider);
      }
    }
  }
  // Materialize outside the lock: a provider may itself take locks
  // (e.g. the server's session registry).
  for (const auto& provider : to_refresh) {
    db().PutRelation(provider());
  }
}

void Shell::FailStatement(const Status& status, std::ostream& out) {
  had_error_ = true;
  last_status_ = status;
  out << status.ToString() << "\n";
}

Shell::QueryRun Shell::RunQuery(const sql::BoundQuery& query,
                                const std::string& text, ExecTrace* trace,
                                CpuStats* cpu) {
  QueryContext qctx;
  if (timeout_ms_ > 0) qctx.set_deadline_after_ms(timeout_ms_);
  if (memory_budget_ > 0) qctx.memory().set_limit(memory_budget_);
  QueryProgress progress;
  QueryRun run;
  if (use_naive_) {
    ActiveQueryRegistration registration(text, &qctx, &progress, 1);
    NaiveEvaluator naive(cpu, trace, &qctx, &progress);
    run.answer = naive.Evaluate(query);
  } else {
    ExecOptions options;
    options.trace = trace;
    options.num_threads = num_threads_;
    options.batch_size = batch_size_;
    options.slow_query_ms = slow_query_ms_;
    options.query_text = text;
    options.context = &qctx;
    options.cache = cache_enabled_ ? &CacheManager::Global() : nullptr;
    options.cost_based = cost_based_;
    options.progress = &progress;
    ActiveQueryRegistration registration(text, &qctx, &progress,
                                         options.ResolvedThreads());
    UnnestingEvaluator engine(options, cpu);
    run.answer = engine.Evaluate(query);
    run.unnested = engine.last_was_unnested();
  }
  if (trace != nullptr) run.phases = progress.PhasesText();
  return run;
}

void Shell::ExecuteStatement(const std::string& text, std::ostream& out) {
  last_status_ = Status::OK();
  auto parsed = sql::ParseStatement(text);
  if (!parsed.ok()) {
    FailStatement(parsed.status(), out);
    return;
  }
  sql::Statement& statement = *parsed;
  RefreshSystemRelations(text);

  switch (statement.kind) {
    case sql::Statement::Kind::kShowMetrics: {
      if (statement.metrics_reset) {
        // Snapshot-then-reset as one atomic drain: concurrent updates
        // land either in the rendered text or in the fresh epoch, so
        // consecutive RESET dumps sum exactly (no histogram-shard skew).
        out << MetricsRegistry::Global().ToTextAndReset();
        SlowQueryLog::Global().Clear();
        // build_info is a constant-1 series; restore it after the drain.
        EngineMetrics::Instance()->build_info->Set(1);
        out << "-- metrics reset\n";
      } else {
        out << MetricsRegistry::Global().ToText();
      }
      return;
    }
    case sql::Statement::Kind::kShowQueries: {
      const std::string text_dump = ActiveQueryRegistry::Global().ToText();
      out << text_dump;
      out << "-- " << ActiveQueryRegistry::Global().Size()
          << " active queries\n";
      return;
    }
    case sql::Statement::Kind::kKill: {
      if (ActiveQueryRegistry::Global().Kill(statement.kill_id)) {
        out << "-- kill requested for query " << statement.kill_id << "\n";
      } else {
        had_error_ = true;
        last_status_ = Status::NotFound(
            "no active query with id " + std::to_string(statement.kill_id));
        out << "no active query with id " << statement.kill_id << "\n";
      }
      return;
    }
    case sql::Statement::Kind::kCacheClear: {
      CacheManager::Global().Clear();
      out << "-- cache cleared\n";
      return;
    }
    case sql::Statement::Kind::kExplain: {
      // Bind against a snapshot and keep it alive for the whole
      // execution: the snapshot pins the relation versions it resolved,
      // so a concurrent writer (server mode) can never mutate or drop
      // them under the running query (MVCC reader-pinning rule,
      // docs/durability.md).
      const Catalog snapshot = db().Snapshot();
      auto bound = sql::Bind(*statement.select, snapshot);
      if (!bound.ok()) {
        FailStatement(bound.status(), out);
        return;
      }
      out << "-- type " << QueryTypeName(Classify(**bound)) << "\n"
          << DescribePlan(**bound);
      if (!statement.analyze) return;
      ExecTrace trace;
      CpuStats cpu;
      const QueryRun run = RunQuery(**bound, text, &trace, &cpu);
      if (!run.answer.ok()) {
        FailStatement(run.answer.status(), out);
        return;
      }
      const Relation& answer = *run.answer;
      out << "execution trace:\n"
          << trace.ToString()
          << "-- " << answer.NumTuples() << " answer tuple"
          << (answer.NumTuples() == 1 ? "" : "s") << "\n";
      if (!run.phases.empty()) out << "-- phases=" << run.phases << "\n";
      if (explain_json_) {
        out << "-- trace json begin\n"
            << trace.ToJsonSummary() << "\n"
            << "-- trace json end\n";
      }
      if (!trace_json_path_.empty()) {
        std::ofstream file(trace_json_path_);
        if (file) {
          file << trace.ToChromeTraceJson();
          out << "-- wrote " << trace_json_path_ << "\n";
        } else {
          out << "-- cannot write " << trace_json_path_ << "\n";
        }
      }
      return;
    }
    case sql::Statement::Kind::kSelect: {
      // Snapshot-bound like kExplain: the read pins its versions and
      // never blocks writers.
      const Catalog snapshot = db().Snapshot();
      auto bound = sql::Bind(*statement.select, snapshot);
      if (!bound.ok()) {
        FailStatement(bound.status(), out);
        return;
      }
      Stopwatch watch;
      const QueryType type = Classify(**bound);
      const QueryRun run = RunQuery(**bound, text, nullptr, nullptr);
      if (!run.answer.ok()) {
        FailStatement(run.answer.status(), out);
        return;
      }
      if (explain_) {
        out << "-- type " << QueryTypeName(type) << ", "
            << (use_naive_
                    ? "naive nested-loop"
                    : (run.unnested ? "unnested plan" : "naive fallback"))
            << ", " << FormatDouble(watch.ElapsedSeconds() * 1000, 4)
            << " ms\n"
            << DescribePlan(**bound);
      }
      if (result_sink_ != nullptr) result_sink_->OnAnswer(*run.answer);
      out << run.answer->ToString(100);
      return;
    }
    case sql::Statement::Kind::kCreateTable: {
      wal::WalRecord record;
      record.type = wal::WalRecordType::kCreateTable;
      record.table = statement.create_table.name;
      record.schema = statement.create_table.schema;
      const Status status = CommitMutation(&record);
      if (!status.ok()) {
        had_error_ = true;
        last_status_ = status;
      }
      out << (status.ok() ? "created " + statement.create_table.name
                          : status.ToString())
          << "\n";
      return;
    }
    case sql::Statement::Kind::kInsert: {
      // Resolve linguistic terms against a snapshot before anything is
      // logged: the WAL record carries the resolved trapezoid, so replay
      // is exact even if the term is redefined later.
      const Catalog snapshot = db().Snapshot();
      if (!snapshot.HasRelation(statement.insert.table)) {
        FailStatement(Status::NotFound("no relation named '" +
                                       statement.insert.table + "'"),
                      out);
        return;
      }
      std::vector<Value> values;
      for (const sql::Literal& literal : statement.insert.values) {
        if (!literal.term.empty()) {
          auto term = snapshot.terms().Lookup(literal.term);
          if (!term.ok()) {
            FailStatement(term.status(), out);
            return;
          }
          values.push_back(Value::Fuzzy(*term));
        } else {
          values.push_back(literal.value);
        }
      }
      wal::WalRecord record;
      record.type = wal::WalRecordType::kInsert;
      record.table = statement.insert.table;
      record.tuple = Tuple(std::move(values), statement.insert.degree);
      const Status status = CommitMutation(&record);
      if (!status.ok()) {
        had_error_ = true;
        last_status_ = status;
      }
      // Version bumping already makes stale cache keys unreachable; the
      // explicit invalidation reclaims their memory immediately. The id
      // survives copy-on-write (the MVCC chain keeps it), so this
      // reaches cache entries for every version of the relation.
      if (auto rel = db().GetRelationRef(statement.insert.table);
          status.ok() && rel.ok()) {
        CacheManager::Global().InvalidateRelation((*rel)->id());
      }
      out << (status.ok() ? "inserted 1 tuple" : status.ToString()) << "\n";
      return;
    }
    case sql::Statement::Kind::kDefineTerm: {
      wal::WalRecord record;
      record.type = wal::WalRecordType::kDefineTerm;
      record.term = statement.define_term.name;
      record.shape = statement.define_term.value;
      const Status status = CommitMutation(&record);
      if (!status.ok()) {
        FailStatement(status, out);
        return;
      }
      out << "defined \"" << statement.define_term.name << "\"\n";
      return;
    }
    case sql::Statement::Kind::kDropTable: {
      if (!db().HasRelation(statement.drop_table.name)) {
        had_error_ = true;
        last_status_ = Status::NotFound(
            "no relation named '" + statement.drop_table.name + "'");
        out << "no relation named '" << statement.drop_table.name << "'\n";
        return;
      }
      if (auto dropped = db().GetRelationRef(statement.drop_table.name);
          dropped.ok()) {
        CacheManager::Global().InvalidateRelation((*dropped)->id());
      }
      wal::WalRecord record;
      record.type = wal::WalRecordType::kDropTable;
      record.table = statement.drop_table.name;
      const Status status = CommitMutation(&record);
      if (!status.ok()) {
        FailStatement(status, out);
        return;
      }
      out << "dropped " << statement.drop_table.name << "\n";
      return;
    }
    case sql::Statement::Kind::kCheckpoint: {
      wal::WalManager* manager = wal();
      if (manager == nullptr) {
        FailStatement(
            Status::Unsupported(
                "CHECKPOINT requires write-ahead durability (--wal-dir)"),
            out);
        return;
      }
      // Quiesce writers for the sync-then-image window so the saved
      // catalog matches the covered LSN exactly.
      auto commit_lock = manager->AcquireCommitLock();
      Catalog snapshot = db().Snapshot();
      // sys.* relations are session-materialized views, not durable
      // state: keep them out of the checkpoint image.
      for (const std::string& name : snapshot.RelationNames()) {
        if (ToLower(name).compare(0, 4, "sys.") == 0) {
          snapshot.DropRelation(name);
        }
      }
      BufferPool pool(64);
      uint64_t checkpoint_lsn = 0;
      const Status status =
          manager->Checkpoint(snapshot, &pool, &checkpoint_lsn);
      if (!status.ok()) {
        FailStatement(status, out);
        return;
      }
      out << "-- checkpoint at lsn " << checkpoint_lsn << "\n";
      return;
    }
  }
}

Status Shell::EnableWal(const std::string& dir,
                        const wal::WalOptions& options, std::ostream& out) {
  BufferPool pool(64);
  auto recovered = wal::OpenWalDatabase(dir, options, &pool);
  FUZZYDB_RETURN_IF_ERROR(recovered.status());
  catalog_ = std::move(recovered->catalog);
  owned_wal_ = std::move(recovered->manager);
  external_catalog_ = nullptr;
  external_wal_ = nullptr;
  if (!quiet_) {
    out << "-- wal " << dir << ": recovered "
        << recovered->records_replayed << " record"
        << (recovered->records_replayed == 1 ? "" : "s")
        << " past checkpoint lsn " << recovered->checkpoint_lsn;
    if (recovered->torn_tail_bytes > 0) {
      out << ", truncated " << recovered->torn_tail_bytes
          << "-byte torn tail";
    }
    if (recovered->orphans_swept > 0) {
      out << ", swept " << recovered->orphans_swept << " orphan"
          << (recovered->orphans_swept == 1 ? "" : "s");
    }
    out << "\n";
  }
  return Status::OK();
}

Status Shell::CommitMutation(wal::WalRecord* record) {
  wal::WalManager* manager = wal();
  std::unique_lock<std::mutex> commit_lock;
  if (manager != nullptr) commit_lock = manager->AcquireCommitLock();
  // Validate first: a statement that cannot apply must never be logged,
  // or replay would diverge from the acknowledged history.
  switch (record->type) {
    case wal::WalRecordType::kCreateTable:
      if (db().HasRelation(record->table)) {
        return Status::AlreadyExists("relation '" + record->table +
                                     "' already exists");
      }
      break;
    case wal::WalRecordType::kInsert: {
      auto relation = db().GetRelationRef(record->table);
      FUZZYDB_RETURN_IF_ERROR(relation.status());
      const size_t arity = (*relation)->schema().NumColumns();
      if (arity != 0 && record->tuple.NumValues() != arity) {
        return Status::InvalidArgument(
            "tuple arity " + std::to_string(record->tuple.NumValues()) +
            " does not match schema arity " + std::to_string(arity) +
            " of relation '" + (*relation)->name() + "'");
      }
      break;
    }
    case wal::WalRecordType::kDropTable:
      if (!db().HasRelation(record->table)) {
        return Status::NotFound("no relation named '" + record->table +
                                "'");
      }
      break;
    case wal::WalRecordType::kDefineTerm:
    case wal::WalRecordType::kCheckpoint:
      break;
  }
  if (manager != nullptr) FUZZYDB_RETURN_IF_ERROR(manager->Append(record));
  return wal::ApplyWalRecord(*record, &db());
}

}  // namespace fuzzydb
