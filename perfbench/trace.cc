#include "trace.h"

#include <cstdio>
#include <optional>

#include "cache/cache_manager.h"
#include "common/query_context.h"
#include "common/string_util.h"
#include "engine/classifier.h"
#include "engine/unnested_evaluator.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "server/server_metrics.h"
#include "sql/binder.h"
#include "sql/statement.h"
#include "storage/buffer_pool.h"
#include "wal/recovery.h"
#include "wal/wal_metrics.h"

namespace fuzzydb {
namespace perfbench {

namespace {

using Scope = Tracer::Scope;

std::string StripSemicolon(const std::string& sql) {
  const size_t end = sql.find_last_not_of(" \t;");
  return end == std::string::npos ? std::string() : sql.substr(0, end + 1);
}

const Relation* CurrentVersion(const Catalog& catalog,
                               const std::string& table) {
  auto ref = catalog.GetRelationRef(table);
  return ref.ok() ? ref->get() : nullptr;
}

Execution Failed() { return Execution{}; }

// SELECT: Shell::ExecuteStatement's kSelect arm, call by call.
// The answer (or, served, the decoded reply frame) is handed out so the
// caller digests it after the statement's span has closed.
Execution ReplaySelect(const Stmt& stmt, const std::string& text,
                       const sql::Statement& statement, ReplayTarget* target,
                       bool served, Tracer* tracer, ReplayStats* stats,
                       std::optional<Relation>* answer_out,
                       server::ReplyFrame* frame_out) {
  std::optional<Catalog> snapshot;
  {
    Scope span(tracer, "relational.snapshot");
    snapshot.emplace(target->catalog->Snapshot());
  }
  Result<std::unique_ptr<sql::BoundQuery>> bound =
      Status::Internal("unset");
  {
    Scope span(tracer, "sql.bind");
    bound = sql::Bind(*statement.select, *snapshot);
  }
  if (!bound.ok()) return Failed();
  QueryContext qctx;
  QueryProgress progress;
  {
    Scope span(tracer, "engine.classify");
    (void)Classify(**bound);
  }
  ExecOptions options = target->options;
  options.query_text = text;
  options.context = &qctx;
  options.progress = &progress;
  CpuStats cpu;
  Result<Relation> answer = Status::Internal("unset");
  bool unnested = false;
  {
    ActiveQueryRegistration registration(text, &qctx, &progress,
                                         options.ResolvedThreads());
    UnnestingEvaluator engine(options, &cpu);
    const double cpu0 = ProcessCpuMs();
    Scope span(tracer, "engine.evaluate");
    answer = engine.Evaluate(**bound);
    unnested = engine.last_was_unnested();
    if (stats != nullptr) {
      const double us = span.ElapsedUs();
      stats->evaluate_wall_ms += us / 1e3;
      stats->evaluate_cpu_ms += ProcessCpuMs() - cpu0;
      ReplayStats::Shape& shape = stats->shapes[stmt.shape];
      ++shape.calls;
      shape.evaluate_us += us;
      shape.tuple_pairs += cpu.tuple_pairs;
      shape.degree_evals += cpu.degree_evaluations;
    }
  }
  if (!answer.ok()) return Failed();
  if (stats != nullptr) {
    ++stats->selects;
    if (!unnested) ++stats->fallbacks;
    stats->answer_rows += answer->NumTuples();
    stats->tuple_pairs += cpu.tuple_pairs;
    for (size_t p = 0; p < kNumQueryPhases; ++p) {
      stats->phase_us[p] += static_cast<double>(
          progress.PhaseMicros(static_cast<QueryPhase>(p)));
    }
  }
  std::string rendered;
  {
    Scope span(tracer, "shell.render");
    rendered = answer->ToString(100);
  }
  Execution done;
  done.ok = true;
  if (!served) {
    answer_out->emplace(std::move(answer).value());
    return done;
  }
  // Session::OnAnswer, then the wire codec both ways.
  server::ReplyFrame frame;
  {
    Scope span(tracer, "server.frame");
    frame.text = rendered;
    frame.has_answer = true;
    for (const Column& column : answer->schema().columns()) {
      frame.columns.push_back(column.name);
    }
    frame.rows.reserve(answer->NumTuples());
    frame.degrees.reserve(answer->NumTuples());
    for (const Tuple& tuple : answer->tuples()) {
      std::vector<std::string> row;
      row.reserve(tuple.values().size());
      for (const Value& value : tuple.values()) {
        row.push_back(value.ToString());
      }
      frame.rows.push_back(std::move(row));
      frame.degrees.push_back(tuple.degree());
    }
  }
  std::string line;
  {
    Scope span(tracer, "server.encode");
    line = server::RenderReplyFrame(frame);
  }
  {
    Scope span(tracer, "server.decode");
    if (!server::ParseReplyFrame(line, frame_out)) return Failed();
  }
  done.frame_bytes = line.size() + 1;
  return done;
}

// INSERT: the kInsert arm, including its snapshot held across the
// write, with and without an attached WAL.
Execution ReplayInsert(const Stmt& stmt, const sql::Statement& statement,
                       ReplayTarget* target, Tracer* tracer,
                       ReplayStats* stats) {
  Catalog& db = *target->catalog;
  const std::string& table = statement.insert.table;
  std::optional<Catalog> snapshot;
  {
    Scope span(tracer, "relational.snapshot");
    snapshot.emplace(db.Snapshot());
  }
  if (!snapshot->HasRelation(table)) return Failed();
  std::vector<Value> values;
  for (const sql::Literal& literal : statement.insert.values) {
    if (!literal.term.empty()) {
      auto term = snapshot->terms().Lookup(literal.term);
      if (!term.ok()) return Failed();
      values.push_back(Value::Fuzzy(*term));
    } else {
      values.push_back(literal.value);
    }
  }
  Tuple tuple(std::move(values), statement.insert.degree);
  const Relation* before = CurrentVersion(db, table);
  Status status;
  uint64_t relation_id = 0;
  if (target->wal != nullptr) {
    wal::WalRecord record;
    record.type = wal::WalRecordType::kInsert;
    record.table = table;
    record.tuple = std::move(tuple);
    std::unique_lock<std::mutex> commit_lock;
    {
      Scope span(tracer, "wal.commit_wait");
      commit_lock = target->wal->AcquireCommitLock();
    }
    auto relation = db.GetRelationRef(table);
    if (!relation.ok()) return Failed();
    const size_t arity = (*relation)->schema().NumColumns();
    relation = Status::NotFound("released");  // drop the pin
    if (arity != 0 && record.tuple.NumValues() != arity) return Failed();
    {
      Scope span(tracer, "wal.append");
      status = target->wal->Append(&record);
    }
    if (status.ok()) {
      Scope span(tracer, "relational.apply");
      status = wal::ApplyWalRecord(record, &db);
    }
    commit_lock.unlock();
    if (status.ok()) {
      if (auto rel = db.GetRelationRef(table); rel.ok()) {
        relation_id = (*rel)->id();
      }
    }
  } else {
    Scope span(tracer, "relational.apply");
    auto relation = db.GetMutableRelation(table);
    if (!relation.ok()) return Failed();
    status = (*relation)->Append(std::move(tuple));
    relation_id = (*relation)->id();
  }
  if (!status.ok()) return Failed();
  if (relation_id != 0) {
    Scope span(tracer, "cache.invalidate");
    CacheManager::Global().InvalidateRelation(relation_id);
  }
  {
    // The statement's snapshot goes last; when it pinned the previous
    // version, dropping it frees that whole copy.
    Scope span(tracer, "relational.release");
    snapshot.reset();
  }
  const bool cow = CurrentVersion(db, table) != before;
  if (stats != nullptr) {
    ++stats->inserts;
    stats->insert_bytes += stmt.sql.size();
    if (cow) ++stats->cow;
  }
  Execution done;
  done.ok = true;
  done.cow = cow ? 1 : 0;
  return done;
}

// CHECKPOINT: quiesce writers, snapshot, save the image.
Execution ReplayCheckpoint(ReplayTarget* target, Tracer* tracer,
                           ReplayStats* stats, std::string* text) {
  if (target->wal == nullptr) return Failed();
  std::unique_lock<std::mutex> commit_lock;
  {
    Scope span(tracer, "wal.commit_wait");
    commit_lock = target->wal->AcquireCommitLock();
  }
  std::optional<Catalog> snapshot;
  {
    Scope span(tracer, "relational.snapshot");
    snapshot.emplace(target->catalog->Snapshot());
  }
  for (const std::string& name : snapshot->RelationNames()) {
    if (ToLower(name).compare(0, 4, "sys.") == 0) snapshot->DropRelation(name);
  }
  BufferPool pool(64);
  uint64_t lsn = 0;
  Status status;
  {
    Scope span(tracer, "wal.checkpoint");
    status = target->wal->Checkpoint(*snapshot, &pool, &lsn);
  }
  if (!status.ok()) return Failed();
  if (stats != nullptr) {
    stats->checkpoint_bytes +=
        TreeBytes(target->wal->dir() + "/ckpt_" + std::to_string(lsn)) +
        TreeBytes(target->wal->dir() + "/checkpoint.meta");
  }
  *text = "-- checkpoint at lsn " + std::to_string(lsn) + "\n";
  Execution done;
  done.ok = true;
  return done;
}

/// Digest of a non-SELECT statement's reply, matching what pass A
/// computes from the shell's text or the reply frame.
uint64_t TextDigest(const std::string& text, bool served) {
  if (!served) return Fnv("OK|" + text);
  server::ReplyFrame frame;
  frame.text = text;
  return FrameDigest(frame);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The process-wide counters pass B reports. Pass C runs interleaved with
/// pass B, so they are read around each pass B call and the deltas summed.
struct Counters {
  double hits = 0, misses = 0, evictions = 0, invalidated = 0;
  double cache_bytes = 0;
  double fill_sum = 0, fill_count = 0, wait_sum = 0, wait_count = 0;
  double fsyncs = 0, append_bytes = 0;

  static Counters Now() {
    const CacheStats cache = CacheManager::Global().stats();
    const HistogramSnapshot fill =
        EngineMetrics::Instance()->batch_fill->Snapshot();
    const HistogramSnapshot wait =
        EngineMetrics::Instance()->morsel_queue_wait_us->Snapshot();
    const wal::WalMetrics* wal = wal::WalMetrics::Instance();
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    Counters c;
    c.hits = d(cache.hits);
    c.misses = d(cache.misses);
    c.evictions = d(cache.evictions);
    c.invalidated = d(cache.invalidated);
    c.cache_bytes = d(CacheManager::Global().used_bytes());
    c.fill_sum = d(fill.sum);
    c.fill_count = d(fill.total_count);
    c.wait_sum = d(wait.sum);
    c.wait_count = d(wait.total_count);
    c.fsyncs = d(wal->fsyncs_total->Value());
    c.append_bytes = d(wal->append_bytes_total->Value());
    return c;
  }

  void AddDelta(const Counters& before, const Counters& after) {
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
    evictions += after.evictions - before.evictions;
    invalidated += after.invalidated - before.invalidated;
    cache_bytes += after.cache_bytes - before.cache_bytes;
    fill_sum += after.fill_sum - before.fill_sum;
    fill_count += after.fill_count - before.fill_count;
    wait_sum += after.wait_sum - before.wait_sum;
    wait_count += after.wait_count - before.wait_count;
    fsyncs += after.fsyncs - before.fsyncs;
    append_bytes += after.append_bytes - before.append_bytes;
  }
};

// Every non-SELECT statement the workloads issue.
Execution ReplayWrite(const Stmt& stmt, ReplayTarget* target, bool served,
                      Tracer* tracer, ReplayStats* stats) {
  Scope root(tracer, "statement");
  const std::string text = StripSemicolon(stmt.sql);
  Result<sql::Statement> parsed = Status::Internal("unset");
  {
    Scope span(tracer, "sql.parse");
    parsed = sql::ParseStatement(text);
  }
  if (!parsed.ok()) return Failed();
  switch (parsed->kind) {
    case sql::Statement::Kind::kInsert: {
      Execution done = ReplayInsert(stmt, *parsed, target, tracer, stats);
      if (done.ok) done.digest = TextDigest("inserted 1 tuple\n", served);
      return done;
    }
    case sql::Statement::Kind::kCreateTable: {
      // Set-up only (loading a private catalog); never logged.
      const sql::CreateTableStatement& create = parsed->create_table;
      if (target->wal != nullptr ||
          !target->catalog->AddRelation(Relation(create.name, create.schema))
               .ok()) {
        return Failed();
      }
      Execution done;
      done.ok = true;
      done.digest = TextDigest("created " + create.name + "\n", served);
      return done;
    }
    case sql::Statement::Kind::kCheckpoint: {
      std::string reply;
      Execution done = ReplayCheckpoint(target, tracer, stats, &reply);
      if (done.ok) done.digest = TextDigest(reply, served);
      return done;
    }
    default:
      return Failed();
  }
}

/// The shapes per-shape engine metrics are reported for, on every
/// workload (zero where a workload does not run the shape).
const std::vector<std::string>& ReportedShapes() {
  static const std::vector<std::string> shapes = {
      "N", "J", "JX", "JA_MAX", "JA_COUNT", "JALL", "CHAIN3", "FILTER"};
  return shapes;
}

}  // namespace

ServedSurface::ServedSurface(std::unique_ptr<server::Server> server,
                             std::vector<std::unique_ptr<Client>> clients,
                             Catalog* observable)
    : server_(std::move(server)),
      clients_(std::move(clients)),
      observable_(observable) {}

ServedSurface::~ServedSurface() {
  clients_.clear();
  server_->Stop();
}

Execution ServedSurface::Execute(const Stmt& stmt) {
  Execution done;
  const Relation* before = nullptr;
  const bool observe = observable_ != nullptr && stmt.kind == Kind::kInsert;
  if (observe) before = CurrentVersion(*observable_, InsertTable(stmt.sql));
  server::ReplyFrame frame;
  const auto start = Clock::now();
  const bool ok =
      clients_[stmt.conn]->Roundtrip(stmt.sql, &frame, &done.frame_bytes);
  done.wall_ms = MsSince(start);
  done.exec_ms = frame.elapsed_ms;
  done.ok = ok && frame.status == "OK";
  done.digest = FrameDigest(frame);
  if (observe) {
    done.cow =
        CurrentVersion(*observable_, InsertTable(stmt.sql)) != before ? 1 : 0;
  }
  return done;
}

Execution Replay(const Stmt& stmt, ReplayTarget* target, bool served,
                 Tracer* tracer, ReplayStats* stats) {
  const auto start = Clock::now();
  if (stmt.kind != Kind::kSelect) {
    Execution done = ReplayWrite(stmt, target, served, tracer, stats);
    done.exec_ms = MsSince(start);
    return done;
  }
  std::optional<Relation> answer;
  server::ReplyFrame frame;
  Execution done;
  {
    Scope root(tracer, "statement");
    const std::string text = StripSemicolon(stmt.sql);
    Result<sql::Statement> parsed = Status::Internal("unset");
    {
      Scope span(tracer, "sql.parse");
      parsed = sql::ParseStatement(text);
    }
    if (!parsed.ok() || parsed->kind != sql::Statement::Kind::kSelect) {
      return Failed();
    }
    done = ReplaySelect(stmt, text, *parsed, target, served, tracer, stats,
                        &answer, &frame);
  }
  done.exec_ms = MsSince(start);  // the answer's digest is not timed
  if (done.ok) {
    done.digest = served ? FrameDigest(frame) : AnswerDigest(*answer);
  }
  return done;
}

void RunTraced(const TracedWorkload& workload, const Options& options,
               Outcome* out) {
  const std::vector<Stmt>& script = workload.script;

  // ---- pass A: the program's own surface, untraced ------------------
  std::vector<Execution> a;
  bool served = false;
  double queue_wait_us = 0.0;
  {
    std::unique_ptr<Surface> surface = workload.make_surface(out);
    if (!out->correct) return;
    served = surface->served();
    Histogram* queue_wait = server::ServerMetrics::Instance()->queue_wait_us;
    const HistogramSnapshot wait0 = queue_wait->Snapshot();
    a.reserve(script.size());
    for (const Stmt& stmt : script) a.push_back(surface->Execute(stmt));
    const HistogramSnapshot wait1 = queue_wait->Snapshot();
    queue_wait_us = Ratio(static_cast<double>(wait1.sum - wait0.sum),
                          static_cast<double>(wait1.total_count -
                                              wait0.total_count));
  }

  // ---- passes B and C, interleaved statement by statement -----------
  // B calls the layer entry points with spans; C is B without spans, for
  // the tracing overhead. Interleaving them gives both the same machine.
  CacheManager::Global().Clear();
  Tracer tracer;
  ReplayStats stats;
  Counters counters;  // pass B's share
  std::vector<Execution> b, c;
  {
    std::unique_ptr<ReplayEnv> env_b = workload.make_replay(&tracer, out);
    if (!out->correct) return;
    // Pass B's warm-up entries; the script's changes are added below.
    counters.cache_bytes =
        static_cast<double>(CacheManager::Global().used_bytes());
    std::unique_ptr<ReplayEnv> env_c = workload.make_replay(nullptr, out);
    if (!out->correct) return;
    b.reserve(script.size());
    c.reserve(script.size());
    for (size_t i = 0; i < script.size(); ++i) {
      const Stmt& stmt = script[i];
      tracer.set_statement(static_cast<uint32_t>(i + 1));
      const Counters before = Counters::Now();
      b.push_back(
          Replay(stmt, env_b->Target(stmt.conn), served, &tracer, &stats));
      counters.AddDelta(before, Counters::Now());
      c.push_back(
          Replay(stmt, env_c->Target(stmt.conn), served, nullptr, nullptr));
    }
    tracer.set_statement(0);
  }

  // ---- answers must agree -------------------------------------------
  for (size_t i = 0; i < script.size(); ++i) {
    ++out->attempted;
    if (!a[i].ok) ++out->failed;
    if (!a[i].ok || !b[i].ok || !c[i].ok) {
      out->Fail("statement " + std::to_string(i + 1) + " failed in pass " +
                (!a[i].ok ? "A" : !b[i].ok ? "B" : "C") + ": " +
                script[i].sql);
      return;
    }
    if (a[i].digest != b[i].digest || b[i].digest != c[i].digest) {
      out->Fail("traced replay answer differs from the program's for: " +
                script[i].sql);
      return;
    }
  }

  // ---- spans -> layer figures ---------------------------------------
  const std::vector<Tracer::Span>& spans = tracer.spans();
  const std::map<std::string, Tracer::Totals> totals = tracer.Summarize();
  std::map<std::string, double> layer_self_us;
  for (const auto& [name, t] : totals) {
    if (name == "wal.recovery") continue;  // set-up, not a statement
    const std::string layer =
        name == "statement" ? "shell" : name.substr(0, name.find('.'));
    layer_self_us[layer] += t.self_us;
  }
  double statement_us = 0.0;  // sum of statement roots
  double covered_us = 0.0;    // layer spans directly under a root, except
                              // the wire codec (outside Session::Execute)
  double insert_us = 0.0, apply_us = 0.0;
  for (const Tracer::Span& span : spans) {
    if (span.stmt == 0) continue;  // set-up (recovery)
    const std::string name = span.name;
    const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    const bool is_insert = script[span.stmt - 1].kind == Kind::kInsert;
    if (span.parent < 0) {
      statement_us += us;
      if (is_insert) insert_us += us;
      continue;
    }
    if (name == "relational.apply" && is_insert) apply_us += us;
    if (spans[static_cast<size_t>(span.parent)].parent >= 0) continue;
    if (name != "server.encode" && name != "server.decode") covered_us += us;
  }
  auto mean_us = [&totals](const char* name) {
    auto it = totals.find(name);
    if (it == totals.end() || it->second.calls == 0) return 0.0;
    return it->second.total_us / static_cast<double>(it->second.calls);
  };

  double a_exec_ms = 0.0, rtt_minus_exec_us = 0.0;
  double frame_bytes = 0.0;
  uint64_t a_inserts = 0, a_cow = 0;
  bool a_cow_known = true;
  for (size_t i = 0; i < script.size(); ++i) {
    a_exec_ms += a[i].exec_ms;
    rtt_minus_exec_us += (a[i].wall_ms - a[i].exec_ms) * 1e3;
    frame_bytes += static_cast<double>(a[i].frame_bytes);
    if (script[i].kind == Kind::kInsert) {
      ++a_inserts;
      if (a[i].cow < 0) a_cow_known = false;
      if (a[i].cow == 1) ++a_cow;
    }
  }
  const double n_stmt = static_cast<double>(script.size());
  const double n_sel = static_cast<double>(stats.selects);
  const double n_ins = static_cast<double>(stats.inserts);

  out->Add("sql.parse_us", mean_us("sql.parse"), "us");
  out->Add("sql.bind_us", mean_us("sql.bind"), "us");
  out->Add("engine.classify_us", mean_us("engine.classify"), "us");
  for (const std::string& shape : ReportedShapes()) {
    auto it = stats.shapes.find(shape);
    const ReplayStats::Shape s =
        it == stats.shapes.end() ? ReplayStats::Shape{} : it->second;
    out->Add("engine.evaluate_ms." + shape,
             Ratio(s.evaluate_us / 1e3, static_cast<double>(s.calls)), "ms");
    out->Add("engine.tuple_pairs." + shape,
             static_cast<double>(s.tuple_pairs), "count");
    out->Add("engine.degree_evals." + shape,
             static_cast<double>(s.degree_evals), "count");
  }
  out->Add("engine.answer_per_pair",
           Ratio(static_cast<double>(stats.answer_rows),
                 static_cast<double>(stats.tuple_pairs)),
           "ratio");
  out->Add("engine.naive_fallback_frac",
           Ratio(static_cast<double>(stats.fallbacks), n_sel), "frac");
  for (QueryPhase phase : {QueryPhase::kPlan, QueryPhase::kFilter,
                           QueryPhase::kSort, QueryPhase::kWindow,
                           QueryPhase::kJoin, QueryPhase::kEmit}) {
    out->Add(std::string("engine.phase.") + QueryPhaseName(phase) + "_ms",
             Ratio(stats.phase_us[static_cast<size_t>(phase)] / 1e3, n_sel),
             "ms");
  }
  out->Add("fuzzy.batch_fill", Ratio(counters.fill_sum, counters.fill_count),
           "lanes");
  out->Add("parallel.cpu_per_wall",
           Ratio(stats.evaluate_cpu_ms, stats.evaluate_wall_ms), "ratio");
  out->Add("parallel.morsel_wait_us",
           Ratio(counters.wait_sum, counters.wait_count), "us");
  out->Add("cache.hit_ratio",
           Ratio(counters.hits, counters.hits + counters.misses), "ratio");
  out->Add("cache.evictions_per_stmt", Ratio(counters.evictions, n_stmt),
           "ratio");
  out->Add("cache.invalidations_per_insert",
           Ratio(counters.invalidated, n_ins), "ratio");
  out->Add("cache.used_mb", counters.cache_bytes / (1024.0 * 1024.0), "MB");
  out->Add("relational.snapshot_us", mean_us("relational.snapshot"), "us");
  out->Add("relational.apply_us", mean_us("relational.apply"), "us");
  out->Add("relational.cow_per_insert",
           a_cow_known ? Ratio(static_cast<double>(a_cow),
                               static_cast<double>(a_inserts))
                       : Ratio(static_cast<double>(stats.cow), n_ins),
           "ratio");
  out->Add("relational.apply_frac_of_insert", Ratio(apply_us, insert_us),
           "frac");
  out->Add("wal.commit_wait_us", mean_us("wal.commit_wait"), "us");
  out->Add("wal.append_us", mean_us("wal.append"), "us");
  out->Add("wal.fsyncs_per_insert", Ratio(counters.fsyncs, n_ins), "ratio");
  out->Add("wal.bytes_per_insert", Ratio(counters.append_bytes, n_ins), "B");
  out->Add("wal.checkpoint_ms", mean_us("wal.checkpoint") / 1e3, "ms");
  {
    auto it = totals.find("wal.checkpoint");
    const double calls =
        it == totals.end() ? 0.0 : static_cast<double>(it->second.calls);
    out->Add("wal.checkpoint_mb",
             Ratio(static_cast<double>(stats.checkpoint_bytes), calls) /
                 (1024.0 * 1024.0),
             "MB");
  }
  out->Add("wal.recovery_ms", mean_us("wal.recovery") / 1e3, "ms");
  out->Add("wal.write_amp",
           Ratio(counters.append_bytes +
                     static_cast<double>(stats.checkpoint_bytes),
                 static_cast<double>(stats.insert_bytes)),
           "ratio");
  out->Add("server.rtt_minus_execute_us",
           served ? rtt_minus_exec_us / n_stmt : 0.0, "us");
  out->Add("server.queue_wait_us", queue_wait_us, "us");
  out->Add("server.frame_bytes", frame_bytes / n_stmt, "B");
  out->Add("server.encode_us", mean_us("server.encode"), "us");
  out->Add("server.decode_us", mean_us("server.decode"), "us");
  out->Add("shell.render_us", mean_us("shell.render"), "us");
  out->Add("shell.unattributed_frac", 1.0 - Ratio(covered_us, a_exec_ms * 1e3),
           "frac");
  double traced_ms = 0.0, untraced_ms = 0.0;
  for (size_t i = 0; i < script.size(); ++i) {
    traced_ms += b[i].exec_ms;
    untraced_ms += c[i].exec_ms;
  }
  out->Add("trace.overhead_frac", Ratio(traced_ms, untraced_ms) - 1.0, "frac");
  for (const char* layer :
       {"sql", "engine", "relational", "wal", "server", "cache", "shell"}) {
    out->Add(std::string(layer) + ".frac",
             Ratio(layer_self_us[layer], statement_us), "frac");
  }

  char line[200];
  std::snprintf(line, sizeof(line),
                "traced script: %zu statements (%llu SELECT, %llu INSERT); "
                "pass A execute %.1f ms, pass B %.1f ms, pass C %.1f ms",
                script.size(), static_cast<unsigned long long>(stats.selects),
                static_cast<unsigned long long>(stats.inserts), a_exec_ms,
                traced_ms, untraced_ms);
  out->Note(line);
  if (!options.work_dir.empty()) {
    const std::string path =
        options.work_dir + "/../trace-" + workload.name + ".jsonl";
    if (tracer.WriteJsonl(path)) {
      out->Note("spans written to " + path + " (" +
                std::to_string(spans.size()) + " spans)");
    }
  }
}

}  // namespace perfbench
}  // namespace fuzzydb
