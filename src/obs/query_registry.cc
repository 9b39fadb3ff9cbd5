#include "obs/query_registry.h"

#include <sstream>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace fuzzydb {

namespace {

uint64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kNone:
      return "none";
    case QueryPhase::kPlan:
      return "plan";
    case QueryPhase::kFilter:
      return "filter";
    case QueryPhase::kSort:
      return "sort";
    case QueryPhase::kWindow:
      return "window";
    case QueryPhase::kJoin:
      return "join";
    case QueryPhase::kEmit:
      return "emit";
  }
  return "none";
}

QueryPhase QueryProgress::EnterPhase(QueryPhase phase, Clock::time_point at) {
  const QueryPhase prev = this->phase();
  SwitchTo(phase, at);
  phase_enters_[static_cast<size_t>(phase)].fetch_add(
      1, std::memory_order_relaxed);
  return prev;
}

void QueryProgress::SwitchTo(QueryPhase phase, Clock::time_point at) {
  if (started_) {
    phase_micros_[static_cast<size_t>(this->phase())].fetch_add(
        MicrosBetween(mark_, at), std::memory_order_relaxed);
  } else {
    started_ = true;
    queue_wait_micros_.store(MicrosBetween(created_, at),
                             std::memory_order_relaxed);
  }
  mark_ = at;
  phase_.store(static_cast<uint32_t>(phase), std::memory_order_relaxed);
}

void QueryProgress::FinishPhases() {
  SwitchTo(QueryPhase::kNone, Clock::now());
}

std::string QueryProgress::PhasesText() const {
  std::ostringstream out;
  bool first = true;
  for (size_t i = 1; i < kNumQueryPhases; ++i) {
    const QueryPhase phase = static_cast<QueryPhase>(i);
    if (PhaseEnters(phase) == 0) continue;
    if (!first) out << " ";
    first = false;
    out << QueryPhaseName(phase) << "="
        << FormatDouble(static_cast<double>(PhaseMicros(phase)) / 1e3, 3)
        << "ms";
  }
  return out.str();
}

std::string QueryProgress::DeterminismSignature() const {
  std::ostringstream out;
  out << "enters=";
  for (size_t i = 1; i < kNumQueryPhases; ++i) {
    const QueryPhase phase = static_cast<QueryPhase>(i);
    if (i > 1) out << ",";
    out << QueryPhaseName(phase) << ":" << PhaseEnters(phase);
  }
  out << ";items=" << items_done() << ";morsels=" << morsels_done()
      << ";rows=" << rows_emitted() << ";pairs=" << pairs_considered();
  return out.str();
}

ActiveQueryRegistry& ActiveQueryRegistry::Global() {
  static ActiveQueryRegistry* registry = new ActiveQueryRegistry();
  return *registry;
}

uint64_t ActiveQueryRegistry::Register(std::string sql, QueryContext* ctx,
                                       QueryProgress* progress,
                                       size_t threads) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  Entry entry;
  entry.sql = std::move(sql);
  entry.ctx = ctx;
  entry.progress = progress;
  entry.threads = threads;
  entry.start = std::chrono::steady_clock::now();
  entries_.emplace(id, std::move(entry));
  approx_size_.store(entries_.size(), std::memory_order_relaxed);
  if (progress != nullptr) progress->set_query_id(id);
  return id;
}

void ActiveQueryRegistry::Unregister(uint64_t id) {
  QueryProgress* progress = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return;
    progress = it->second.progress;
    entries_.erase(it);
    approx_size_.store(entries_.size(), std::memory_order_relaxed);
  }
  // Fold the finished query's phase timers into the cumulative
  // per-phase counters. The progress object is owned by the caller
  // (still alive: ActiveQueryRegistration holds it through this call).
  if (progress == nullptr) return;
  EngineMetrics* m = EngineMetrics::IfEnabled();
  if (m == nullptr) return;
  for (size_t i = 1; i < kNumQueryPhases; ++i) {
    const uint64_t micros =
        progress->PhaseMicros(static_cast<QueryPhase>(i));
    if (micros > 0) m->phase_seconds[i]->Add(micros);
  }
}

ActiveQueryInfo ActiveQueryRegistry::InfoFor(uint64_t id,
                                             const Entry& entry) const {
  ActiveQueryInfo info;
  info.id = id;
  info.sql = entry.sql;
  info.threads = entry.threads;
  info.elapsed_ms =
      static_cast<double>(
          MicrosBetween(entry.start, std::chrono::steady_clock::now())) /
      1e3;
  if (entry.progress != nullptr) {
    info.phase = QueryPhaseName(entry.progress->phase());
    info.queue_wait_ms =
        static_cast<double>(entry.progress->queue_wait_micros()) / 1e3;
    info.items_done = entry.progress->items_done();
    info.morsels_done = entry.progress->morsels_done();
    info.rows_emitted = entry.progress->rows_emitted();
    info.pairs_considered = entry.progress->pairs_considered();
  } else {
    info.phase = "none";
  }
  if (entry.ctx != nullptr) {
    info.mem_used_bytes = entry.ctx->memory().used();
    info.mem_peak_bytes = entry.ctx->memory().peak();
    info.cancel_requested = entry.ctx->cancel_requested();
  }
  return info;
}

std::vector<ActiveQueryInfo> ActiveQueryRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ActiveQueryInfo> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    out.push_back(InfoFor(id, entry));
  }
  return out;
}

bool ActiveQueryRegistry::Kill(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end() || it->second.ctx == nullptr) return false;
  // Safe under the lock: Unregister precedes the context's destruction
  // on the executing thread, so a registered ctx is always alive here.
  it->second.ctx->Cancel();
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->queries_killed->Add();
  }
  return true;
}

size_t ActiveQueryRegistry::CancelAll() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t cancelled = 0;
  for (auto& [id, entry] : entries_) {
    if (entry.ctx == nullptr) continue;
    entry.ctx->Cancel();
    ++cancelled;
  }
  return cancelled;
}

size_t ActiveQueryRegistry::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Relation ActiveQueryRegistry::ToRelation() const {
  Relation rel("sys.queries", Schema{{"id", ValueType::kFuzzy},
                                     {"phase", ValueType::kString},
                                     {"elapsed_ms", ValueType::kFuzzy},
                                     {"queue_ms", ValueType::kFuzzy},
                                     {"items", ValueType::kFuzzy},
                                     {"rows", ValueType::kFuzzy},
                                     {"pairs", ValueType::kFuzzy},
                                     {"mem_bytes", ValueType::kFuzzy},
                                     {"threads", ValueType::kFuzzy},
                                     {"query", ValueType::kString}});
  for (const ActiveQueryInfo& q : Snapshot()) {
    (void)rel.Append(
        Tuple({Value::Number(static_cast<double>(q.id)),
               Value::String(q.phase), Value::Number(q.elapsed_ms),
               Value::Number(q.queue_wait_ms),
               Value::Number(static_cast<double>(q.items_done)),
               Value::Number(static_cast<double>(q.rows_emitted)),
               Value::Number(static_cast<double>(q.pairs_considered)),
               Value::Number(static_cast<double>(q.mem_used_bytes)),
               Value::Number(static_cast<double>(q.threads)),
               Value::String(q.sql)},
              /*degree=*/1.0));
  }
  return rel;
}

std::string ActiveQueryRegistry::ToText() const {
  std::ostringstream out;
  for (const ActiveQueryInfo& q : Snapshot()) {
    out << "id=" << q.id << " phase=" << q.phase
        << " elapsed_ms=" << FormatDouble(q.elapsed_ms, 3)
        << " queue_ms=" << FormatDouble(q.queue_wait_ms, 3)
        << " items=" << q.items_done << " rows=" << q.rows_emitted
        << " pairs=" << q.pairs_considered
        << " mem_bytes=" << q.mem_used_bytes << " threads=" << q.threads
        << (q.cancel_requested ? " cancelling" : "") << " query=" << q.sql
        << "\n";
  }
  return out.str();
}

ActiveQueryRegistration::ActiveQueryRegistration(std::string sql,
                                                QueryContext* ctx,
                                                QueryProgress* progress,
                                                size_t threads)
    : id_(ActiveQueryRegistry::Global().Register(std::move(sql), ctx,
                                                 progress, threads)),
      progress_(progress) {}

ActiveQueryRegistration::~ActiveQueryRegistration() {
  if (progress_ != nullptr) progress_->FinishPhases();
  ActiveQueryRegistry::Global().Unregister(id_);
}

}  // namespace fuzzydb
