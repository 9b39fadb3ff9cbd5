#include "engine/unnested_evaluator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <optional>

#include <array>
#include <memory>

#include "cache/cache_manager.h"
#include "cache/plan_fingerprint.h"
#include "common/query_context.h"
#include "engine/aggregate.h"
#include "engine/cost_model.h"
#include "engine/join_order.h"
#include "engine/merge_window.h"
#include "stats/column_stats.h"
#include "engine/naive_evaluator.h"
#include "engine/semantics.h"
#include "common/stopwatch.h"
#include "fuzzy/degree_batch.h"
#include "fuzzy/interval_order.h"
#include "fuzzy/trapezoid_batch.h"
#include "obs/metrics.h"
#include "obs/query_journal.h"
#include "obs/query_registry.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "relational/column_gather.h"

namespace fuzzydb {

namespace {

using sql::BoundOperand;
using sql::BoundPredicate;
using sql::BoundQuery;
using sql::Predicate;

/// A tuple surviving the local-predicate filter, with its adjusted degree
/// min(mu_R(r), d(p_local(r))).
struct FT {
  const Tuple* tuple = nullptr;
  double degree = 0.0;
};

/// True when the operator should consult the cross-query cache.
bool CacheOn(const ParallelContext& ctx) {
  return ctx.cache != nullptr && ctx.cache->enabled();
}

/// The QueryContext cache admission charges against. ParallelContext
/// holds the context const (operators only poll it); the underlying
/// object always comes from the non-const ExecOptions::context, so the
/// cast is well-defined.
QueryContext* CacheBudget(const ParallelContext& ctx) {
  return const_cast<QueryContext*>(ctx.query);
}

// ---------------------------------------------------------------------
// Batch execution (docs/architecture.md, "Batch execution").
//
// The filter stage and the pair-term evaluation gather their fuzzy
// operands into TrapezoidBatch SoA batches and evaluate whole batches
// through the kernels of fuzzy/degree_batch.h. A lane takes part in a
// predicate only while its degree is still > 0, and
// degree_evaluations advances once per participating lane, so results,
// CpuStats and trace counters are identical for every
// ExecOptions::batch_size -- only wall time changes. Batches are cut
// inside morsels and never span one, so the batch decomposition, like
// the morsel decomposition, is independent of thread count.
// ---------------------------------------------------------------------

/// Lanes per batch: the knob clamped to [1, the SoA capacity].
size_t EffectiveBatchSize(const ParallelContext& ctx) {
  return std::clamp<size_t>(ctx.batch_size, 1, TrapezoidBatch::kCapacity);
}

/// Per-worker batch-path usage, summed at the barrier (sums are
/// permutation-invariant, so the totals are thread-count-invariant).
struct BatchTally {
  uint64_t batches = 0;  // batch-kernel invocations
  uint64_t rows = 0;     // lanes those invocations evaluated
};

/// Sums the per-worker tallies into the span annotation and the
/// fuzzydb_batch_* counters. Spans with zero batches (no batchable
/// work) stay unannotated.
void PublishBatchTally(const std::vector<BatchTally>& tallies,
                       TraceScope* span) {
  uint64_t batches = 0;
  uint64_t rows = 0;
  for (const BatchTally& t : tallies) {
    batches += t.batches;
    rows += t.rows;
  }
  if (batches == 0) return;
  span->SetBatches(batches, rows);
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->batch_batches->Add(batches);
    m->batch_rows->Add(rows);
  }
}

/// One side of a predicate resolved for batch evaluation: a column of
/// the local (innermost) frame, a column of the enclosing frame
/// (correlation predicates only), or a fuzzy constant. Mirrors the
/// frame shapes OperandValue resolves on the batched paths.
struct BatchOperand {
  enum class Kind { kLocalColumn, kOuterColumn, kConstant };
  Kind kind = Kind::kConstant;
  size_t column = 0;
  const Trapezoid* constant = nullptr;  // into the plan's BoundOperand

  bool is_column() const { return kind != Kind::kConstant; }
};

/// Resolves `op`, or nullopt when the operand forces the scalar
/// fallback (a disallowed outer reference, a multi-table frame, or a
/// non-fuzzy constant).
std::optional<BatchOperand> ResolveBatchOperand(const BoundOperand& op,
                                                bool allow_outer) {
  BatchOperand out;
  if (op.is_column) {
    if (op.column.table != 0) return std::nullopt;
    if (op.column.up == 0) {
      out.kind = BatchOperand::Kind::kLocalColumn;
    } else if (op.column.up == 1 && allow_outer) {
      out.kind = BatchOperand::Kind::kOuterColumn;
    } else {
      return std::nullopt;
    }
    out.column = op.column.column;
    return out;
  }
  if (!op.constant.is_fuzzy()) return std::nullopt;
  out.kind = BatchOperand::Kind::kConstant;
  out.constant = &op.constant.AsFuzzy();
  return out;
}

/// A gathered operand, ready for a kernel call: either a batch of
/// column lanes or a single scalar constant (exactly one is set;
/// constants stay scalar so nothing is splatted).
struct GatheredOperand {
  const TrapezoidBatch* batch = nullptr;
  const Trapezoid* scalar = nullptr;
};

/// One batch-kernel invocation over the gathered operand shapes.
void RunBatchCompare(const GatheredOperand& lhs, CompareOp op,
                     const GatheredOperand& rhs, double tolerance,
                     double* out) {
  if (lhs.batch != nullptr && rhs.batch != nullptr) {
    BatchSatisfactionDegree(*lhs.batch, op, *rhs.batch, tolerance, out);
  } else if (lhs.batch != nullptr) {
    BatchSatisfactionDegree(*lhs.batch, op, *rhs.scalar, tolerance, out);
  } else {
    BatchSatisfactionDegree(*lhs.scalar, op, *rhs.batch, tolerance, out);
  }
}

/// A predicate with its operands resolved once per operator. A plan
/// that is not batchable (an unresolved operand, or two constants)
/// runs its lanes through the per-tuple ComparisonDegree fallback.
struct BatchPredPlan {
  const BoundPredicate* pred = nullptr;
  std::optional<BatchOperand> lhs;
  std::optional<BatchOperand> rhs;

  bool batchable() const {
    return lhs.has_value() && rhs.has_value() &&
           (lhs->is_column() || rhs->is_column());
  }
};

/// Reusable per-worker scratch for the batched filter: two operand
/// batches plus degree/result/selection lanes (~90 KiB, heap-allocated
/// once per worker and reused across chunks).
struct FilterScratch {
  TrapezoidBatch lhs;
  TrapezoidBatch rhs;
  std::array<double, TrapezoidBatch::kCapacity> degree;
  std::array<double, TrapezoidBatch::kCapacity> result;
  std::array<uint32_t, TrapezoidBatch::kCapacity> active;
};

/// Gathers one filter operand for the chunk's active lanes. The dense
/// first-predicate case (every lane active) takes the contiguous
/// column gather; later predicates gather through the selection.
/// Returns false when a lane is non-fuzzy (scalar fallback).
bool GatherFilterOperand(const BatchOperand& op, const Tuple* tuples,
                         size_t count, const uint32_t* active, size_t live,
                         TrapezoidBatch* storage, GatheredOperand* out) {
  if (!op.is_column()) {
    out->scalar = op.constant;
    out->batch = nullptr;
    return true;
  }
  // kLocalColumn -- the filter frame has no enclosing frame.
  if (live == count) {
    if (!GatherFuzzyColumn(tuples, count, op.column, storage)) return false;
  } else {
    storage->Clear();
    for (size_t j = 0; j < live; ++j) {
      const Value& v = tuples[active[j]].ValueAt(op.column);
      if (!v.is_fuzzy()) return false;
      storage->PushBack(v.AsFuzzy());
    }
  }
  out->batch = storage;
  out->scalar = nullptr;
  return true;
}

/// Evaluates one chunk of `count` tuples of the filter's scan range
/// batch-at-a-time, appending survivors (in scan order) to *out. Each
/// tuple's degree is min(mu(t), d(p) for every local predicate p), with
/// a lane leaving the fold once its degree reaches 0.
void FilterChunkBatched(const std::vector<BatchPredPlan>& plans,
                        const Tuple* tuples, size_t count,
                        FilterScratch* scratch, CpuStats* slot,
                        BatchTally* tally, Histogram* fill_hist,
                        std::vector<FT>* out) {
  double* deg = scratch->degree.data();
  double* res = scratch->result.data();
  uint32_t* active = scratch->active.data();
  for (size_t k = 0; k < count; ++k) deg[k] = tuples[k].degree();
  for (const BatchPredPlan& plan : plans) {
    size_t live = 0;
    for (size_t k = 0; k < count; ++k) {
      active[live] = static_cast<uint32_t>(k);
      live += static_cast<size_t>(deg[k] > 0.0);
    }
    if (live == 0) break;
    bool batched = false;
    if (plan.batchable()) {
      GatheredOperand lhs, rhs;
      batched = GatherFilterOperand(*plan.lhs, tuples, count, active, live,
                                    &scratch->lhs, &lhs) &&
                GatherFilterOperand(*plan.rhs, tuples, count, active, live,
                                    &scratch->rhs, &rhs);
      if (batched) {
        RunBatchCompare(lhs, plan.pred->op, rhs, plan.pred->approx_tolerance,
                        res);
        if (slot != nullptr) slot->degree_evaluations += live;
        ++tally->batches;
        tally->rows += live;
        if (fill_hist != nullptr) fill_hist->Record(live);
        for (size_t j = 0; j < live; ++j) {
          const size_t k = active[j];
          deg[k] = std::min(deg[k], res[j]);
        }
      }
    }
    if (!batched) {
      for (size_t j = 0; j < live; ++j) {
        const size_t k = active[j];
        Frames frames;
        frames.push_back({&tuples[k]});
        deg[k] = std::min(deg[k], ComparisonDegree(*plan.pred, frames, slot));
      }
    }
  }
  for (size_t k = 0; k < count; ++k) {
    if (deg[k] > 0.0) out->push_back(FT{&tuples[k], deg[k]});
  }
}

// ---------------------------------------------------------------------
// Cost-based planning hooks (ExecOptions::cost_based).
//
// Estimates come from the support-corner summaries of
// stats/column_stats.h; algorithm decisions from engine/cost_model.h.
// Every input is a thread-count-invariant filtered vector and every
// estimator is a pure function, so planning decisions -- and therefore
// results -- are identical for every thread count, and identical to the
// fixed-rule plans in answer bits (only intermediate work differs).
// ---------------------------------------------------------------------

/// Builds the summary of fuzzy column `col` over a filtered vector.
ColumnStats BuildKeyStats(const std::vector<FT>& tuples, size_t col) {
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->planner_stats_builds->Add();
  }
  std::vector<Trapezoid> values;
  values.reserve(tuples.size());
  for (const FT& ft : tuples) {
    const Value& v = ft.tuple->ValueAt(col);
    if (v.is_fuzzy()) values.push_back(v.AsFuzzy());
  }
  ColumnStats stats = BuildColumnStats(values);
  stats.rows = tuples.size();
  return stats;
}

/// Rounds a fractional cardinality estimate to the uint64 a span carries.
uint64_t RoundEstimate(double est) {
  if (!(est > 0.0)) return 0;
  return static_cast<uint64_t>(std::llround(est));
}

/// Records one operator's q-error, max(est/act, act/est) with both
/// sides floored at one row, scaled by 100 (100 = perfect).
void RecordQError(uint64_t est, uint64_t act) {
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    const double e = static_cast<double>(std::max<uint64_t>(est, 1));
    const double a = static_cast<double>(std::max<uint64_t>(act, 1));
    m->planner_q_error->Record(
        static_cast<uint64_t>(std::llround(std::max(e / a, a / e) * 100.0)));
  }
}

/// `op` as seen from the other side of the comparison (column and
/// constant swapped).
CompareOp MirrorCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

/// Planner estimate of a filter block's survivors: relation rows times
/// the product of per-predicate selectivities. Only column-vs-fuzzy-
/// constant comparisons are estimable from the summaries; other local
/// predicates contribute selectivity 1 (keep everything).
uint64_t EstimateFilterRows(const BoundQuery& block, size_t n) {
  if (n == 0) return 0;
  const Relation& rel = *block.tables[0].relation;
  double selectivity = 1.0;
  for (const auto& pred : block.predicates) {
    if (pred.subquery != nullptr || !pred.IsLocal()) continue;
    if (pred.kind != Predicate::Kind::kCompare || pred.negated) continue;
    const BoundOperand* col_side = nullptr;
    const BoundOperand* const_side = nullptr;
    CompareOp op = pred.op;
    if (pred.lhs.is_column && !pred.rhs.is_column) {
      col_side = &pred.lhs;
      const_side = &pred.rhs;
    } else if (pred.rhs.is_column && !pred.lhs.is_column) {
      col_side = &pred.rhs;
      const_side = &pred.lhs;
      op = MirrorCompareOp(op);
    } else {
      continue;
    }
    if (!const_side->constant.is_fuzzy()) continue;
    const ColumnStats stats =
        BuildColumnStats(rel, col_side->column.column);
    if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
      m->planner_stats_builds->Add();
    }
    selectivity *= EstimatePredicateSelectivity(
        stats, op, const_side->constant.AsFuzzy());
  }
  return RoundEstimate(selectivity * static_cast<double>(n));
}

/// Filters a single-table block by its local predicates; this is the
/// paper's "only those tuples that satisfy p positively should be sorted".
/// Morsels are filtered in parallel into per-morsel vectors concatenated
/// in morsel order, so the output (and, with per-worker stats folded at
/// the barrier, the counters) match the serial scan exactly.
std::vector<FT> FilterBlock(const BoundQuery& block,
                            const ParallelContext& ctx, CpuStats* cpu,
                            ExecTrace* trace) {
  TraceScope span(trace, "filter", cpu, nullptr,
                  block.tables[0].relation->name());
  span.SetThreads(WorkerSlots(ctx));
  PhaseScope phase(ctx.progress, QueryPhase::kFilter);
  const std::vector<Tuple>& tuples = block.tables[0].relation->tuples();
  const size_t n = tuples.size();
  // Cross-query reuse: the survivors depend only on the block plan and
  // the relation contents, and the fingerprint pins both (relations
  // appear as id@version). Cached filters replay as (index, degree)
  // pairs against the live tuple vector, skipping every predicate.
  std::string cache_key;
  std::vector<uint64_t> cache_deps;
  if (CacheOn(ctx)) {
    cache_key = "filt|" + PlanFingerprint(block, /*include_threshold=*/true,
                                          &cache_deps);
    if (auto cached = ctx.cache->LookupFiltered(cache_key)) {
      std::vector<FT> out;
      out.reserve(cached->size());
      for (const auto& [index, degree] : *cached) {
        out.push_back(FT{&tuples[index], degree});
      }
      span.SetDetail(block.tables[0].relation->name() + " (cached)");
      span.SetInputRows(n);
      span.SetOutputRows(out.size());
      if (span.enabled() && ctx.cost_based) {
        const uint64_t est = EstimateFilterRows(block, n);
        span.SetEstimatedRows(est);
        RecordQError(est, out.size());
      }
      if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
        m->filter_rows_in->Add(n);
        m->filter_rows_out->Add(out.size());
      }
      return out;
    }
  }
  const size_t morsel = ctx.morsel_size == 0 ? 1 : ctx.morsel_size;
  std::vector<std::vector<FT>> per_morsel((n + morsel - 1) / morsel);
  std::vector<CpuStats> worker_cpu(WorkerSlots(ctx));
  // Resolve each local predicate's operands once for the chunked scan.
  const size_t batch = EffectiveBatchSize(ctx);
  std::vector<BatchPredPlan> plans;
  for (const auto& pred : block.predicates) {
    if (pred.subquery != nullptr || !pred.IsLocal()) continue;
    BatchPredPlan plan;
    plan.pred = &pred;
    plan.lhs = ResolveBatchOperand(pred.lhs, /*allow_outer=*/false);
    plan.rhs = ResolveBatchOperand(pred.rhs, /*allow_outer=*/false);
    plans.push_back(plan);
  }
  std::vector<std::unique_ptr<FilterScratch>> scratches(WorkerSlots(ctx));
  std::vector<BatchTally> tallies(WorkerSlots(ctx));
  EngineMetrics* metrics = EngineMetrics::IfEnabled();
  Histogram* fill_hist = metrics == nullptr ? nullptr : metrics->batch_fill;
  // Declared after `span`: if a morsel body throws, the folder's
  // destructor runs first during unwinding, so whatever the workers
  // tallied still lands in *cpu before the span snapshots its delta.
  CpuStatsFolder folder(cpu == nullptr ? nullptr : &worker_cpu, cpu);
  ParallelFor(ctx, n, [&](size_t worker, size_t begin, size_t end) {
    CpuStats* slot = cpu == nullptr ? nullptr : &worker_cpu[worker];
    std::vector<FT>& out = per_morsel[begin / morsel];
    std::unique_ptr<FilterScratch>& scratch = scratches[worker];
    if (scratch == nullptr) scratch = std::make_unique<FilterScratch>();
    for (size_t i = begin; i < end; i += batch) {
      FilterChunkBatched(plans, &tuples[i], std::min(batch, end - i),
                         scratch.get(), slot, &tallies[worker], fill_hist,
                         &out);
    }
  });
  size_t survivors = 0;
  for (const auto& part : per_morsel) survivors += part.size();
  std::vector<FT> out;
  out.reserve(survivors);
  for (const auto& part : per_morsel) {
    out.insert(out.end(), part.begin(), part.end());
  }
  folder.Fold();
  PublishBatchTally(tallies, &span);
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->filter_rows_in->Add(n);
    m->filter_rows_out->Add(out.size());
  }
  span.SetInputRows(n);
  span.SetOutputRows(out.size());
  if (span.enabled() && ctx.cost_based) {
    const uint64_t est = EstimateFilterRows(block, n);
    span.SetEstimatedRows(est);
    RecordQError(est, out.size());
  }
  if (!cache_key.empty()) {
    auto payload = std::make_shared<CacheManager::FilteredBlock>();
    payload->reserve(out.size());
    const Tuple* base = tuples.data();
    for (const FT& ft : out) {
      payload->emplace_back(static_cast<uint32_t>(ft.tuple - base),
                            ft.degree);
    }
    ctx.cache->InsertFiltered(cache_key, std::move(payload),
                              std::move(cache_deps), CacheBudget(ctx));
  }
  return out;
}

/// True when every tuple carries a fuzzy (numeric) value in column `col`.
bool ColumnIsFuzzy(const std::vector<FT>& tuples, size_t col) {
  for (const FT& ft : tuples) {
    if (!ft.tuple->ValueAt(col).is_fuzzy()) return false;
  }
  return true;
}

/// Sorts by the interval order (Definition 3.1) of fuzzy column `col`.
/// Parallel per-run sorts + merge tree; order and comparison count are
/// thread-count-invariant (see ParallelSort).
///
/// When `rel` (the relation the FT pointers reference) is given and the
/// cache is on, the full-relation interval-order permutation of `col` is
/// reused across queries: a hit reorders the survivors by one O(n + k)
/// walk of the cached permutation with zero key comparisons; a miss over
/// the *unfiltered* relation publishes the sorted order (a permutation is
/// only derivable when every tuple survived). Tie order may differ
/// between the cached and sorted paths, which is answer-neutral: every
/// consumer folds degrees with max/min and final answers are
/// duplicate-eliminated.
///
/// A governed stop mid-sort returns the stop status; *tuples must then
/// not be read.
Status SortByIntervalOrder(std::vector<FT>* tuples, size_t col,
                           const ParallelContext& ctx, CpuStats* cpu,
                           ExecTrace* trace, const Relation* rel) {
  TraceScope span(trace, "interval-sort", cpu, nullptr,
                  "col" + std::to_string(col));
  span.SetInputRows(tuples->size());
  span.SetThreads(WorkerSlots(ctx));
  PhaseScope phase(ctx.progress, QueryPhase::kSort);
  std::string cache_key;
  if (rel != nullptr && CacheOn(ctx)) {
    cache_key = "perm|" + std::to_string(rel->id()) + "@" +
                std::to_string(rel->version()) + "|c" + std::to_string(col);
    if (auto perm = ctx.cache->LookupPermutation(cache_key)) {
      const Tuple* base = rel->tuples().data();
      constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();
      std::vector<uint32_t> slot_of(rel->tuples().size(), kAbsent);
      for (size_t i = 0; i < tuples->size(); ++i) {
        slot_of[static_cast<size_t>((*tuples)[i].tuple - base)] =
            static_cast<uint32_t>(i);
      }
      std::vector<FT> ordered;
      ordered.reserve(tuples->size());
      for (uint32_t index : *perm) {
        if (slot_of[index] != kAbsent) {
          ordered.push_back((*tuples)[slot_of[index]]);
        }
      }
      *tuples = std::move(ordered);
      span.SetDetail("col" + std::to_string(col) + " (cached)");
      if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
        m->sort_rows->Add(tuples->size());
      }
      return Status::OK();
    }
  }
  uint64_t comparisons = 0;
  FUZZYDB_RETURN_IF_ERROR(ParallelSort(
      ctx, tuples, cpu == nullptr ? nullptr : &comparisons,
      [col](uint64_t* count) {
        return [col, count](const FT& x, const FT& y) {
          ++*count;
          return IntervalOrderLess(x.tuple->ValueAt(col).AsFuzzy(),
                                   y.tuple->ValueAt(col).AsFuzzy());
        };
      }));
  if (cpu != nullptr) cpu->comparisons += comparisons;
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->sort_rows->Add(tuples->size());
  }
  if (!cache_key.empty() && tuples->size() == rel->tuples().size()) {
    auto perm = std::make_shared<CacheManager::Permutation>();
    perm->reserve(tuples->size());
    const Tuple* base = rel->tuples().data();
    for (const FT& ft : *tuples) {
      perm->push_back(static_cast<uint32_t>(ft.tuple - base));
    }
    ctx.cache->InsertPermutation(cache_key, std::move(perm), {rel->id()},
                                 CacheBudget(ctx));
  }
  return Status::OK();
}

/// The support bounds of fuzzy column `col` of every filtered tuple.
std::vector<SupportBounds> HoistKeyBounds(const std::vector<FT>& tuples,
                                          size_t col) {
  return HoistSupportBounds(tuples, [col](const FT& ft) -> const Trapezoid& {
    return ft.tuple->ValueAt(col).AsFuzzy();
  });
}

/// The extended merge-join enumeration (Section 3): both inputs sorted on
/// their key columns; for each outer tuple, emits exactly the inner tuples
/// of Rng(r) (Definition 3.2), as found by NextWindow.
///
/// Parallelization: the *outer* sorted input is cut into morsels; the
/// window logic is read-only over the inner side, so morsels are
/// independent and the enumeration is exactly degree-preserving. Each
/// morsel replays the serial scan for its range after replaying the scan
/// *state* at its entry: the serial window start before outer[begin] is
/// min{i : e(inner[i]) >= b(outer[begin - 1])}, which an (uncounted)
/// binary search finds on the monotone prefix-max of inner support ends
/// (the raw ends are not monotone under the interval order). Counted
/// comparisons therefore sum to the serial totals for every thread count.
///
/// `emit(worker, r, s)` may run concurrently for distinct workers; per-
/// worker stats go to worker_cpu (null = don't count, the serial
/// convention for cpu == nullptr). The worker slots -- including
/// whatever the emit callback tallied into them -- are folded into
/// `total_cpu` at the barrier, inside this operator's trace span.
///
/// The emit callback buffers pairs into batches; `morsel_flush(worker)`
/// runs at the end of every morsel body so batches never span morsels.
/// `batch_tallies` is published into this operator's span after the fold.
void MergeWindow(const std::vector<FT>& outer, size_t outer_col,
                 const std::vector<FT>& inner, size_t inner_col,
                 const ParallelContext& ctx,
                 std::vector<CpuStats>* worker_cpu, CpuStats* total_cpu,
                 ExecTrace* trace,
                 const std::function<void(size_t, const FT&, const FT&)>&
                     emit,
                 const std::function<void(size_t)>& morsel_flush,
                 const std::vector<BatchTally>& batch_tallies,
                 uint64_t est_pairs) {
  TraceScope span(trace, "merge-window", total_cpu, nullptr,
                  "inner=" + std::to_string(inner.size()));
  span.SetInputRows(outer.size());
  span.SetThreads(WorkerSlots(ctx));
  PhaseScope phase(ctx.progress, QueryPhase::kWindow);
  // Declared after `span` so a throwing emit callback still folds the
  // worker tallies before the span records its delta (see CpuStatsFolder).
  CpuStatsFolder folder(worker_cpu, total_cpu);
  // Hoisted out of the scan: the enabled path per outer tuple is one
  // relaxed-atomic Record of |Rng(r)|, the disabled path one null test.
  EngineMetrics* metrics = EngineMetrics::IfEnabled();
  Histogram* window_hist =
      metrics == nullptr ? nullptr : metrics->merge_window_length;
  const std::vector<SupportBounds> outer_bounds =
      HoistKeyBounds(outer, outer_col);
  const std::vector<SupportBounds> inner_bounds =
      HoistKeyBounds(inner, inner_col);
  std::vector<double> inner_end_max(inner_bounds.size());
  double running = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < inner_bounds.size(); ++i) {
    running = std::max(running, inner_bounds[i].end);
    inner_end_max[i] = running;
  }

  // Windowed (= emitted) pairs per worker; the post-barrier sum is
  // permutation-invariant, so the span's rows_out -- the actual
  // cardinality the q-error gate compares est_pairs against -- is
  // thread-count-invariant like the counters.
  std::vector<uint64_t> worker_pairs(WorkerSlots(ctx), 0);

  ParallelFor(ctx, outer.size(), [&](size_t worker, size_t begin,
                                     size_t end) {
    CpuStats* cpu = worker_cpu == nullptr ? nullptr : &(*worker_cpu)[worker];
    size_t window_start = 0;
    if (begin > 0) {
      window_start = static_cast<size_t>(
          std::lower_bound(inner_end_max.begin(), inner_end_max.end(),
                           outer_bounds[begin - 1].begin) -
          inner_end_max.begin());
    }
    for (size_t r = begin; r < end; ++r) {
      const WindowRange window =
          NextWindow(inner_bounds, outer_bounds[r], &window_start, cpu);
      for (size_t i = window.begin; i < window.end; ++i) {
        emit(worker, outer[r], inner[i]);
      }
      if (window_hist != nullptr) window_hist->Record(window.size());
      worker_pairs[worker] += window.size();
    }
    morsel_flush(worker);
  });
  folder.Fold();
  uint64_t emitted = 0;
  for (uint64_t p : worker_pairs) emitted += p;
  if (ctx.progress != nullptr) ctx.progress->AddPairs(emitted);
  if (span.enabled()) {
    span.SetOutputRows(emitted);
    if (est_pairs != TraceNode::kNoCount) {
      span.SetEstimatedRows(est_pairs);
      RecordQError(est_pairs, emitted);
    }
  }
  PublishBatchTally(batch_tallies, &span);
}

/// The decomposed shape of one subquery predicate and its inner block.
struct LinkShape {
  const BoundPredicate* pred = nullptr;
  const BoundQuery* inner = nullptr;
  bool has_link_columns = true;  // false for EXISTS (no linking operand)
  size_t outer_link_col = 0;   // column of R referenced by the lhs
  size_t inner_link_col = 0;   // column of S projected by the inner block
  CompareOp link_op = CompareOp::kEq;
  std::vector<const BoundPredicate*> correlations;

  bool is_aggregate = false;   // kAggCompare
  bool negate_link = false;    // quantifier ALL: f(x) = 1 - x
  bool negate_result = false;  // NOT IN / NOT EXISTS / ALL: g(m) = 1 - m
};

/// Validates and decomposes one subquery predicate. Returns nullopt when
/// the shape is outside what the unnested plans handle (the caller then
/// falls back to the naive evaluator).
std::optional<LinkShape> DecomposeLink(const BoundPredicate& pred) {
  LinkShape shape;
  shape.pred = &pred;
  shape.inner = pred.subquery.get();
  if (shape.inner == nullptr || shape.inner->tables.size() != 1 ||
      !shape.inner->group_by.empty()) {
    return std::nullopt;
  }
  if (shape.inner->has_with && shape.inner->with_threshold > 0.0) {
    return std::nullopt;  // inner WITH: fall back to the naive semantics
  }
  if (pred.subquery->NestingDepth() != 1) return std::nullopt;

  shape.is_aggregate = pred.kind == Predicate::Kind::kAggCompare;
  shape.negate_link = pred.kind == Predicate::Kind::kQuantified &&
                      pred.quantifier == Predicate::Quantifier::kAll;
  shape.negate_result = shape.negate_link || pred.negated;

  if (pred.kind == Predicate::Kind::kExists) {
    shape.has_link_columns = false;
  } else {
    if (!pred.lhs.is_column || pred.lhs.column.up != 0) return std::nullopt;
    shape.outer_link_col = pred.lhs.column.column;
    shape.inner_link_col = shape.inner->select[0].column.column;
    shape.link_op =
        pred.kind == Predicate::Kind::kIn ? CompareOp::kEq : pred.op;
  }

  for (const BoundPredicate& inner_pred : shape.inner->predicates) {
    if (inner_pred.subquery != nullptr) return std::nullopt;
    if (inner_pred.IsLocal()) continue;
    const bool lhs_outer =
        inner_pred.lhs.is_column && inner_pred.lhs.column.up > 0;
    const bool rhs_outer =
        inner_pred.rhs.is_column && inner_pred.rhs.column.up > 0;
    if (lhs_outer == rhs_outer) return std::nullopt;
    const auto& outer_col =
        lhs_outer ? inner_pred.lhs.column : inner_pred.rhs.column;
    if (outer_col.up != 1) return std::nullopt;
    shape.correlations.push_back(&inner_pred);
  }
  return shape;
}

/// One buffered (outer, inner) pair. The pointers reference the
/// caller's stable tuple vectors; `index` is the pair's slot in the
/// caller's per-outer degree vector.
struct PairEntry {
  const FT* r = nullptr;
  const FT* s = nullptr;
  size_t index = 0;
};

/// Reusable per-worker scratch for the batched pair terms: the pending
/// pairs of the current morsel plus operand/degree lanes.
struct PairScratch {
  std::vector<PairEntry> entries;
  TrapezoidBatch lhs;
  TrapezoidBatch rhs;
  std::array<double, TrapezoidBatch::kCapacity> corr;
  std::array<double, TrapezoidBatch::kCapacity> term;
  std::array<double, TrapezoidBatch::kCapacity> result;
  std::array<uint32_t, TrapezoidBatch::kCapacity> active;
};

/// Gathers one pair operand for the active entries: lanes come from
/// the outer tuple (up == 1), the inner tuple (up == 0), or the
/// constant. Returns false when a lane is non-fuzzy (scalar fallback).
bool GatherPairOperand(const BatchOperand& op, const PairEntry* entries,
                       const uint32_t* active, size_t live,
                       TrapezoidBatch* storage, GatheredOperand* out) {
  if (!op.is_column()) {
    out->scalar = op.constant;
    out->batch = nullptr;
    return true;
  }
  const bool from_outer = op.kind == BatchOperand::Kind::kOuterColumn;
  storage->Clear();
  for (size_t j = 0; j < live; ++j) {
    const PairEntry& e = entries[active[j]];
    const Tuple* t = from_outer ? e.r->tuple : e.s->tuple;
    const Value& v = t->ValueAt(op.column);
    if (!v.is_fuzzy()) return false;
    storage->PushBack(v.AsFuzzy());
  }
  out->batch = storage;
  out->scalar = nullptr;
  return true;
}

/// Evaluates and drains one worker's pending pairs: the pair term
/// min(d_S(s), d(corr(r, s)), f(d(r.Y op s.Z))) by the correlation
/// min-fold and the linking comparison, then the max-fold into m[].
/// Correlation lanes drop out at degree 0, and the link is only
/// evaluated for terms still > 0. Concurrent flushes write disjoint m[]
/// slots: a morsel's sorted positions belong to one worker and order[]
/// is a permutation.
void FlushPairBatch(const LinkShape& shape,
                    const std::vector<BatchPredPlan>& corr_plans,
                    const BatchOperand& link_lhs,
                    const BatchOperand& link_rhs, PairScratch* ps,
                    CpuStats* slot, BatchTally* tally, Histogram* fill_hist,
                    std::vector<double>* m) {
  const size_t count = ps->entries.size();
  if (count == 0) return;
  const PairEntry* entries = ps->entries.data();
  double* corr = ps->corr.data();
  double* term = ps->term.data();
  double* res = ps->result.data();
  uint32_t* active = ps->active.data();

  for (size_t k = 0; k < count; ++k) corr[k] = 1.0;
  for (const BatchPredPlan& plan : corr_plans) {
    size_t live = 0;
    for (size_t k = 0; k < count; ++k) {
      active[live] = static_cast<uint32_t>(k);
      live += static_cast<size_t>(corr[k] > 0.0);
    }
    if (live == 0) break;
    bool batched = false;
    if (plan.batchable()) {
      GatheredOperand lhs, rhs;
      batched = GatherPairOperand(*plan.lhs, entries, active, live,
                                  &ps->lhs, &lhs) &&
                GatherPairOperand(*plan.rhs, entries, active, live,
                                  &ps->rhs, &rhs);
      if (batched) {
        RunBatchCompare(lhs, plan.pred->op, rhs, plan.pred->approx_tolerance,
                        res);
        if (slot != nullptr) slot->degree_evaluations += live;
        ++tally->batches;
        tally->rows += live;
        if (fill_hist != nullptr) fill_hist->Record(live);
        for (size_t j = 0; j < live; ++j) {
          const size_t k = active[j];
          corr[k] = std::min(corr[k], res[j]);
        }
      }
    }
    if (!batched) {
      for (size_t j = 0; j < live; ++j) {
        const size_t k = active[j];
        Frames frames;
        frames.push_back({entries[k].r->tuple});
        frames.push_back({entries[k].s->tuple});
        corr[k] = std::min(corr[k], ComparisonDegree(*plan.pred, frames, slot));
      }
    }
  }

  for (size_t k = 0; k < count; ++k) {
    term[k] = std::min(entries[k].s->degree, corr[k]);
  }

  if (shape.has_link_columns) {
    size_t live = 0;
    for (size_t k = 0; k < count; ++k) {
      active[live] = static_cast<uint32_t>(k);
      live += static_cast<size_t>(term[k] > 0.0);
    }
    if (live > 0) {
      GatheredOperand lhs, rhs;
      // The link compares with Value::Compare's default tolerance, 1.0:
      // the predicate's approx_tolerance applies to its direct
      // comparison, not the quantified link.
      const bool batched =
          GatherPairOperand(link_lhs, entries, active, live, &ps->lhs,
                            &lhs) &&
          GatherPairOperand(link_rhs, entries, active, live, &ps->rhs, &rhs);
      if (batched) {
        RunBatchCompare(lhs, shape.link_op, rhs, /*tolerance=*/1.0, res);
        if (slot != nullptr) slot->degree_evaluations += live;
        ++tally->batches;
        tally->rows += live;
        if (fill_hist != nullptr) fill_hist->Record(live);
        for (size_t j = 0; j < live; ++j) {
          const size_t k = active[j];
          const double link = res[j];
          term[k] =
              std::min(term[k], shape.negate_link ? 1.0 - link : link);
        }
      } else {
        for (size_t j = 0; j < live; ++j) {
          const size_t k = active[j];
          const PairEntry& e = entries[k];
          if (slot != nullptr) ++slot->degree_evaluations;
          const double link =
              e.r->tuple->ValueAt(shape.outer_link_col)
                  .Compare(shape.link_op,
                           e.s->tuple->ValueAt(shape.inner_link_col));
          term[k] =
              std::min(term[k], shape.negate_link ? 1.0 - link : link);
        }
      }
    }
  }

  for (size_t k = 0; k < count; ++k) {
    const PairEntry& e = entries[k];
    if (term[k] > (*m)[e.index]) (*m)[e.index] = term[k];
  }
  ps->entries.clear();
}

/// Picks an equality correlation predicate over fuzzy columns usable as
/// the merge-join key. Returns {outer_col, inner_col} or nullopt.
std::optional<std::pair<size_t, size_t>> FindEqualityCorrelationKey(
    const LinkShape& shape, const std::vector<FT>& outer,
    const std::vector<FT>& inner) {
  for (const BoundPredicate* pred : shape.correlations) {
    if (pred->op != CompareOp::kEq) continue;
    const bool lhs_outer = pred->lhs.is_column && pred->lhs.column.up > 0;
    const auto& outer_ref = lhs_outer ? pred->lhs.column : pred->rhs.column;
    const auto& inner_ref = lhs_outer ? pred->rhs.column : pred->lhs.column;
    if ((lhs_outer && (!pred->rhs.is_column || pred->rhs.column.up != 0)) ||
        (!lhs_outer && (!pred->lhs.is_column || pred->lhs.column.up != 0))) {
      continue;  // other side must be a local column
    }
    if (ColumnIsFuzzy(outer, outer_ref.column) &&
        ColumnIsFuzzy(inner, inner_ref.column)) {
      return std::make_pair(outer_ref.column, inner_ref.column);
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------
// Per-outer-tuple degrees of one subquery predicate.
//
// For the IN/quantifier family (Sections 4, 5, 7) the degree of the
// predicate for outer tuple r is
//     g( max_s min(d_S(s), d(corr(r, s)), f(d(r.Y op s.Z))) )
// with f = identity or 1 - x (ALL) and g = identity or 1 - x (negations).
// For the aggregate family (Section 6) it is the T1/T2 pipeline.
// ---------------------------------------------------------------------

/// The human-readable kind of a decomposed subquery predicate, for
/// trace span annotations.
std::string LinkDetail(const LinkShape& shape) {
  const BoundPredicate& pred = *shape.pred;
  switch (pred.kind) {
    case Predicate::Kind::kIn:
      return pred.negated ? "NOT IN" : "IN";
    case Predicate::Kind::kQuantified:
      return pred.quantifier == Predicate::Quantifier::kAll ? "ALL" : "SOME";
    case Predicate::Kind::kExists:
      return pred.negated ? "NOT EXISTS" : "EXISTS";
    case Predicate::Kind::kAggCompare:
      return "AGG";
    case Predicate::Kind::kCompare:
      break;
  }
  return "compare";
}

/// IN / NOT IN / SOME / ALL / EXISTS / NOT EXISTS.
Result<std::vector<double>> InFamilyDegrees(const std::vector<FT>& outer,
                                            const LinkShape& shape,
                                            const ParallelContext& ctx,
                                            CpuStats* cpu,
                                            ExecTrace* trace) {
  TraceScope span(trace, "subquery", cpu, nullptr, LinkDetail(shape));
  span.SetInputRows(outer.size());
  std::vector<FT> inner = FilterBlock(*shape.inner, ctx, cpu, trace);
  // FilterBlock/MergeWindow stop dispatching morsels on a governed stop,
  // leaving partial output; surface the stop before using it.
  FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
  std::vector<double> m(outer.size(), 0.0);

  // Both pairing paths below evaluate their pair terms batch-at-a-time
  // through FlushPairBatch.
  const size_t batch = EffectiveBatchSize(ctx);
  std::vector<BatchPredPlan> corr_plans;
  for (const BoundPredicate* pred : shape.correlations) {
    BatchPredPlan plan;
    plan.pred = pred;
    plan.lhs = ResolveBatchOperand(pred->lhs, /*allow_outer=*/true);
    plan.rhs = ResolveBatchOperand(pred->rhs, /*allow_outer=*/true);
    corr_plans.push_back(plan);
  }
  BatchOperand link_lhs;
  link_lhs.kind = BatchOperand::Kind::kOuterColumn;
  link_lhs.column = shape.outer_link_col;
  BatchOperand link_rhs;
  link_rhs.kind = BatchOperand::Kind::kLocalColumn;
  link_rhs.column = shape.inner_link_col;
  EngineMetrics* metrics = EngineMetrics::IfEnabled();
  Histogram* fill_hist = metrics == nullptr ? nullptr : metrics->batch_fill;

  const bool link_is_eq_fuzzy =
      shape.has_link_columns && shape.link_op == CompareOp::kEq &&
      ColumnIsFuzzy(outer, shape.outer_link_col) &&
      ColumnIsFuzzy(inner, shape.inner_link_col);
  // Windowing on the linking predicate is sound only when out-of-window
  // pairs contribute nothing, i.e. f(0) = 0 -- not for ALL, whose f(0)=1.
  const bool can_window_on_link = link_is_eq_fuzzy && !shape.negate_link;
  const auto corr_key = FindEqualityCorrelationKey(shape, outer, inner);

  if (can_window_on_link || corr_key.has_value()) {
    const size_t outer_key =
        can_window_on_link ? shape.outer_link_col : corr_key->first;
    const size_t inner_key =
        can_window_on_link ? shape.inner_link_col : corr_key->second;
    // Sort an index view of the outer so the caller's ordering (and the
    // degree vector's indexing) is untouched.
    std::vector<size_t> order(outer.size());
    std::iota(order.begin(), order.end(), 0);
    {
      TraceScope sort_span(trace, "interval-sort", cpu, nullptr,
                           "outer-view col" + std::to_string(outer_key));
      sort_span.SetInputRows(outer.size());
      sort_span.SetThreads(WorkerSlots(ctx));
      uint64_t order_comparisons = 0;
      FUZZYDB_RETURN_IF_ERROR(ParallelSort(
          ctx, &order, cpu == nullptr ? nullptr : &order_comparisons,
          [&outer, outer_key](uint64_t* count) {
            return [&outer, outer_key, count](size_t a, size_t b) {
              ++*count;
              return IntervalOrderLess(
                  outer[a].tuple->ValueAt(outer_key).AsFuzzy(),
                  outer[b].tuple->ValueAt(outer_key).AsFuzzy());
            };
          }));
      if (cpu != nullptr) cpu->comparisons += order_comparisons;
    }
    std::vector<FT> sorted_outer(outer.size());
    for (size_t i = 0; i < order.size(); ++i) sorted_outer[i] = outer[order[i]];
    FUZZYDB_RETURN_IF_ERROR(SortByIntervalOrder(
        &inner, inner_key, ctx, cpu, trace, shape.inner->tables[0].relation));

    // Each sorted position belongs to exactly one morsel and order[] is a
    // permutation, so concurrent workers write disjoint m[idx] slots.
    std::vector<CpuStats> worker_cpu(WorkerSlots(ctx));
    const FT* base = sorted_outer.data();
    std::vector<BatchTally> tallies(WorkerSlots(ctx));
    std::vector<std::unique_ptr<PairScratch>> pair_scratch(WorkerSlots(ctx));
    // Buffer window pairs per worker and evaluate them batch-at-a-time;
    // the morsel flush drains remainders so batches never span a morsel
    // and the batch decomposition stays thread-invariant.
    auto emit = [&](size_t worker, const FT& r, const FT& s) {
      std::unique_ptr<PairScratch>& ps = pair_scratch[worker];
      if (ps == nullptr) {
        ps = std::make_unique<PairScratch>();
        ps->entries.reserve(batch);
      }
      ps->entries.push_back(
          PairEntry{&r, &s, order[static_cast<size_t>(&r - base)]});
      if (ps->entries.size() >= batch) {
        FlushPairBatch(shape, corr_plans, link_lhs, link_rhs, ps.get(),
                       cpu == nullptr ? nullptr : &worker_cpu[worker],
                       &tallies[worker], fill_hist, &m);
      }
    };
    auto morsel_flush = [&](size_t worker) {
      if (pair_scratch[worker] != nullptr) {
        FlushPairBatch(shape, corr_plans, link_lhs, link_rhs,
                       pair_scratch[worker].get(),
                       cpu == nullptr ? nullptr : &worker_cpu[worker],
                       &tallies[worker], fill_hist, &m);
      }
    };
    // Planner estimate for the window: |outer| times the overlap
    // fanout predicted by the key columns' support-corner summaries --
    // the statistics replacement for the paper's "known" C.
    uint64_t est_pairs = TraceNode::kNoCount;
    if (trace != nullptr && ctx.cost_based) {
      const ColumnStats outer_stats = BuildKeyStats(sorted_outer, outer_key);
      const ColumnStats inner_stats = BuildKeyStats(inner, inner_key);
      est_pairs = RoundEstimate(
          static_cast<double>(sorted_outer.size()) *
          EstimateOverlapFanout(outer_stats, inner_stats));
    }
    MergeWindow(sorted_outer, outer_key, inner, inner_key, ctx,
                cpu == nullptr ? nullptr : &worker_cpu, cpu, trace, emit,
                morsel_flush, tallies, est_pairs);
    FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
  } else if (shape.correlations.empty() && !shape.has_link_columns) {
    // Uncorrelated EXISTS: a constant -- the possibility that the inner
    // block is non-empty.
    double m_const = 0.0;
    for (const FT& s : inner) m_const = std::max(m_const, s.degree);
    std::fill(m.begin(), m.end(), m_const);
  } else if (shape.correlations.empty()) {
    // Uncorrelated, non-mergeable link (e.g. op ALL without correlation):
    // materialize the inner fuzzy set once -- the paper's intermediate
    // relation optimization for type N -- and probe it per outer tuple.
    TraceScope probe_span(trace, "probe-materialized", cpu, nullptr);
    probe_span.SetInputRows(outer.size());
    PhaseScope phase(ctx.progress, QueryPhase::kJoin);
    Relation t("", shape.inner->output_schema);
    for (const FT& s : inner) {
      FUZZYDB_RETURN_IF_ERROR(t.AppendOrMax(
          Tuple({s.tuple->ValueAt(shape.inner_link_col)}, s.degree)));
    }
    for (size_t i = 0; i < outer.size(); ++i) {
      FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
      const Value& v = outer[i].tuple->ValueAt(shape.outer_link_col);
      double m_r = 0.0;
      for (const Tuple& z : t.tuples()) {
        if (cpu != nullptr) {
          ++cpu->tuple_pairs;
          ++cpu->degree_evaluations;
        }
        const double link = v.Compare(shape.link_op, z.ValueAt(0));
        m_r = std::max(m_r, std::min(z.degree(),
                                     shape.negate_link ? 1.0 - link : link));
      }
      m[i] = m_r;
    }
  } else {
    // Correlated but no usable merge key: unnested full pairing.
    TraceScope pairing_span(trace, "nested-pairing", cpu, nullptr,
                            "inner=" + std::to_string(inner.size()));
    pairing_span.SetInputRows(outer.size());
    PhaseScope phase(ctx.progress, QueryPhase::kJoin);
    auto ps = std::make_unique<PairScratch>();
    ps->entries.reserve(batch);
    BatchTally tally;
    for (size_t i = 0; i < outer.size(); ++i) {
      FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
      if (cpu != nullptr) cpu->tuple_pairs += inner.size();
      for (const FT& s : inner) {
        ps->entries.push_back(PairEntry{&outer[i], &s, i});
        if (ps->entries.size() >= batch) {
          FlushPairBatch(shape, corr_plans, link_lhs, link_rhs, ps.get(), cpu,
                         &tally, fill_hist, &m);
        }
      }
    }
    FlushPairBatch(shape, corr_plans, link_lhs, link_rhs, ps.get(), cpu,
                   &tally, fill_hist, &m);
    PublishBatchTally({tally}, &pairing_span);
  }

  std::vector<double> degrees(outer.size());
  for (size_t i = 0; i < outer.size(); ++i) {
    degrees[i] = shape.negate_result ? 1.0 - m[i] : m[i];
  }
  return degrees;
}

/// Aggregate subqueries (Section 6): types A and JA, COUNT included.
Result<std::vector<double>> AggregateFamilyDegrees(
    const std::vector<FT>& outer, const LinkShape& shape,
    const ParallelContext& ctx, CpuStats* cpu, ExecTrace* trace) {
  const sql::AggFunc agg = shape.inner->select[0].agg;
  TraceScope span(trace, "subquery", cpu, nullptr,
                  std::string("AGG ") + sql::AggFuncName(agg));
  span.SetInputRows(outer.size());
  std::vector<double> degrees(outer.size(), 0.0);

  if (shape.correlations.empty()) {
    // Type A: the inner block is a constant scalar; evaluate it once --
    // and, being uncorrelated, it is the ideal inner-block cache entry:
    // the same scalar serves every future query over the same relation
    // version.
    Relation t2;
    std::string cache_key;
    std::vector<uint64_t> cache_deps;
    bool from_cache = false;
    if (CacheOn(ctx)) {
      cache_key = "ares|" + PlanFingerprint(*shape.inner,
                                            /*include_threshold=*/true,
                                            &cache_deps);
      if (auto cached = ctx.cache->LookupResult(cache_key, 0.0)) {
        t2 = *cached;
        from_cache = true;
        span.SetDetail(std::string("AGG ") + sql::AggFuncName(agg) +
                       " (cached)");
      }
    }
    if (!from_cache) {
      NaiveEvaluator naive(cpu, trace, ctx.query);
      FUZZYDB_ASSIGN_OR_RETURN(t2, naive.Evaluate(*shape.inner));
      if (!cache_key.empty()) {
        ctx.cache->InsertResult(cache_key, 0.0,
                                std::make_shared<Relation>(t2),
                                std::move(cache_deps), CacheBudget(ctx));
      }
    }
    for (size_t i = 0; i < outer.size(); ++i) {
      if (t2.Empty()) continue;
      if (cpu != nullptr) ++cpu->degree_evaluations;
      degrees[i] =
          std::min(t2.TupleAt(0).degree(),
                   outer[i].tuple->ValueAt(shape.outer_link_col)
                       .Compare(shape.link_op, t2.TupleAt(0).ValueAt(0)));
    }
    return degrees;
  }

  // Type JA: exactly one correlation predicate S.V op2 R.U.
  if (shape.correlations.size() != 1) {
    return Status::Unsupported("JA plan requires one correlation predicate");
  }
  const BoundPredicate& corr = *shape.correlations[0];
  const bool lhs_outer = corr.lhs.is_column && corr.lhs.column.up > 0;
  const size_t u_col = (lhs_outer ? corr.lhs.column : corr.rhs.column).column;
  const size_t v_col = (lhs_outer ? corr.rhs.column : corr.lhs.column).column;

  auto corr_degree = [&](const Value& u, const Value& v) {
    if (cpu != nullptr) ++cpu->degree_evaluations;
    return lhs_outer ? u.Compare(corr.op, v) : v.Compare(corr.op, u);
  };

  // T1: the distinct R.U values (binary value identity), degree 1.
  std::map<Value, char, ValueLess> t1;
  for (const FT& r : outer) t1.emplace(r.tuple->ValueAt(u_col), 0);

  std::vector<FT> inner = FilterBlock(*shape.inner, ctx, cpu, trace);
  FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));

  // T2: u -> A'(u) with degree D(A'(u)), built by grouping T1 |x| S on u
  // and applying AGG per group (pipelined in the paper).
  std::map<Value, AggregateResult, ValueLess> t2;
  const bool mergeable = corr.op == CompareOp::kEq &&
                         ColumnIsFuzzy(inner, v_col) && [&] {
                           for (const auto& [u, unused] : t1) {
                             if (!u.is_fuzzy()) return false;
                           }
                           return true;
                         }();

  auto aggregate_group = [&](const Value& u, const Relation& group) -> Status {
    if (group.Empty()) return Status::OK();
    FUZZYDB_ASSIGN_OR_RETURN(AggregateResult a, ApplyAggregate(agg, group));
    if (!a.value.is_null()) t2.emplace(u, std::move(a));
    return Status::OK();
  };

  if (mergeable) {
    TraceScope group_span(trace, "group-aggregate", cpu, nullptr,
                          "merge t1=" + std::to_string(t1.size()));
    group_span.SetInputRows(inner.size());
    PhaseScope phase(ctx.progress, QueryPhase::kJoin);
    std::vector<Value> t1_sorted;
    t1_sorted.reserve(t1.size());
    for (const auto& [u, unused] : t1) t1_sorted.push_back(u);
    std::sort(t1_sorted.begin(), t1_sorted.end(),
              [cpu](const Value& x, const Value& y) {
                if (cpu != nullptr) ++cpu->comparisons;
                return IntervalOrderLess(x.AsFuzzy(), y.AsFuzzy());
              });
    FUZZYDB_RETURN_IF_ERROR(SortByIntervalOrder(
        &inner, v_col, ctx, cpu, trace, shape.inner->tables[0].relation));
    const std::vector<SupportBounds> u_bounds = HoistSupportBounds(
        t1_sorted, [](const Value& u) -> const Trapezoid& {
          return u.AsFuzzy();
        });
    const std::vector<SupportBounds> v_bounds = HoistKeyBounds(inner, v_col);
    size_t window_start = 0;
    for (size_t j = 0; j < t1_sorted.size(); ++j) {
      FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
      const Value& u = t1_sorted[j];
      const WindowRange window =
          NextWindow(v_bounds, u_bounds[j], &window_start, cpu);
      Relation group("", Schema{Column{"Z", ValueType::kFuzzy}});
      for (size_t i = window.begin; i < window.end; ++i) {
        const double d = std::min(
            inner[i].degree, corr_degree(u, inner[i].tuple->ValueAt(v_col)));
        if (d > 0.0) {
          FUZZYDB_RETURN_IF_ERROR(group.AppendOrMax(
              Tuple({inner[i].tuple->ValueAt(shape.inner_link_col)}, d)));
        }
      }
      FUZZYDB_RETURN_IF_ERROR(aggregate_group(u, group));
    }
    group_span.SetOutputRows(t2.size());
  } else {
    TraceScope group_span(trace, "group-aggregate", cpu, nullptr,
                          "nested t1=" + std::to_string(t1.size()));
    group_span.SetInputRows(inner.size());
    PhaseScope phase(ctx.progress, QueryPhase::kJoin);
    for (const auto& [u, unused] : t1) {
      FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
      Relation group("", Schema{Column{"Z", ValueType::kFuzzy}});
      for (const FT& s : inner) {
        if (cpu != nullptr) ++cpu->tuple_pairs;
        const double d =
            std::min(s.degree, corr_degree(u, s.tuple->ValueAt(v_col)));
        if (d > 0.0) {
          FUZZYDB_RETURN_IF_ERROR(group.AppendOrMax(
              Tuple({s.tuple->ValueAt(shape.inner_link_col)}, d)));
        }
      }
      FUZZYDB_RETURN_IF_ERROR(aggregate_group(u, group));
    }
  }

  // Back-join R with T2 on binary value identity; for COUNT the left
  // outer join's else-arm compares against 0 (Query COUNT').
  const Value zero = Value::Number(0.0);
  for (size_t i = 0; i < outer.size(); ++i) {
    const Value& u = outer[i].tuple->ValueAt(u_col);
    const Value& y = outer[i].tuple->ValueAt(shape.outer_link_col);
    auto it = t2.find(u);
    if (it != t2.end()) {
      if (cpu != nullptr) ++cpu->degree_evaluations;
      degrees[i] = std::min(it->second.degree,
                            y.Compare(shape.link_op, it->second.value));
    } else if (agg == sql::AggFunc::kCount) {
      if (cpu != nullptr) ++cpu->degree_evaluations;
      degrees[i] = y.Compare(shape.link_op, zero);
    }
  }
  return degrees;
}

/// Degrees of one subquery predicate for every outer tuple.
Result<std::vector<double>> SubqueryPredicateDegrees(
    const std::vector<FT>& outer, const BoundPredicate& pred,
    const ParallelContext& ctx, CpuStats* cpu, ExecTrace* trace) {
  auto shape = DecomposeLink(pred);
  if (!shape.has_value()) {
    return Status::Unsupported("subquery shape outside the unnested plans");
  }
  return shape->is_aggregate
             ? AggregateFamilyDegrees(outer, *shape, ctx, cpu, trace)
             : InFamilyDegrees(outer, *shape, ctx, cpu, trace);
}

/// Projects the outer block's SELECT columns of tuple r with degree d.
Status EmitAnswer(const BoundQuery& query, const Tuple& r, double d,
                  Relation* out) {
  if (d <= 0.0) return Status::OK();
  std::vector<Value> values;
  values.reserve(query.select.size());
  for (const auto& item : query.select) {
    values.push_back(r.ValueAt(item.column.column));
  }
  return out->Append(Tuple(std::move(values), d));
}

/// All 2-level types plus queries with several independent subquery
/// predicates: filter the outer block once, evaluate each subquery
/// predicate to a per-tuple degree vector, fold by min.
Result<Relation> RunTwoLevel(const BoundQuery& query,
                             const ParallelContext& ctx, CpuStats* cpu,
                             ExecTrace* trace) {
  if (query.tables.size() != 1 || !query.group_by.empty()) {
    return Status::Unsupported("outer block shape outside the unnested plan");
  }
  std::vector<FT> outer = FilterBlock(query, ctx, cpu, trace);
  FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
  std::vector<double> combined(outer.size(), 1.0);
  for (const BoundPredicate& pred : query.predicates) {
    if (pred.subquery == nullptr) {
      if (!pred.IsLocal()) {
        return Status::Unsupported("non-local outer predicate");
      }
      continue;  // already folded by FilterBlock
    }
    FUZZYDB_ASSIGN_OR_RETURN(
        std::vector<double> degrees,
        SubqueryPredicateDegrees(outer, pred, ctx, cpu, trace));
    for (size_t i = 0; i < outer.size(); ++i) {
      combined[i] = std::min(combined[i], degrees[i]);
    }
  }

  TraceScope emit_span(trace, "emit", cpu, nullptr);
  emit_span.SetInputRows(outer.size());
  PhaseScope phase(ctx.progress, QueryPhase::kEmit);
  Relation answer("", query.output_schema);
  for (size_t i = 0; i < outer.size(); ++i) {
    FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
    FUZZYDB_RETURN_IF_ERROR(
        EmitAnswer(query, *outer[i].tuple,
                   std::min(outer[i].degree, combined[i]), &answer));
  }
  answer.EliminateDuplicates(query.with_threshold);
  emit_span.SetOutputRows(answer.NumTuples());
  if (ctx.progress != nullptr) ctx.progress->AddRows(answer.NumTuples());
  return answer;
}

/// Degree of `pred`, which lives in chain block `block_of_pred`, against
/// the per-level tuple slots (single-table blocks, so the table index is
/// always 0). Both endpoints must already be joined (non-null).
double ChainPredicateDegree(const BoundPredicate& pred, size_t block_of_pred,
                            const std::vector<const Tuple*>& tuples,
                            CpuStats* cpu) {
  auto value_of = [&](const BoundOperand& operand) -> const Value& {
    if (!operand.is_column) return operand.constant;
    return tuples[block_of_pred - static_cast<size_t>(operand.column.up)]
        ->ValueAt(operand.column.column);
  };
  if (cpu != nullptr) ++cpu->degree_evaluations;
  return value_of(pred.lhs).Compare(pred.op, value_of(pred.rhs),
                                    pred.approx_tolerance);
}

/// K-level chain queries (Section 8): flat K-way join. With
/// ctx.cost_based the join order is chosen by the interval DP of
/// join_order.h over estimated link selectivities (the paper's "optimal
/// join order ... determined by a dynamic programming method");
/// otherwise levels join outermost-to-innermost.
Result<Relation> RunChain(const BoundQuery& query, const ParallelContext& ctx,
                          CpuStats* cpu, ExecTrace* trace,
                          std::vector<size_t>* chosen_order) {
  std::vector<const BoundQuery*> blocks;
  std::vector<const BoundPredicate*> links;  // links[k]: block k -> k+1
  const BoundQuery* block = &query;
  while (true) {
    if (block->tables.size() != 1 || !block->group_by.empty()) {
      return Status::Unsupported("chain block shape");
    }
    if (block->has_with && block != &query && block->with_threshold > 0.0) {
      return Status::Unsupported("inner WITH threshold in chain");
    }
    blocks.push_back(block);
    const BoundPredicate* link = nullptr;
    for (const BoundPredicate& pred : block->predicates) {
      if (pred.subquery != nullptr) {
        if (link != nullptr) return Status::Unsupported("multiple subqueries");
        link = &pred;
      }
    }
    if (link == nullptr) break;
    if (link->kind != Predicate::Kind::kIn || link->negated ||
        !link->lhs.is_column || link->lhs.column.up != 0) {
      return Status::Unsupported("chain link shape");
    }
    links.push_back(link);
    block = link->subquery.get();
  }
  const size_t k_levels = blocks.size();

  // Filtered inputs per level.
  std::vector<std::vector<FT>> filtered(k_levels);
  for (size_t k = 0; k < k_levels; ++k) {
    filtered[k] = FilterBlock(*blocks[k], ctx, cpu, trace);
    FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
    if (filtered[k].empty()) {
      // An empty level zeroes every chain of links below the outermost
      // block; the answer is empty.
      Relation answer("", query.output_schema);
      return answer;
    }
  }

  // Key columns of link edge e (between levels e and e+1).
  auto edge_outer_col = [&](size_t e) { return links[e]->lhs.column.column; };
  auto edge_inner_col = [&](size_t e) {
    return blocks[e + 1]->select[0].column.column;
  };

  // Correlation predicates per block (non-local, non-subquery).
  std::vector<std::vector<const BoundPredicate*>> correlations(k_levels);
  for (size_t k = 0; k < k_levels; ++k) {
    for (const BoundPredicate& pred : blocks[k]->predicates) {
      if (pred.subquery == nullptr && !pred.IsLocal()) {
        correlations[k].push_back(&pred);
      }
    }
  }

  // ---- Join-order planning ------------------------------------------
  // cost_based: per-edge column summaries feed the DP's selectivities,
  // the per-step cardinality estimates, and the merge-vs-nested cost
  // decisions. Otherwise (--no-cbo) levels join in identity order, every
  // step merges where legal, and nothing is estimated. Any order yields
  // the same fuzzy answer (see join_order.h).
  std::vector<size_t> order(k_levels);
  std::iota(order.begin(), order.end(), 0);

  std::vector<ColumnStats> edge_outer_stats;  // filtered[e] at its link col
  std::vector<ColumnStats> edge_inner_stats;  // filtered[e+1] at its key col
  ChainStats est_stats;
  if (ctx.cost_based && k_levels > 1) {
    for (size_t k = 0; k < k_levels; ++k) {
      est_stats.cardinality.push_back(static_cast<double>(filtered[k].size()));
    }
    for (size_t e = 0; e + 1 < k_levels; ++e) {
      edge_outer_stats.push_back(
          BuildKeyStats(filtered[e], edge_outer_col(e)));
      edge_inner_stats.push_back(
          BuildKeyStats(filtered[e + 1], edge_inner_col(e)));
      est_stats.selectivity.push_back(std::max(
          1e-6,
          EstimateJoinSelectivity(edge_outer_stats[e], edge_inner_stats[e])));
    }
    if (k_levels > 2) {
      TraceScope plan_span(trace, "plan-join-order", cpu, nullptr,
                           "levels=" + std::to_string(k_levels));
      order = PlanChainJoinOrder(est_stats).levels;
      if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
        m->planner_plans->Add();
      }
    }
  }
  if (chosen_order != nullptr) *chosen_order = order;

  // ---- Execution in the chosen contiguous order ----------------------
  struct Row {
    std::vector<const Tuple*> tuples;  // one slot per level; null = unjoined
    double degree;
  };

  std::vector<Row> rows;
  size_t joined_lo = order[0], joined_hi = order[0];
  for (const FT& ft : filtered[order[0]]) {
    Row row{std::vector<const Tuple*>(k_levels, nullptr), ft.degree};
    row.tuples[order[0]] = ft.tuple;
    rows.push_back(std::move(row));
  }

  for (size_t step = 1; step < k_levels; ++step) {
    const size_t level = order[step];
    TraceScope step_span(trace, "chain-join", cpu, nullptr,
                         "level=" + std::to_string(level));
    step_span.SetInputRows(rows.size());
    PhaseScope step_phase(ctx.progress, QueryPhase::kJoin);
    const bool extend_left = level + 1 == joined_lo;
    if (!extend_left && level != joined_hi + 1) {
      return Status::Internal("non-contiguous chain join order");
    }
    const size_t edge = extend_left ? level : joined_hi;
    // Row-side and new-side key columns for this edge.
    const size_t row_level = extend_left ? edge + 1 : edge;
    const size_t row_col =
        extend_left ? edge_inner_col(edge) : edge_outer_col(edge);
    const size_t new_col =
        extend_left ? edge_outer_col(edge) : edge_inner_col(edge);

    std::vector<FT> incoming = filtered[level];

    // Predicates becoming evaluable with this level joined: those of
    // block b referencing block b-up, where one endpoint is `level` and
    // the other is already joined.
    std::vector<std::pair<const BoundPredicate*, size_t>> newly_applicable;
    for (size_t b = 0; b < k_levels; ++b) {
      for (const BoundPredicate* pred : correlations[b]) {
        const int up = pred->lhs.is_column && pred->lhs.column.up > 0
                           ? pred->lhs.column.up
                           : pred->rhs.column.up;
        const size_t other = b - static_cast<size_t>(up);
        const bool involves_level = b == level || other == level;
        if (!involves_level) continue;
        const size_t partner = b == level ? other : b;
        if (partner >= joined_lo && partner <= joined_hi) {
          newly_applicable.emplace_back(pred, b);
        }
      }
    }

    std::vector<Row> joined;
    auto join_pair = [&](const Row& row, const FT& s) -> Status {
      double d = std::min(row.degree, s.degree);
      if (d <= 0.0) return Status::OK();
      if (cpu != nullptr) ++cpu->degree_evaluations;
      d = std::min(d, row.tuples[row_level]->ValueAt(row_col).Compare(
                          CompareOp::kEq, s.tuple->ValueAt(new_col)));
      if (d <= 0.0) return Status::OK();
      Row next = row;
      next.tuples[level] = s.tuple;
      for (const auto& [pred, b] : newly_applicable) {
        if (d <= 0.0) break;
        d = std::min(d, ChainPredicateDegree(*pred, b, next.tuples, cpu));
      }
      if (d <= 0.0) return Status::OK();
      next.degree = d;
      joined.push_back(std::move(next));
      return Status::OK();
    };

    auto rows_key_fuzzy = [&]() {
      for (const Row& row : rows) {
        if (!row.tuples[row_level]->ValueAt(row_col).is_fuzzy()) return false;
      }
      return true;
    };

    // Step planning. Fixed rule: merge whenever both key columns are
    // fuzzy. Cost-based: among the legal algorithms, the cheaper one
    // under the cost model, with the expected windowed pairs predicted
    // from the edge's column summaries; the span gets the interval's
    // estimated output cardinality for the q-error loop.
    const bool merge_legal =
        rows_key_fuzzy() && ColumnIsFuzzy(incoming, new_col);
    bool use_merge = merge_legal;
    uint64_t step_est = TraceNode::kNoCount;
    if (ctx.cost_based && !edge_outer_stats.empty()) {
      const ColumnStats& from_stats =
          extend_left ? edge_inner_stats[edge] : edge_outer_stats[edge];
      const ColumnStats& to_stats =
          extend_left ? edge_outer_stats[edge] : edge_inner_stats[edge];
      const double est_pairs =
          static_cast<double>(rows.size()) *
          EstimateOverlapFanout(from_stats, to_stats);
      if (merge_legal) {
        use_merge = ChooseChainStepAlgorithm(rows.size(), incoming.size(),
                                             est_pairs, true) ==
                    JoinAlgorithm::kMergeWindow;
      }
      if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
        (use_merge ? m->planner_merge_steps : m->planner_nested_steps)->Add();
      }
      if (step_span.enabled()) {
        step_est = RoundEstimate(EstimateIntervalSize(
            est_stats, std::min(joined_lo, level),
            std::max(joined_hi, level)));
        step_span.SetEstimatedRows(step_est);
        step_span.SetDetail("level=" + std::to_string(level) +
                            (use_merge ? " alg=merge" : " alg=nested"));
      }
    }

    if (use_merge) {
      auto row_key = [&](const Row& row) -> const Trapezoid& {
        return row.tuples[row_level]->ValueAt(row_col).AsFuzzy();
      };
      std::sort(rows.begin(), rows.end(), [&](const Row& x, const Row& y) {
        if (cpu != nullptr) ++cpu->comparisons;
        return IntervalOrderLess(row_key(x), row_key(y));
      });
      FUZZYDB_RETURN_IF_ERROR(
          SortByIntervalOrder(&incoming, new_col, ctx, cpu, trace,
                              blocks[level]->tables[0].relation));
      const std::vector<SupportBounds> row_bounds =
          HoistSupportBounds(rows, row_key);
      const std::vector<SupportBounds> incoming_bounds =
          HoistKeyBounds(incoming, new_col);
      size_t window_start = 0;
      for (size_t r = 0; r < rows.size(); ++r) {
        FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
        const WindowRange window =
            NextWindow(incoming_bounds, row_bounds[r], &window_start, cpu);
        for (size_t i = window.begin; i < window.end; ++i) {
          FUZZYDB_RETURN_IF_ERROR(join_pair(rows[r], incoming[i]));
        }
      }
    } else {
      for (const Row& row : rows) {
        FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
        for (const FT& s : incoming) {
          if (cpu != nullptr) ++cpu->tuple_pairs;
          FUZZYDB_RETURN_IF_ERROR(join_pair(row, s));
        }
      }
    }
    rows = std::move(joined);
    step_span.SetOutputRows(rows.size());
    if (step_est != TraceNode::kNoCount) RecordQError(step_est, rows.size());
    joined_lo = std::min(joined_lo, level);
    joined_hi = std::max(joined_hi, level);
  }

  TraceScope emit_span(trace, "emit", cpu, nullptr);
  emit_span.SetInputRows(rows.size());
  PhaseScope emit_phase(ctx.progress, QueryPhase::kEmit);
  Relation answer("", query.output_schema);
  for (const Row& row : rows) {
    FUZZYDB_RETURN_IF_ERROR(
        EmitAnswer(query, *row.tuples[0], row.degree, &answer));
  }
  answer.EliminateDuplicates(query.with_threshold);
  emit_span.SetOutputRows(answer.NumTuples());
  if (ctx.progress != nullptr) ctx.progress->AddRows(answer.NumTuples());
  return answer;
}

}  // namespace

UnnestingEvaluator::UnnestingEvaluator(CpuStats* cpu) : cpu_(cpu) {}

UnnestingEvaluator::UnnestingEvaluator(const ExecOptions& options,
                                       CpuStats* cpu)
    : cpu_(cpu), options_(options) {}

UnnestingEvaluator::~UnnestingEvaluator() = default;

ParallelContext UnnestingEvaluator::MakeContext() {
  ParallelContext ctx;
  ctx.query = options_.context;
  ctx.cache = options_.cache;
  ctx.morsel_size = options_.morsel_size == 0 ? 1 : options_.morsel_size;
  ctx.batch_size = options_.batch_size;
  ctx.cost_based = options_.cost_based;
  ctx.progress = options_.progress;
  const size_t threads = options_.ResolvedThreads();
  if (threads > 1) {
    if (pool_ == nullptr || pool_->size() != threads) {
      pool_ = std::make_unique<ThreadPool>(threads);
    }
    ctx.pool = pool_.get();
  } else {
    pool_.reset();
  }
  return ctx;
}

Result<Relation> UnnestingEvaluator::Evaluate(const sql::BoundQuery& query) {
  // When the slow-query log or the query journal is armed but the caller
  // didn't ask for a trace, attach a private one for the duration of the
  // query so the EXPLAIN ANALYZE tree (slow log) and the planner's
  // est_rows (journal) are still captured.
  ExecTrace local_trace;
  ExecTrace* const saved_trace = options_.trace;
  const bool slow_log_armed = options_.slow_query_ms > 0.0;
  const bool journal_armed = QueryJournal::Global().enabled();
  if ((slow_log_armed || journal_armed) && options_.trace == nullptr) {
    options_.trace = &local_trace;
  }
  // The journal reports the query's own CpuStats delta; when the caller
  // supplied no accumulator, tally into a private one for the duration.
  CpuStats local_cpu;
  CpuStats* const saved_cpu = cpu_;
  if (journal_armed && cpu_ == nullptr) cpu_ = &local_cpu;
  const CpuStats cpu_before = cpu_ == nullptr ? CpuStats{} : *cpu_;
  uint64_t cache_hits_before = 0;
  uint64_t cache_misses_before = 0;
  if (journal_armed) {
    EngineMetrics* m = EngineMetrics::Instance();
    cache_hits_before = m->cache_hits->Value();
    cache_misses_before = m->cache_misses->Value();
  }
  Stopwatch watch;
  Result<Relation> result = [&] {
    // kPlan is the residual phase: everything EvaluateTraced does
    // outside an operator's own PhaseScope (classification, planning,
    // cache lookups) is charged here, so the phases sum to wall time.
    PhaseScope plan_phase(options_.progress, QueryPhase::kPlan);
    return EvaluateTraced(query);
  }();
  const double elapsed_ms = watch.ElapsedSeconds() * 1e3;

  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->queries_total->Add();
    m->query_latency_us->Record(static_cast<uint64_t>(elapsed_ms * 1e3));
    if (!last_was_unnested_) m->queries_naive_fallback->Add();
    if (!result.ok()) {
      m->queries_failed->Add();
      switch (result.status().code()) {
        case StatusCode::kCancelled:
          m->queries_cancelled->Add();
          break;
        case StatusCode::kDeadlineExceeded:
          m->queries_deadline_exceeded->Add();
          break;
        case StatusCode::kResourceExhausted:
          m->queries_resource_exhausted->Add();
          break;
        default:
          break;
      }
    }
    if (options_.context != nullptr) {
      const uint64_t denied = options_.context->memory().denied_bytes();
      if (denied > 0) m->budget_denied_bytes->Add(denied);
    }
  }
  if (slow_log_armed && elapsed_ms >= options_.slow_query_ms) {
    if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
      m->slow_queries->Add();
    }
    SlowQueryLog::Entry entry;
    entry.query_text = options_.query_text;
    entry.elapsed_ms = elapsed_ms;
    // All spans are closed here (EvaluateTraced returned), so the
    // rendered tree is complete even for failed queries.
    entry.trace_text = options_.trace->ToString();
    SlowQueryLog::Global().Add(std::move(entry));
  }
  if (journal_armed) {
    QueryJournalRecord rec;
    rec.query_id =
        options_.progress == nullptr ? 0 : options_.progress->query_id();
    rec.sql = options_.query_text;
    rec.fingerprint =
        PlanFingerprint(query, /*include_threshold=*/true, nullptr);
    rec.type = QueryTypeName(last_type_);
    rec.engine = last_was_unnested_ ? "unnested" : "naive-fallback";
    switch (result.status().code()) {
      case StatusCode::kOk:
        rec.status = "OK";
        break;
      case StatusCode::kCancelled:
        rec.status = "CANCELLED";
        break;
      case StatusCode::kDeadlineExceeded:
        rec.status = "DEADLINE_EXCEEDED";
        break;
      case StatusCode::kResourceExhausted:
        rec.status = "RESOURCE_EXHAUSTED";
        break;
      default:
        rec.status = "FAILED";
        break;
    }
    if (result.ok()) rec.rows = result.value().NumTuples();
    // The planner's top-most cardinality estimate: the first estimated
    // span in preorder (nodes() append in open order).
    if (options_.trace != nullptr) {
      for (const TraceNode& node : options_.trace->nodes()) {
        if (node.est_rows != TraceNode::kNoCount) {
          rec.has_est_rows = true;
          rec.est_rows = node.est_rows;
          break;
        }
      }
    }
    rec.elapsed_ms = elapsed_ms;
    rec.threads = options_.ResolvedThreads();
    if (options_.progress != nullptr) {
      rec.queue_wait_ms = options_.progress->queue_wait_micros() / 1e3;
      for (size_t i = 0; i < kNumQueryPhases; ++i) {
        rec.phase_micros[i] =
            options_.progress->PhaseMicros(static_cast<QueryPhase>(i));
      }
    }
    if (cpu_ != nullptr) rec.cpu = cpu_->CheckedDelta(cpu_before);
    if (options_.context != nullptr) {
      rec.mem_peak_bytes =
          static_cast<int64_t>(options_.context->memory().peak());
    }
    EngineMetrics* m = EngineMetrics::Instance();
    rec.cache_hits = m->cache_hits->Value() - cache_hits_before;
    rec.cache_misses = m->cache_misses->Value() - cache_misses_before;
    QueryJournal::Global().Append(rec);
  }
  cpu_ = saved_cpu;
  options_.trace = saved_trace;
  return result;
}

Result<Relation> UnnestingEvaluator::EvaluateTraced(
    const sql::BoundQuery& query) {
  // A pre-cancelled or already-expired context never starts executing.
  FUZZYDB_RETURN_IF_ERROR(CheckQuery(options_.context));
  last_type_ = Classify(query);
  last_was_unnested_ = true;
  TraceScope span(options_.trace, "evaluate", cpu_, nullptr,
                  QueryTypeName(last_type_));
  // Whole-query result cache with theta-subsumption: the key excludes the
  // WITH threshold, so one entry (stored at the threshold it was computed
  // at) answers any repeat of the query at an equal or higher threshold
  // by re-filtering. Filtering a deduplicated answer upward is exact:
  // EliminateDuplicates keeps max degrees independently of the threshold,
  // and ApplyThreshold preserves order, so the filtered copy is
  // tuple-for-tuple what a fresh evaluation would produce.
  std::string cache_key;
  std::vector<uint64_t> cache_deps;
  const double theta = query.has_with ? query.with_threshold : 0.0;
  if (options_.cache != nullptr && options_.cache->enabled()) {
    cache_key = "qres|" + PlanFingerprint(query, /*include_threshold=*/false,
                                          &cache_deps);
    if (auto cached = options_.cache->LookupResult(cache_key, theta)) {
      Relation answer = *cached;
      answer.ApplyThreshold(theta);
      last_chain_order_.clear();
      span.SetDetail(std::string(QueryTypeName(last_type_)) + " (cached)");
      span.SetOutputRows(answer.NumTuples());
      return answer;
    }
  }
  Result<Relation> result = EvaluateInType(query, last_type_);
  // Only kUnsupported falls back to the naive evaluator; governance
  // statuses (CANCELLED / DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED) and
  // I/O errors surface as-is.
  if (!result.ok() && result.status().code() == StatusCode::kUnsupported) {
    last_was_unnested_ = false;
    NaiveEvaluator naive(cpu_, options_.trace, options_.context);
    Result<Relation> fallback = naive.Evaluate(query);  // applies ORDER BY
    if (fallback.ok()) span.SetOutputRows(fallback.value().NumTuples());
    return fallback;
  }
  if (result.ok()) {
    ApplyOrderBy(query.order_by, &result.value());
    span.SetOutputRows(result.value().NumTuples());
    // Only unnested successes are cached: the fallback already has its
    // own cost profile and re-classification is deterministic, so a
    // future hit can only occur for a query this evaluator answered.
    if (!cache_key.empty() && last_was_unnested_) {
      options_.cache->InsertResult(cache_key, theta,
                                   std::make_shared<Relation>(result.value()),
                                   std::move(cache_deps), options_.context);
    }
  }
  return result;
}

Result<Relation> UnnestingEvaluator::EvaluateInType(
    const sql::BoundQuery& query, QueryType type) {
  switch (type) {
    case QueryType::kFlat:
    case QueryType::kGeneral:
      return Status::Unsupported("no unnested plan for this type");
    case QueryType::kTypeN:
    case QueryType::kTypeJ:
    case QueryType::kTypeNX:
    case QueryType::kTypeJX:
    case QueryType::kTypeSOME:
    case QueryType::kTypeJSOME:
    case QueryType::kTypeALL:
    case QueryType::kTypeJALL:
    case QueryType::kTypeEXISTS:
    case QueryType::kTypeJEXISTS:
    case QueryType::kTypeA:
    case QueryType::kTypeJA:
    case QueryType::kTypeMulti:
      return RunTwoLevel(query, MakeContext(), cpu_, options_.trace);
    case QueryType::kChain:
      last_chain_order_.clear();
      return RunChain(query, MakeContext(), cpu_, options_.trace,
                      &last_chain_order_);
  }
  return Status::Internal("unhandled query type");
}

}  // namespace fuzzydb
