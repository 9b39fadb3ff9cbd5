#include "engine/unnested_evaluator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <numeric>
#include <optional>

#include <memory>

#include "cache/cache_manager.h"
#include "cache/plan_fingerprint.h"
#include "common/query_context.h"
#include "engine/aggregate.h"
#include "engine/cost_model.h"
#include "engine/degree_fold.h"
#include "engine/distinct_bindings.h"
#include "engine/join_order.h"
#include "engine/pair_join.h"
#include "stats/column_stats.h"
#include "engine/naive_evaluator.h"
#include "engine/semantics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "fuzzy/trapezoid_batch.h"
#include "obs/metrics.h"
#include "obs/op_scope.h"
#include "obs/query_journal.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace fuzzydb {

namespace {

using sql::BoundOperand;
using sql::BoundPredicate;
using sql::BoundQuery;
using sql::Predicate;

// ---------------------------------------------------------------------
// Batch execution (docs/architecture.md, "Batch execution").
//
// The filter stage and the pair terms are sequences of degree folds
// (engine/degree_fold.h) over chunks of up to batch_size lanes: a lane
// leaves at degree 0 and degree_evaluations advances once per lane
// still in the fold, so results, CpuStats and trace counters are
// identical for every ExecOptions::batch_size -- only wall time
// changes. Chunks are cut inside morsels and never span one, so the
// chunk decomposition, like the morsel decomposition, is independent
// of thread count.
// ---------------------------------------------------------------------

/// The fold side of a bound operand. The unnested plans admit only
/// single-table blocks, so a column names the lane's own tuple (up == 0)
/// or, in a correlation predicate, the enclosing tuple (up == 1).
FoldOperand ToFoldOperand(const BoundOperand& op) {
  if (!op.is_column) return FoldOperand::Constant(op.constant);
  assert(op.column.table == 0 && op.column.up <= 1);
  return op.column.up == 0 ? FoldOperand::Local(op.column.column)
                           : FoldOperand::Outer(op.column.column);
}

/// The fold step of comparison predicate `pred`.
FoldTerm ToFoldTerm(const BoundPredicate& pred) {
  return FoldTerm{ToFoldOperand(pred.lhs), pred.op, ToFoldOperand(pred.rhs),
                  pred.approx_tolerance};
}

/// Filters one chunk of `count` tuples, appending survivors (in scan
/// order) to *out. Each tuple's degree is min(mu(t), d(p) for every
/// local predicate p): lanes start at mu(t), then one fold per predicate.
/// A survivor's degree is > 0 and >= cut.
void FilterChunk(const std::vector<FoldTerm>& terms, double cut,
                 const Tuple* tuples, size_t count, FoldScratch* scratch,
                 CpuStats* slot, BatchTally* tally, std::vector<FT>* out) {
  double* degree = scratch->degree.data();
  for (size_t k = 0; k < count; ++k) degree[k] = tuples[k].degree();
  const auto lanes = [tuples](size_t k) { return LaneTuples{&tuples[k]}; };
  FoldComparisons(lanes, count, terms, scratch, slot, tally);
  for (size_t k = 0; k < count; ++k) {
    if (degree[k] > 0.0 && degree[k] >= cut) {
      out->push_back(FT{&tuples[k], degree[k]});
    }
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

/// Builds the summary of fuzzy column `col` over a filtered vector, as a
/// keyed pair join at `cut` windows it: on each value's KeyBounds (its
/// support at cut 0, the summaries' own input).
ColumnStats BuildKeyStats(const std::vector<FT>& tuples, size_t col,
                          double cut) {
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->planner_stats_builds->Add();
  }
  std::vector<Trapezoid> values;
  values.reserve(tuples.size());
  for (const FT& ft : tuples) {
    const Value& v = ft.tuple->ValueAt(col);
    if (!v.is_fuzzy()) continue;
    const SupportBounds bounds = KeyBounds(v.AsFuzzy(), cut);
    values.push_back(Trapezoid::Interval(
        bounds.begin, std::max(bounds.begin, bounds.end)));
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

/// Planner estimate of a filter block's survivors at `cut`: relation
/// rows times the product of per-predicate selectivities and, under a
/// cut, times the share of tuples whose membership degree reaches it.
/// Only column-vs-fuzzy-constant comparisons are estimable from the
/// summaries; other local predicates contribute selectivity 1 (keep
/// everything).
uint64_t EstimateFilterRows(const BoundQuery& block, size_t n, double cut) {
  if (n == 0) return 0;
  const Relation& rel = *block.tables[0].relation;
  double selectivity = 1.0;
  if (cut > 0.0) {
    const auto reaching =
        std::count_if(rel.tuples().begin(), rel.tuples().end(),
                      [cut](const Tuple& t) { return t.degree() >= cut; });
    selectivity = static_cast<double>(reaching) / static_cast<double>(n);
  }
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
/// With `cut` > 0 it keeps only tuples of degree >= cut: the caller's
/// WITH threshold, where no tuple below it can reach the answer.
/// Morsels are filtered in parallel into per-morsel vectors concatenated
/// in morsel order, so the output (and, with per-worker stats folded at
/// the barrier, the counters) match the serial scan exactly.
std::vector<FT> FilterBlock(const BoundQuery& block, double cut,
                            const ParallelContext& ctx, CpuStats* cpu,
                            ExecTrace* trace) {
  const Relation& rel = *block.tables[0].relation;
  const std::string detail =
      cut > 0.0 ? rel.name() + " cut=" + FormatDouble(cut) : rel.name();
  OpScope op(Op::kFilter, trace, ctx.progress, cpu, nullptr, detail);
  op.SetThreads(WorkerSlots(ctx));
  const std::vector<Tuple>& tuples = rel.tuples();
  const size_t n = tuples.size();
  op.SetInputRows(n);
  if (op.traced() && ctx.cost_based) {
    op.SetEstimatedRows(EstimateFilterRows(block, n, cut));
  }
  const size_t morsel = ctx.morsel_size == 0 ? 1 : ctx.morsel_size;
  std::vector<std::vector<FT>> per_morsel((n + morsel - 1) / morsel);
  std::vector<CpuStats> worker_cpu(WorkerSlots(ctx));
  // One fold step per local predicate, resolved once for the scan.
  const size_t batch = EffectiveBatchSize(ctx);
  std::vector<FoldTerm> terms;
  for (const auto& pred : block.predicates) {
    if (pred.subquery == nullptr && pred.IsLocal()) {
      terms.push_back(ToFoldTerm(pred));
    }
  }
  std::vector<std::unique_ptr<FoldScratch>> scratches(WorkerSlots(ctx));
  std::vector<BatchTally> tallies(WorkerSlots(ctx), EngineBatchTally());
  // Declared after `op`: if a morsel body throws, the folder's
  // destructor runs first during unwinding, so whatever the workers
  // tallied still lands in *cpu before the op's span takes its delta.
  CpuStatsFolder folder(cpu == nullptr ? nullptr : &worker_cpu, cpu);
  ParallelFor(ctx, n, [&](size_t worker, size_t begin, size_t end) {
    CpuStats* slot = cpu == nullptr ? nullptr : &worker_cpu[worker];
    std::vector<FT>& out = per_morsel[begin / morsel];
    std::unique_ptr<FoldScratch>& scratch = scratches[worker];
    if (scratch == nullptr) scratch = std::make_unique<FoldScratch>();
    for (size_t i = begin; i < end; i += batch) {
      FilterChunk(terms, cut, &tuples[i], std::min(batch, end - i),
                  scratch.get(), slot, &tallies[worker], &out);
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
  for (const BatchTally& t : tallies) op.AddBatches(t.batches, t.rows);
  op.SetOutputRows(out.size());
  return out;
}

/// True when every tuple carries a fuzzy (numeric) value in column `col`.
bool ColumnIsFuzzy(const std::vector<FT>& tuples, size_t col) {
  for (const FT& ft : tuples) {
    if (!ft.tuple->ValueAt(col).is_fuzzy()) return false;
  }
  return true;
}

/// The fold steps of a pair term min(d_S(s), d(corr(r, s)),
/// f(d(r.Y op s.Z))): one per correlation predicate, then the link (none
/// for EXISTS). The link compares with Value::Compare's default
/// tolerance, 1.0 -- the predicate's approx_tolerance applies to its
/// direct comparison, not the quantified link -- and is negated for ALL.
struct PairTerms {
  std::vector<FoldTerm> correlations;
  std::vector<FoldTerm> link;
};

PairTerms PairTermsOf(const LinkShape& shape) {
  PairTerms terms;
  for (const BoundPredicate* pred : shape.correlations) {
    terms.correlations.push_back(ToFoldTerm(*pred));
  }
  if (shape.has_link_columns) {
    terms.link.push_back(FoldTerm{FoldOperand::Outer(shape.outer_link_col),
                                  shape.link_op,
                                  FoldOperand::Local(shape.inner_link_col),
                                  /*tolerance=*/1.0, shape.negate_link});
  }
  return terms;
}

/// Picks an equality correlation predicate over fuzzy columns usable as
/// the merge-join key. Returns {outer_col, inner_col} or nullopt.
std::optional<std::pair<size_t, size_t>> FindEqualityCorrelationKey(
    const LinkShape& shape, const std::vector<FT>& outer,
    const std::vector<FT>& inner) {
  for (const BoundPredicate* pred : shape.correlations) {
    // A correlation has one outer side; the other side must be a local
    // column, not a constant.
    const bool lhs_outer = pred->lhs.is_column && pred->lhs.column.up > 0;
    const BoundOperand& local = lhs_outer ? pred->rhs : pred->lhs;
    if (pred->op != CompareOp::kEq || !local.is_column) continue;
    const size_t outer_col = (lhs_outer ? pred->lhs : pred->rhs).column.column;
    if (ColumnIsFuzzy(outer, outer_col) &&
        ColumnIsFuzzy(inner, local.column.column)) {
      return std::make_pair(outer_col, local.column.column);
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

/// IN / NOT IN / SOME / ALL / EXISTS / NOT EXISTS, for outer rows of
/// degree >= theta, the query's WITH threshold, filtered from
/// `outer_relation`.
///
/// A positive link (IN, SOME, EXISTS) needs m(r) exactly only where it
/// reaches theta, and a lane reaches theta only when d_S(s) and, keyed,
/// the key's equality degree do. So the inner filter cuts at theta and
/// the window runs on theta-cuts. NOT IN, ALL and NOT EXISTS keep both
/// whole: a sub-theta lane still lowers 1 - max.
///
/// The inner block's own WITH D >= z keeps a value when its max degree
/// reaches z (EliminateDuplicates(z)). Every tuple of one value meets
/// the link alike, so that is a mask: a lane below z after the
/// correlation terms leaves the fold before the link. Without
/// correlations the lane is d_S(s), and the inner filter's cut at z is
/// the whole mask.
///
/// The pair join runs on both sides' distinct bindings
/// (distinct_bindings.h): each inner binding carries its rows' max
/// degree, and each outer row reads m(r) back from its binding's.
Result<std::vector<double>> InFamilyDegrees(const std::vector<FT>& outer,
                                            const Relation& outer_relation,
                                            const LinkShape& shape,
                                            double theta,
                                            const ParallelContext& ctx,
                                            CpuStats* cpu,
                                            ExecTrace* trace) {
  OpScope op(Op::kSubquery, trace, ctx.progress, cpu, nullptr,
             LinkDetail(shape));
  op.SetInputRows(outer.size());
  const double cut = shape.negate_result ? 0.0 : theta;
  const double inner_with = shape.inner->with_threshold;
  const Relation& inner_relation = *shape.inner->tables[0].relation;
  std::vector<FT> filtered =
      FilterBlock(*shape.inner, std::max(cut, inner_with), ctx, cpu, trace);
  // FilterBlock stops dispatching morsels on a governed stop, leaving
  // partial output; surface the stop before using it.
  FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
  if (shape.correlations.empty() && !shape.has_link_columns) {
    // Uncorrelated EXISTS: a constant -- the possibility that the inner
    // block is non-empty.
    double m_const = 0.0;
    for (const FT& s : filtered) m_const = std::max(m_const, s.degree);
    return std::vector<double>(outer.size(),
                               shape.negate_result ? 1.0 - m_const : m_const);
  }
  const LinkBindings columns = BindingColumnsOf(shape);
  DistinctBindings inner = DistinctOn(std::move(filtered), columns.inner,
                                      inner_relation, ctx, cpu, trace);
  DistinctBindings rows =
      DistinctOn(outer, columns.outer, outer_relation, ctx, cpu, trace);
  // The rows weigh 1: a pair term starts at d_S(s).
  for (FT& r : rows.rows) r.degree = 1.0;

  const bool link_is_eq_fuzzy =
      shape.has_link_columns && shape.link_op == CompareOp::kEq &&
      ColumnIsFuzzy(rows.rows, shape.outer_link_col) &&
      ColumnIsFuzzy(inner.rows, shape.inner_link_col);
  // Windowing on the linking predicate is sound only when out-of-window
  // pairs contribute nothing, i.e. f(0) = 0 -- not for ALL, whose f(0)=1.
  const bool can_window_on_link = link_is_eq_fuzzy && !shape.negate_link;
  const auto corr_key =
      FindEqualityCorrelationKey(shape, rows.rows, inner.rows);
  std::optional<PairKey> key;
  if (can_window_on_link) {
    key = PairKey{shape.outer_link_col, shape.inner_link_col, cut};
  } else if (corr_key.has_value()) {
    key = PairKey{corr_key->first, corr_key->second, cut};
  }
  if (key.has_value() && trace != nullptr && ctx.cost_based) {
    // Planner estimate for the window: the distinct outer bindings times
    // the overlap fanout predicted by the key columns' summaries at the
    // cut -- the statistics replacement for the paper's "known" C.
    const ColumnStats outer_stats =
        BuildKeyStats(rows.rows, key->outer_col, cut);
    const ColumnStats inner_stats =
        BuildKeyStats(inner.rows, key->inner_col, cut);
    key->est_pairs = RoundEstimate(static_cast<double>(rows.rows.size()) *
                                   EstimateOverlapFanout(outer_stats,
                                                         inner_stats));
  }
  const PairTerms terms = PairTermsOf(shape);
  const double mask = terms.correlations.empty() ? 0.0 : inner_with;
  // Each binding belongs to one morsel, so concurrent sinks write
  // disjoint m[r] slots.
  std::vector<double> m(rows.rows.size(), 0.0);
  FUZZYDB_RETURN_IF_ERROR(PairJoin(
      rows.rows, &inner.rows, key.has_value() ? &*key : nullptr, ctx, cpu,
      trace, [&](const PairBatch& batch) {
        const auto lanes = PairLanes(batch, rows.rows);
        FoldComparisons(lanes, batch.count, terms.correlations, batch.fold,
                        batch.cpu, batch.tally);
        double* degree = batch.fold->degree.data();
        if (mask > 0.0) {
          for (size_t k = 0; k < batch.count; ++k) {
            if (degree[k] < mask) degree[k] = 0.0;
          }
        }
        FoldComparisons(lanes, batch.count, terms.link, batch.fold, batch.cpu,
                        batch.tally);
        for (size_t k = 0; k < batch.count; ++k) {
          double& m_r = m[batch.pairs[k].r];
          m_r = std::max(m_r, degree[k]);
        }
        return Status::OK();
      }));

  std::vector<double> degrees(outer.size());
  for (size_t i = 0; i < outer.size(); ++i) {
    const double m_r = m[rows.binding_of[i]];
    degrees[i] = shape.negate_result ? 1.0 - m_r : m_r;
  }
  return degrees;
}

/// Aggregate subqueries (Section 6): types A and JA, COUNT included.
Result<std::vector<double>> AggregateFamilyDegrees(
    const std::vector<FT>& outer, const Relation& outer_relation,
    const LinkShape& shape, const ParallelContext& ctx, CpuStats* cpu,
    ExecTrace* trace) {
  const sql::AggFunc agg = shape.inner->select[0].agg;
  OpScope op(Op::kSubquery, trace, ctx.progress, cpu, nullptr,
             std::string("AGG ") + sql::AggFuncName(agg));
  op.SetInputRows(outer.size());
  std::vector<double> degrees(outer.size(), 0.0);

  if (shape.correlations.empty()) {
    // Type A: the inner block is a constant scalar; evaluate it once.
    NaiveEvaluator naive(cpu, trace, ctx.query, ctx.progress);
    FUZZYDB_ASSIGN_OR_RETURN(const Relation t2, naive.Evaluate(*shape.inner));
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

  // Type JA: the classifier admits one correlation predicate S.V op2 R.U.
  const BoundPredicate& corr = *shape.correlations[0];
  const bool lhs_outer = corr.lhs.is_column && corr.lhs.column.up > 0;
  const size_t u_col = (lhs_outer ? corr.lhs.column : corr.rhs.column).column;
  const size_t v_col = (lhs_outer ? corr.rhs.column : corr.lhs.column).column;

  // Kept whole: a sub-theta inner tuple still changes the aggregate.
  std::vector<FT> filtered = FilterBlock(*shape.inner, 0.0, ctx, cpu, trace);
  FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
  // The inner's distinct (S.Z, S.V) bindings, and T1: the outer's
  // distinct R.U values, weight 1; outer row i's is T1 row
  // t1.binding_of[i] (distinct_bindings.h).
  const Relation& inner_relation = *shape.inner->tables[0].relation;
  const LinkBindings columns = BindingColumnsOf(shape);
  DistinctBindings inner = DistinctOn(std::move(filtered), columns.inner,
                                      inner_relation, ctx, cpu, trace);
  DistinctBindings t1 =
      DistinctOn(outer, columns.outer, outer_relation, ctx, cpu, trace);
  for (FT& r : t1.rows) r.degree = 1.0;

  // T2[j]: A'(u) with degree D(A'(u)) for T1 row j, built by grouping
  // T1 |x| S on u and applying AGG per group (pipelined in the paper).
  std::vector<std::optional<AggregateResult>> t2(t1.rows.size());
  {
    const bool mergeable = corr.op == CompareOp::kEq &&
                           ColumnIsFuzzy(inner.rows, v_col) &&
                           ColumnIsFuzzy(t1.rows, u_col);
    OpScope group_op(Op::kGroupAggregate, trace, ctx.progress, cpu, nullptr,
                     (mergeable ? "merge t1=" : "nested t1=") +
                         std::to_string(t1.rows.size()));
    group_op.SetInputRows(inner.rows.size());
    const PairKey key{u_col, v_col};
    const std::vector<FoldTerm> terms = {ToFoldTerm(corr)};
    // Pairs arrive T1 row by T1 row and a row never spans a morsel, so
    // each worker holds one open group, aggregated when the next row's
    // survivor arrives or the morsel ends.
    struct OpenGroup {
      size_t row = 0;
      Relation values{"", Schema{Column{"Z", ValueType::kFuzzy}}};
    };
    std::vector<OpenGroup> open(WorkerSlots(ctx));
    auto aggregate = [&](OpenGroup* group) -> Status {
      if (group->values.Empty()) return Status::OK();
      FUZZYDB_ASSIGN_OR_RETURN(AggregateResult a,
                               ApplyAggregate(agg, group->values));
      if (!a.value.is_null()) t2[group->row] = std::move(a);
      group->values.mutable_tuples().clear();
      return Status::OK();
    };
    FUZZYDB_RETURN_IF_ERROR(PairJoin(
        t1.rows, &inner.rows, mergeable ? &key : nullptr, ctx, cpu, trace,
        [&](const PairBatch& batch) -> Status {
          FoldComparisons(PairLanes(batch, t1.rows), batch.count, terms,
                          batch.fold, batch.cpu, batch.tally);
          const double* degree = batch.fold->degree.data();
          OpenGroup& group = open[batch.worker];
          for (size_t k = 0; k < batch.count; ++k) {
            if (degree[k] <= 0.0) continue;
            const PairEntry& e = batch.pairs[k];
            if (e.r != group.row) {
              FUZZYDB_RETURN_IF_ERROR(aggregate(&group));
              group.row = e.r;
            }
            const Value& z = e.s->tuple->ValueAt(shape.inner_link_col);
            FUZZYDB_RETURN_IF_ERROR(
                group.values.AppendOrMax(Tuple({z}, degree[k])));
          }
          return batch.morsel_end ? aggregate(&group) : Status::OK();
        }));
    group_op.SetOutputRows(static_cast<uint64_t>(
        std::count_if(t2.begin(), t2.end(),
                      [](const auto& a) { return a.has_value(); })));
  }

  // Back-join R with T2 on binary value identity; for COUNT the left
  // outer join's else-arm compares against 0 (Query COUNT').
  const Value zero = Value::Number(0.0);
  for (size_t i = 0; i < outer.size(); ++i) {
    const Value& y = outer[i].tuple->ValueAt(shape.outer_link_col);
    const std::optional<AggregateResult>& a = t2[t1.binding_of[i]];
    if (a.has_value()) {
      if (cpu != nullptr) ++cpu->degree_evaluations;
      degrees[i] = std::min(a->degree, y.Compare(shape.link_op, a->value));
    } else if (agg == sql::AggFunc::kCount) {
      if (cpu != nullptr) ++cpu->degree_evaluations;
      degrees[i] = y.Compare(shape.link_op, zero);
    }
  }
  return degrees;
}

/// Projects the outer block's SELECT columns of tuple r with degree d.
/// A row below the WITH threshold is never projected: an answer tuple's
/// max degree reaches the threshold exactly when one of its rows does.
Status EmitAnswer(const BoundQuery& query, const Tuple& r, double d,
                  Relation* out) {
  if (d <= 0.0 || d < query.with_threshold) return Status::OK();
  std::vector<Value> values;
  values.reserve(query.select.size());
  for (const auto& item : query.select) {
    values.push_back(r.ValueAt(item.column.column));
  }
  return out->Append(Tuple(std::move(values), d));
}

/// All 2-level types plus queries with several independent subquery
/// predicates: filter the outer block once, evaluate each subquery
/// predicate (`links`, the classifier's shapes) to a per-tuple degree
/// vector, fold by min. An answer's degree is at most its outer row's
/// running degree -- min(its filter degree, every link so far) -- so
/// the outer filter cuts at the WITH threshold (0 without one) for every
/// family, and before each further link the rows whose running degree
/// is 0 or below the threshold leave: later links, and their distinct
/// steps, never see a row that cannot answer.
Result<Relation> RunTwoLevel(const BoundQuery& query,
                             const std::vector<LinkShape>& links,
                             const ParallelContext& ctx, CpuStats* cpu,
                             ExecTrace* trace) {
  const double theta = query.with_threshold;
  const Relation& outer_relation = *query.tables[0].relation;
  std::vector<FT> outer = FilterBlock(query, theta, ctx, cpu, trace);
  FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
  for (size_t l = 0; l < links.size(); ++l) {
    if (l > 0) {
      std::erase_if(outer, [theta](const FT& r) {
        return r.degree <= 0.0 || r.degree < theta;
      });
    }
    const LinkShape& link = links[l];
    FUZZYDB_ASSIGN_OR_RETURN(
        std::vector<double> degrees,
        link.is_aggregate
            ? AggregateFamilyDegrees(outer, outer_relation, link, ctx, cpu,
                                     trace)
            : InFamilyDegrees(outer, outer_relation, link, theta, ctx, cpu,
                              trace));
    for (size_t i = 0; i < outer.size(); ++i) {
      outer[i].degree = std::min(outer[i].degree, degrees[i]);
    }
  }

  OpScope emit_op(Op::kEmit, trace, ctx.progress, cpu);
  emit_op.SetInputRows(outer.size());
  Relation answer("", query.output_schema);
  for (const FT& r : outer) {
    FUZZYDB_RETURN_IF_ERROR(CheckQuery(ctx.query));
    FUZZYDB_RETURN_IF_ERROR(EmitAnswer(query, *r.tuple, r.degree, &answer));
  }
  answer.EliminateDuplicates(query.with_threshold);
  emit_op.SetOutputRows(answer.NumTuples());
  return answer;
}

/// K-level chain queries (Section 8): flat K-way join over the
/// classifier's levels. With ctx.cost_based the join order is chosen by
/// the interval DP of join_order.h over estimated link selectivities
/// (the paper's "optimal join order ... determined by a dynamic
/// programming method"); otherwise levels join outermost-to-innermost.
/// A joined row's degree only falls as levels join, and an answer is the
/// max of its rows, so under WITH D >= theta every level's filter, every
/// step's window (on theta-cuts) and every step's output drop what is
/// below theta.
Result<Relation> RunChain(const BoundQuery& query, const QueryClass& plan,
                          const ParallelContext& ctx, CpuStats* cpu,
                          ExecTrace* trace,
                          std::vector<size_t>* chosen_order) {
  const std::vector<const BoundQuery*>& blocks = plan.chain_blocks;
  const std::vector<const BoundPredicate*>& links = plan.chain_links;
  const size_t k_levels = blocks.size();

  // Filtered inputs per level.
  const double theta = query.with_threshold;
  std::vector<std::vector<FT>> filtered(k_levels);
  for (size_t k = 0; k < k_levels; ++k) {
    filtered[k] = FilterBlock(*blocks[k], theta, ctx, cpu, trace);
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
          BuildKeyStats(filtered[e], edge_outer_col(e), 0.0));
      edge_inner_stats.push_back(
          BuildKeyStats(filtered[e + 1], edge_inner_col(e), 0.0));
      est_stats.selectivity.push_back(std::max(
          1e-6,
          EstimateJoinSelectivity(edge_outer_stats[e], edge_inner_stats[e])));
    }
    if (k_levels > 2) {
      OpScope plan_op(Op::kPlanJoinOrder, trace, ctx.progress, cpu, nullptr,
                      "levels=" + std::to_string(k_levels));
      order = PlanChainJoinOrder(est_stats).levels;
      if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
        m->planner_plans->Add();
      }
    }
  }
  if (chosen_order != nullptr) *chosen_order = order;

  // ---- Execution in the chosen contiguous order ----------------------
  // Partial rows, flat: row r's tuple at level k is
  // row_tuples[r * k_levels + k] (null until level k joins) and its
  // degree is row_degree[r]. Joined rows are charged to the query's
  // memory budget, K tuple pointers plus one degree each, one
  // ScopedBudget per morsel of the step that joined them; the charge is
  // released when the next step's rows replace them and on every return.
  std::vector<const Tuple*> row_tuples;
  std::vector<double> row_degree;
  const uint64_t row_bytes = k_levels * sizeof(const Tuple*) + sizeof(double);
  std::deque<ScopedBudget> rows_budget;
  for (const FT& ft : filtered[order[0]]) {
    row_tuples.resize(row_tuples.size() + k_levels, nullptr);
    row_tuples[row_tuples.size() - k_levels + order[0]] = ft.tuple;
    row_degree.push_back(ft.degree);
  }
  size_t joined_lo = order[0], joined_hi = order[0];

  for (size_t step = 1; step < k_levels; ++step) {
    const size_t level = order[step];
    const size_t rows = row_degree.size();
    OpScope step_op(Op::kChainJoin, trace, ctx.progress, cpu, nullptr,
                    "level=" + std::to_string(level));
    step_op.SetInputRows(rows);
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
    // The pair join's outer side: each row's tuple at the row-side key
    // level, weighted by the row's degree.
    std::vector<FT> outer(rows);
    for (size_t r = 0; r < rows; ++r) {
      outer[r] = FT{row_tuples[r * k_levels + row_level], row_degree[r]};
    }
    std::vector<FT> incoming = std::move(filtered[level]);

    // The step's folds over a pair (row, s): each reads s as its local
    // side and the row's tuple at level `partner` as its outer side.
    // First the link key, row side on the left; then every predicate
    // becoming evaluable with this level joined: those of block b
    // referencing block b-up, where one endpoint is `level` and the
    // other (the partner) is already joined.
    struct ChainFold {
      FoldTerm term;
      size_t partner;
    };
    std::vector<ChainFold> folds = {
        {FoldTerm{FoldOperand::Outer(row_col), CompareOp::kEq,
                  FoldOperand::Local(new_col)},
         row_level}};
    for (size_t b = 0; b < k_levels; ++b) {
      for (const BoundPredicate* pred : plan.chain_correlations[b]) {
        const int up = pred->lhs.is_column && pred->lhs.column.up > 0
                           ? pred->lhs.column.up
                           : pred->rhs.column.up;
        const size_t other = b - static_cast<size_t>(up);
        const bool involves_level = b == level || other == level;
        if (!involves_level) continue;
        const size_t partner = b == level ? other : b;
        if (partner < joined_lo || partner > joined_hi) continue;
        const auto operand = [&](const BoundOperand& o) {
          if (!o.is_column) return FoldOperand::Constant(o.constant);
          return b - static_cast<size_t>(o.column.up) == level
                     ? FoldOperand::Local(o.column.column)
                     : FoldOperand::Outer(o.column.column);
        };
        folds.push_back({FoldTerm{operand(pred->lhs), pred->op,
                                  operand(pred->rhs), pred->approx_tolerance},
                         partner});
      }
    }

    // Step planning. Fixed rule: merge whenever both key columns are
    // fuzzy. Cost-based: among the legal algorithms, the cheaper one
    // under the cost model, with the expected windowed pairs predicted
    // from the edge's column summaries; the op gets the interval's
    // estimated output cardinality for the q-error loop.
    const bool merge_legal =
        ColumnIsFuzzy(outer, row_col) && ColumnIsFuzzy(incoming, new_col);
    bool use_merge = merge_legal;
    if (ctx.cost_based && !edge_outer_stats.empty()) {
      const ColumnStats& from_stats =
          extend_left ? edge_inner_stats[edge] : edge_outer_stats[edge];
      const ColumnStats& to_stats =
          extend_left ? edge_outer_stats[edge] : edge_inner_stats[edge];
      const double est_pairs = static_cast<double>(rows) *
                               EstimateOverlapFanout(from_stats, to_stats);
      if (merge_legal) {
        use_merge = ChooseChainStepAlgorithm(rows, incoming.size(),
                                             est_pairs, true) ==
                    JoinAlgorithm::kMergeWindow;
      }
      if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
        (use_merge ? m->planner_merge_steps : m->planner_nested_steps)->Add();
      }
      if (step_op.traced()) {
        step_op.SetEstimatedRows(RoundEstimate(EstimateIntervalSize(
            est_stats, std::min(joined_lo, level),
            std::max(joined_hi, level))));
        step_op.SetDetail("level=" + std::to_string(level) +
                          (use_merge ? " alg=merge" : " alg=nested"));
      }
    }
    const PairKey key{row_col, new_col, theta};

    // Survivors go to per-morsel outputs, concatenated in morsel order,
    // and are charged per morsel: one worker runs a morsel's batches, and
    // ScopedBudget charges through the thread-safe ChargeMemory.
    const size_t morsel = ctx.morsel_size == 0 ? 1 : ctx.morsel_size;
    std::vector<std::vector<const Tuple*>> out_tuples((rows + morsel - 1) /
                                                      morsel);
    std::vector<std::vector<double>> out_degree(out_tuples.size());
    std::deque<ScopedBudget> joined_budget;
    for (size_t m = 0; m < out_tuples.size(); ++m) {
      joined_budget.emplace_back(MutableQuery(ctx));
    }
    FUZZYDB_RETURN_IF_ERROR(PairJoin(
        outer, &incoming, use_merge ? &key : nullptr, ctx, cpu, trace,
        [&](const PairBatch& batch) {
          for (const ChainFold& fold : folds) {
            const auto lanes = [&](size_t k) {
              const PairEntry& e = batch.pairs[k];
              return LaneTuples{
                  e.s->tuple, row_tuples[e.r * k_levels + fold.partner]};
            };
            if (FoldComparison(lanes, batch.count, fold.term, batch.fold,
                               batch.cpu, batch.tally) == 0) {
              break;
            }
          }
          const double* degree = batch.fold->degree.data();
          std::vector<const Tuple*>& tuples = out_tuples[batch.morsel];
          std::vector<double>& degrees = out_degree[batch.morsel];
          const size_t joined_before = degrees.size();
          for (size_t k = 0; k < batch.count; ++k) {
            if (degree[k] <= 0.0 || degree[k] < theta) continue;
            const PairEntry& e = batch.pairs[k];
            const auto row = row_tuples.begin() + e.r * k_levels;
            tuples.insert(tuples.end(), row, row + k_levels);
            tuples[tuples.size() - k_levels + level] = e.s->tuple;
            degrees.push_back(degree[k]);
          }
          return joined_budget[batch.morsel].Charge(
              (degrees.size() - joined_before) * row_bytes);
        }));
    // joined_budget now holds the replaced rows' charge, released when
    // this step's scope closes.
    rows_budget.swap(joined_budget);
    row_tuples.clear();
    row_degree.clear();
    for (size_t i = 0; i < out_tuples.size(); ++i) {
      row_tuples.insert(row_tuples.end(), out_tuples[i].begin(),
                        out_tuples[i].end());
      row_degree.insert(row_degree.end(), out_degree[i].begin(),
                        out_degree[i].end());
    }
    step_op.SetOutputRows(row_degree.size());
    joined_lo = std::min(joined_lo, level);
    joined_hi = std::max(joined_hi, level);
  }

  OpScope emit_op(Op::kEmit, trace, ctx.progress, cpu);
  emit_op.SetInputRows(row_degree.size());
  // Every joined row of one outer tuple projects to the same answer
  // tuple, so the rows fold to one max degree per outer tuple before
  // anything is projected. Outer tuples keep the order of their first
  // row, so each answer keeps the values the unfolded emit would pick.
  // Every row is >= theta: the steps dropped the rest.
  const std::vector<Tuple>& outer_tuples =
      blocks[0]->tables[0].relation->tuples();
  std::vector<double> outer_degree(outer_tuples.size(), 0.0);
  std::vector<size_t> outer_rows;  // outer tuples in first-row order
  for (size_t r = 0; r < row_degree.size(); ++r) {
    const size_t t =
        static_cast<size_t>(row_tuples[r * k_levels] - outer_tuples.data());
    if (outer_degree[t] == 0.0) outer_rows.push_back(t);  // rows are > 0
    outer_degree[t] = std::max(outer_degree[t], row_degree[r]);
  }
  Relation answer("", query.output_schema);
  for (size_t t : outer_rows) {
    FUZZYDB_RETURN_IF_ERROR(
        EmitAnswer(query, outer_tuples[t], outer_degree[t], &answer));
  }
  answer.EliminateDuplicates(query.with_threshold);
  emit_op.SetOutputRows(answer.NumTuples());
  return answer;
}

/// A finished query's journal status and the governance counter its
/// stop feeds (null for successes and plain failures).
struct Outcome {
  const char* status;
  Counter* EngineMetrics::*counter;
};

Outcome OutcomeOf(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return {"OK", nullptr};
    case StatusCode::kCancelled:
      return {"CANCELLED", &EngineMetrics::queries_cancelled};
    case StatusCode::kDeadlineExceeded:
      return {"DEADLINE_EXCEEDED", &EngineMetrics::queries_deadline_exceeded};
    case StatusCode::kResourceExhausted:
      return {"RESOURCE_EXHAUSTED", &EngineMetrics::queries_resource_exhausted};
    default:
      return {"FAILED", nullptr};
  }
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
    // The root op opens before classification and charges kPlan, the
    // residual phase: everything outside the nested operators
    // (classification, planning, cache lookups) is charged there, so
    // the phases sum to wall time.
    OpScope op(Op::kEvaluate, options_.trace, options_.progress, cpu_);
    return EvaluateTraced(query, &op);
  }();
  const double elapsed_ms = watch.ElapsedSeconds() * 1e3;
  const Outcome outcome = OutcomeOf(result.status().code());

  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->queries_total->Add();
    m->query_latency_us->Record(static_cast<uint64_t>(elapsed_ms * 1e3));
    if (!last_was_unnested_) m->queries_naive_fallback->Add();
    if (!result.ok()) m->queries_failed->Add();
    if (outcome.counter != nullptr) (m->*outcome.counter)->Add();
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
    // All spans are closed here (the root op closed), so the rendered
    // tree is complete even for failed queries.
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
    rec.status = outcome.status;
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
    const sql::BoundQuery& query, OpScope* op) {
  const QueryClass plan = ClassifyQuery(query);
  last_type_ = plan.type;
  last_was_unnested_ = plan.reason == NaiveReason::kNone;
  last_chain_order_.clear();
  op->SetDetail(QueryTypeName(last_type_));
  // A pre-cancelled or already-expired context never starts executing.
  FUZZYDB_RETURN_IF_ERROR(CheckQuery(options_.context));
  if (!last_was_unnested_) {
    // Only unnested answers are cached, so there is no lookup either.
    NaiveEvaluator naive(cpu_, options_.trace, options_.context,
                         options_.progress);
    Result<Relation> answer = naive.Evaluate(query);  // applies ORDER BY
    if (answer.ok()) op->SetOutputRows(answer.value().NumTuples());
    return answer;
  }
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
      op->SetDetail(std::string(QueryTypeName(last_type_)) + " (cached)");
      op->SetOutputRows(answer.NumTuples());
      return answer;
    }
  }
  const ParallelContext ctx = MakeContext();
  Result<Relation> result =
      plan.type == QueryType::kChain
          ? RunChain(query, plan, ctx, cpu_, options_.trace,
                     &last_chain_order_)
          : RunTwoLevel(query, plan.links, ctx, cpu_, options_.trace);
  if (result.ok()) {
    ApplyOrderBy(query.order_by, &result.value());
    op->SetOutputRows(result.value().NumTuples());
    if (!cache_key.empty()) {
      options_.cache->InsertResult(cache_key, theta,
                                   std::make_shared<Relation>(result.value()),
                                   std::move(cache_deps), options_.context);
    }
  }
  return result;
}

}  // namespace fuzzydb
