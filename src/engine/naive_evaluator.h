// The naive (tuple-at-a-time, nested-loop) evaluator.
//
// This evaluator implements the *execution semantics* of Fuzzy SQL
// literally as defined in Sections 4-8 of the paper: for every tuple
// combination of a block's FROM relations, each subquery predicate
// re-evaluates its inner block with the current outer tuples bound
// (producing the temporary relation T(r)), satisfaction degrees combine
// by min, and duplicate answers keep the maximum degree.
//
// It is the baseline the paper compares against -- O(n_R x n_S) for
// 2-level queries -- and doubles as the executable specification that the
// unnesting evaluator must agree with (Theorems 4.1-8.1).
#ifndef FUZZYDB_ENGINE_NAIVE_EVALUATOR_H_
#define FUZZYDB_ENGINE_NAIVE_EVALUATOR_H_

#include "common/status.h"
#include "engine/exec_stats.h"
#include "engine/semantics.h"
#include "relational/relation.h"
#include "sql/binder.h"

namespace fuzzydb {

class ExecTrace;
class QueryContext;
class QueryProgress;

/// Evaluates bound queries by their literal semantics.
class NaiveEvaluator {
 public:
  /// With `query` set, cancellation/deadline are polled once per
  /// complete tuple combination, so even the O(n_R x n_S) baseline
  /// stops within one combination of the trigger. Each Evaluate() is
  /// one "naive-evaluate" op: a span in `trace` and, in `progress`,
  /// time charged to the join phase (it is the nested loop).
  explicit NaiveEvaluator(CpuStats* cpu = nullptr, ExecTrace* trace = nullptr,
                          const QueryContext* query = nullptr,
                          QueryProgress* progress = nullptr)
      : cpu_(cpu), trace_(trace), query_(query), progress_(progress) {}

  /// Evaluates a bound query; the result relation is duplicate-free and
  /// respects the query's WITH threshold.
  ///
  /// GROUPBY/HAVING semantics (Section 2.2 declares them "similar to
  /// their counterpart in standard SQL"; the degree semantics follows
  /// the fuzzy-set reading used everywhere else): rows that satisfy the
  /// WHERE clause with a positive degree group by the identity of their
  /// grouping values; a group's membership degree is the maximum member
  /// degree (fuzzy OR over the ways the group arises); aggregates apply
  /// to the group's fuzzy set of values; each HAVING conjunct
  /// contributes d(AGG(group) op constant) by min.
  Result<Relation> Evaluate(const sql::BoundQuery& query);

 private:
  Result<Relation> EvaluateBlock(const sql::BoundQuery& query,
                                 Frames* frames);
  Result<Relation> EvaluateGroupedBlock(const sql::BoundQuery& query,
                                        Frames* frames);
  Result<double> PredicateDegree(const sql::BoundPredicate& pred,
                                 Frames* frames);

  CpuStats* cpu_;
  ExecTrace* trace_;
  const QueryContext* query_;
  QueryProgress* progress_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_NAIVE_EVALUATOR_H_
