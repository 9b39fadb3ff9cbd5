// The unnesting evaluator: the paper's contribution.
//
// Nested Fuzzy SQL queries of the types catalogued in Sections 4-8 are
// transformed into flat plans evaluated with the extended merge-join of
// Section 3 (inputs sorted on the interval order of Definition 3.1; for
// each outer tuple only the window Rng(r) of Definition 3.2 is scanned):
//
//   type N  (Sec. 4, Thm 4.1): flat equijoin R'.Y = S'.Z
//   type J  (Sec. 4, Thm 4.2): flat join on the linking predicate with
//            the correlation predicate(s) as residuals
//   type JX (Sec. 5, Thm 5.1): group-by-minimum antijoin
//            d_r = min(mu_R(r), 1 - max_s min(mu_S(s), d(corr), d(Y=Z)))
//   type JA (Sec. 6, Thm 6.1): T1 (distinct R.U) |x| S grouped+aggregated
//            into T2, back-joined to R by binary value identity; the
//            COUNT variant left-outer-joins with the IF-THEN-ELSE arm
//            d(r.Y op 0) for unmatched tuples
//   type JALL (Sec. 7, Thm 7.1): group-by-minimum with the negated
//            comparison, d_r = min(mu_R(r), 1 - max_s min(mu_S(s),
//            d(corr), 1 - d(Y op Z)))
//   chain queries (Sec. 8, Thm 8.1): left-deep K-way flat join over the
//            linking predicates with all correlation predicates as
//            residuals
//
// A query ClassifyQuery (engine/classifier.h) gives a naive reason runs
// on the naive evaluator from the start -- results are always correct;
// only the strategy differs.
#ifndef FUZZYDB_ENGINE_UNNESTED_EVALUATOR_H_
#define FUZZYDB_ENGINE_UNNESTED_EVALUATOR_H_

#include <memory>

#include "common/status.h"
#include "engine/classifier.h"
#include "engine/exec_options.h"
#include "engine/exec_stats.h"
#include "relational/relation.h"
#include "sql/binder.h"

namespace fuzzydb {

class OpScope;
class ThreadPool;
struct ParallelContext;

/// Evaluates bound queries by unnesting.
class UnnestingEvaluator {
 public:
  explicit UnnestingEvaluator(CpuStats* cpu = nullptr);
  explicit UnnestingEvaluator(const ExecOptions& options,
                              CpuStats* cpu = nullptr);
  ~UnnestingEvaluator();

  /// Classifies `query` once and runs the unnested plan for the shape
  /// ClassifyQuery returns, or the naive evaluator when it gives a
  /// reason.
  Result<Relation> Evaluate(const sql::BoundQuery& query);

  /// The strategy chosen by the last Evaluate() call.
  QueryType last_type() const { return last_type_; }
  /// True when the last call was answered by an unnested plan: exactly
  /// when ClassifyQuery gave no naive reason.
  bool last_was_unnested() const { return last_was_unnested_; }

  /// The level order used by the last chain evaluation (empty otherwise):
  /// the join-order DP's choice under ExecOptions::cost_based, else the
  /// identity order.
  const std::vector<size_t>& last_chain_order() const {
    return last_chain_order_;
  }

  /// Parallelism knobs. Results and CpuStats are identical for every
  /// thread count (the morsel decomposition is fixed; see
  /// parallel/parallel_for.h); num_threads = 1 runs serially.
  void set_exec_options(const ExecOptions& options) { options_ = options; }
  const ExecOptions& exec_options() const { return options_; }

 private:
  /// Evaluate() minus the cross-query accounting: runs under the root
  /// "evaluate" op `op`, whose detail and output rows it sets;
  /// Evaluate() opens the op and wraps the call with the
  /// metrics-registry counters, the latency histogram, the slow-query
  /// log and the journal.
  Result<Relation> EvaluateTraced(const sql::BoundQuery& query, OpScope* op);

  /// The ParallelContext for one evaluation; lazily builds the worker
  /// pool when options_ asks for more than one thread.
  ParallelContext MakeContext();

  CpuStats* cpu_;
  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  QueryType last_type_ = QueryType::kGeneral;
  bool last_was_unnested_ = false;
  std::vector<size_t> last_chain_order_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_UNNESTED_EVALUATOR_H_
