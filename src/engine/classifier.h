// Classification of nested Fuzzy SQL queries into the paper's types,
// and the one decision of how a bound query runs.
//
// Section 4: type N (uncorrelated IN) and type J (correlated IN);
// Section 5: type JX (correlated NOT IN; NX is its uncorrelated version);
// Section 6: type JA (correlated aggregate subquery; type A uncorrelated);
// Section 7: type JALL (correlated op ALL; JSOME for op SOME);
// Section 8: K-level chain queries (nested INs with correlation
// predicates referencing enclosing blocks).
//
// ClassifyQuery is the one decision of how a bound query runs: the
// shape its unnested plan consumes, or the reason it runs naively.
#ifndef FUZZYDB_ENGINE_CLASSIFIER_H_
#define FUZZYDB_ENGINE_CLASSIFIER_H_

#include <string>
#include <vector>

#include "sql/binder.h"

namespace fuzzydb {

enum class QueryType {
  kFlat,     // no subquery
  kTypeN,    // IN, inner block uncorrelated
  kTypeJ,    // IN, inner block correlated
  kTypeNX,   // NOT IN, uncorrelated
  kTypeJX,   // NOT IN, correlated
  kTypeA,    // aggregate subquery, uncorrelated
  kTypeJA,   // aggregate subquery, correlated
  kTypeALL,  // op ALL, uncorrelated
  kTypeJALL, // op ALL, correlated
  kTypeSOME, // op SOME, uncorrelated
  kTypeJSOME,// op SOME, correlated
  kTypeEXISTS,  // [NOT] EXISTS, uncorrelated
  kTypeJEXISTS, // [NOT] EXISTS, correlated
  kTypeMulti,   // several independent subquery predicates, each of a
                // 2-level type (an extension beyond the paper's catalog)
  kChain,    // K-level chain query (Section 8)
  kGeneral,  // anything else (evaluated naively)
};

const char* QueryTypeName(QueryType type);

/// Why a query runs on the naive evaluator (NaiveReasonText reads each
/// out); kNone when its unnested plan applies.
enum class NaiveReason {
  kNone,
  kFlat,
  kOuterAggregate,
  kOuterGroupBy,     // GROUP BY, and so HAVING
  kOuterTables,
  kInnerTables,
  kInnerGroupBy,
  kInnerWith,        // WITH D >= z, z > 0, on an aggregate or chain level
  kLinkOperand,      // not a column of the predicate's own block
  kDeepCorrelation,  // a 2-level link's correlation skips its enclosing block
  kJaCorrelations,   // type JA with other than one correlation
  kOutsideTaxonomy,  // none of the types of Sections 4-8
};

/// The phrase EXPLAIN prints after "naive evaluation: ".
const char* NaiveReasonText(NaiveReason reason);

/// One subquery predicate of a 2-level query and its inner block,
/// decomposed for the unnested plans.
struct LinkShape {
  const sql::BoundPredicate* pred = nullptr;
  const sql::BoundQuery* inner = nullptr;
  bool has_link_columns = true;  // false for EXISTS (no linking operand)
  size_t outer_link_col = 0;   // column of R referenced by the lhs
  size_t inner_link_col = 0;   // column of S projected by the inner block
  CompareOp link_op = CompareOp::kEq;
  std::vector<const sql::BoundPredicate*> correlations;

  bool is_aggregate = false;   // kAggCompare
  bool negate_link = false;    // quantifier ALL: f(x) = 1 - x
  bool negate_result = false;  // NOT IN / NOT EXISTS / ALL: g(m) = 1 - m
};

/// How one bound query runs.
struct QueryClass {
  QueryType type = QueryType::kGeneral;
  NaiveReason reason = NaiveReason::kOutsideTaxonomy;
  /// 2-level types and kTypeMulti: one shape per subquery predicate of
  /// the outer block, in predicate order.
  std::vector<LinkShape> links;
  /// kChain: level k's block (level 0 the outer block), its correlation
  /// predicates, and the IN predicate of level k whose subquery is level
  /// k + 1.
  std::vector<const sql::BoundQuery*> chain_blocks;
  std::vector<std::vector<const sql::BoundPredicate*>> chain_correlations;
  std::vector<const sql::BoundPredicate*> chain_links;
};

/// Classifies a bound outermost query. One subquery predicate that nests
/// no further, with only local and correlation comparisons inside, gives
/// its 2-level type; several give kTypeMulti. kChain covers deeper
/// nesting of IN subqueries, at most one per block, whose correlations
/// may reference any enclosing block. Everything else is kGeneral. The
/// reason is the first one found, outer block first.
QueryClass ClassifyQuery(const sql::BoundQuery& query);

/// ClassifyQuery(query).type.
QueryType Classify(const sql::BoundQuery& query);

/// Decomposes subquery predicate `pred`, whose inner block nests no
/// further, into *shape and returns why the unnested plans cannot run
/// it, or kNone; kOutsideTaxonomy (*shape incomplete) when an inner
/// predicate is neither local nor a correlation comparison.
NaiveReason DecomposeLink(const sql::BoundPredicate& pred, LinkShape* shape);

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_CLASSIFIER_H_
