// Fuzzy relational algebra.
//
// The paper's argument for the possibility-only measure (Section 2.2,
// Appendix) is that it makes the algebraic operations *composable*:
// selection, projection and join each map fuzzy relations to fuzzy
// relations, so a complex query can be evaluated operator by operator --
// the property unnesting depends on. This module provides that algebra,
// playing the role of the Omron Fuzzy LUNA library's operator layer:
//
//   Select    sigma_p(R):   tuple degree min(mu_R(r), d(p(r)))
//   Project   pi_A(R):      duplicates keep the max degree (fuzzy OR)
//   Product   R x S:        degree min(mu_R(r), mu_S(s))
//   Join      R |x|_p S:    degree min(mu_R(r), mu_S(s), d(p(r, s)))
//   Union     R u S:        degree max (fuzzy OR)
//   Intersect R n S:        degree min (fuzzy AND)
//   Difference R - S:       degree min(mu_R(r), 1 - mu_S(r))
//   Rename
//
// Set operations use binary value identity for tuple matching (two
// tuples are "the same element" iff their representations coincide),
// consistent with duplicate elimination.
#ifndef FUZZYDB_ALGEBRA_ALGEBRA_H_
#define FUZZYDB_ALGEBRA_ALGEBRA_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "fuzzy/degree.h"
#include "relational/relation.h"

namespace fuzzydb {
namespace algebra {

/// A selection predicate: the satisfaction degree of one tuple.
using TuplePredicate = std::function<double(const Tuple&)>;

/// A theta-join predicate over a pair of tuples.
using PairPredicate = std::function<double(const Tuple&, const Tuple&)>;

/// Builds the common single-comparison predicates.
TuplePredicate ColumnCompare(size_t column, CompareOp op, Value constant);
PairPredicate ColumnsCompare(size_t left_column, CompareOp op,
                             size_t right_column);

/// sigma_p(R): keeps tuples with positive combined degree
/// min(mu_R(r), d(p(r))).
Relation Select(const Relation& input, const TuplePredicate& predicate);

/// pi_cols(R): projects to `columns` (by index), eliminating duplicates
/// with the maximum degree. Fails on out-of-range indexes.
Result<Relation> Project(const Relation& input,
                         const std::vector<size_t>& columns);

/// R x S: every pair, degree = min of the degrees.
Relation CartesianProduct(const Relation& left, const Relation& right);

/// R |x|_p S: pairs with positive min(mu_R, mu_S, d(p)).
Relation ThetaJoin(const Relation& left, const Relation& right,
                   const PairPredicate& predicate);

/// Fuzzy equijoin on one column pair, the paper's R.X = S.X: ThetaJoin
/// with ColumnsCompare(left_column, kEq, right_column). Fails on
/// out-of-range columns. (The engine's joins run the extended
/// merge-join, engine/pair_join.h; the algebra stays operator-at-a-time
/// over relations.)
Result<Relation> FuzzyEquiJoin(const Relation& left, size_t left_column,
                               const Relation& right, size_t right_column);

/// R u S (schemas must have equal arity): degree max per identical tuple.
Result<Relation> Union(const Relation& left, const Relation& right);

/// R n S: tuples identical in both, degree min.
Result<Relation> Intersect(const Relation& left, const Relation& right);

/// R - S: degree min(mu_R(r), 1 - mu_S(r)); tuples absent from S keep
/// their R degree.
Result<Relation> Difference(const Relation& left, const Relation& right);

/// Renames the relation (schema is carried by the input).
Relation Rename(Relation input, const std::string& name);

}  // namespace algebra
}  // namespace fuzzydb

#endif  // FUZZYDB_ALGEBRA_ALGEBRA_H_
