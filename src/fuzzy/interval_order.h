// The linear order on fuzzy values used by the extended merge-join.
//
// Definition 3.1 of the paper: each data value v represents the interval
// [b(v), e(v)] on which its membership function is positive (for a crisp
// value, b(v) = e(v) = v). Values are ordered lexicographically by
// (b(v), e(v)):
//
//   v1 < v2  iff  b(v1) < b(v2), or b(v1) = b(v2) and e(v1) < e(v2).
//
// Tuples are ordered with respect to a join attribute X by the order of
// their X values. Two values can only have a positive equality degree when
// their intervals intersect, which is what makes the merge-join's window
// scan (Definition 3.2) correct.
#ifndef FUZZYDB_FUZZY_INTERVAL_ORDER_H_
#define FUZZYDB_FUZZY_INTERVAL_ORDER_H_

#include "fuzzy/trapezoid.h"

namespace fuzzydb {

/// Three-way comparison under Definition 3.1: negative when x precedes y,
/// 0 when the intervals coincide, positive when x succeeds y.
int CompareIntervalOrder(const Trapezoid& x, const Trapezoid& y);

/// x strictly precedes y in the interval order.
bool IntervalOrderLess(const Trapezoid& x, const Trapezoid& y);

/// True when the supports [b(x), e(x)] and [b(y), e(y)] intersect; a
/// positive equality degree requires this.
bool SupportsIntersect(const Trapezoid& x, const Trapezoid& y);

/// True when the whole support of x lies strictly before the support of y
/// (e(x) < b(y)); such an x can never equal y and, in a sorted scan, no
/// later value can either.
bool SupportEntirelyBefore(const Trapezoid& x, const Trapezoid& y);

}  // namespace fuzzydb

#endif  // FUZZYDB_FUZZY_INTERVAL_ORDER_H_
