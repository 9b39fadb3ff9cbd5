// Shared per-lane satisfaction-degree arithmetic.
//
// The scalar entry points in degree.cc and the batch kernels in
// degree_batch.cc must return bit-identical doubles for every input
// (tests/degree_batch_test.cc enforces this). Both therefore delegate
// to the inline "lane" functions below, which operate on raw corner
// abscissae (no Trapezoid object, no constructor assert) and reproduce
// the corner/edge-crossing arithmetic of the paper's Section 2.2
// sup-min degrees exactly: the same operations, in the same order,
// with the same rounding. Any change here changes *both* paths, which
// is the point -- there is exactly one copy of the degree math.
//
// Lane preconditions mirror Trapezoid's invariant a <= b <= c <= d;
// callers gather corners from already-validated Trapezoid values.
#ifndef FUZZYDB_FUZZY_DEGREE_KERNELS_H_
#define FUZZYDB_FUZZY_DEGREE_KERNELS_H_

#include <algorithm>

#include "fuzzy/degree.h"

namespace fuzzydb {
namespace kernel {

/// Membership degree at x; vertical edges evaluate to 1 at the corner.
/// Mirrors Trapezoid::Membership.
inline double LaneMembership(double a, double b, double c, double d,
                             double x) {
  if (x < a || x > d) return 0.0;
  if (x >= b && x <= c) return 1.0;
  if (x < b) return (x - a) / (b - a);
  return (d - x) / (d - c);
}

/// sup { mu(t) : t <= x }. Mirrors Trapezoid::SupAtOrBelow (only the
/// rising edge matters, so c and d are not needed).
inline double LaneSupAtOrBelow(double a, double b, double x) {
  if (x < a) return 0.0;
  if (x >= b) return 1.0;
  return (x - a) / (b - a);
}

/// sup { mu(t) : t < x }. Mirrors Trapezoid::SupStrictlyBelow.
inline double LaneSupStrictlyBelow(double a, double b, double x) {
  if (x <= a) return 0.0;
  if (x > b) return 1.0;
  if (a == b) return 1.0;
  return (x - a) / (b - a);
}

/// Crossing abscissa of a rising edge (x0,0)->(x1,1) and a falling edge
/// (x2,1)->(x3,0); false when either edge is vertical.
inline bool LaneRiseFallCrossing(double x0, double x1, double x2, double x3,
                                 double* out) {
  const double rise = x1 - x0;
  const double fall = x3 - x2;
  if (rise <= 0.0 || fall <= 0.0) return false;
  // (x - x0) / rise = (x3 - x) / fall
  *out = (x0 * fall + x3 * rise) / (rise + fall);
  return true;
}

/// lim_{t -> x+} mu(t): the right limit of the membership function.
inline double LaneMembershipRightLimit(double a, double b, double c, double d,
                                       double x) {
  if (x < a || x >= d) return 0.0;
  if (x >= c) return (d - x) / (d - c);  // c < d here
  if (x >= b) return 1.0;
  return (x - a) / (b - a);  // a <= x < b implies a < b
}

/// lim_{t -> x-} mu(t): the left limit of the membership function.
inline double LaneMembershipLeftLimit(double a, double b, double c, double d,
                                      double x) {
  if (x > d || x <= a) return 0.0;
  if (x <= b) return (x - a) / (b - a);  // a < b here
  if (x <= c) return 1.0;
  return (d - x) / (d - c);  // c < x <= d implies c < d
}

/// True when the supports [xa, xd] and [ya, yd] are disjoint, in which
/// case every equality candidate evaluates to exactly 0.0.
inline bool LaneSupportsDisjoint(double xa, double xd, double ya, double yd) {
  return xd < ya || yd < xa;
}

/// True when the cores [xb, xc] and [yb, yc] intersect, in which case
/// the equality supremum is attained exactly (both memberships are 1.0
/// at any shared core point).
inline bool LaneCoresIntersect(double xb, double xc, double yb, double yc) {
  return std::max(xb, yb) <= std::min(xc, yc);
}

/// The candidate sweep of EqualityDegree without its fast paths; valid
/// for any inputs, but callers usually branch on the two predicates
/// above first (the sweep reproduces their 0.0 / 1.0 answers exactly).
inline double EqualityLaneSlow(double xa, double xb, double xc, double xd,
                               double ya, double yb, double yc, double yd) {
  // sup_t min(mu_x(t), mu_y(t)). The minimum of two piecewise-linear
  // unimodal functions attains its supremum at a corner of either
  // function or at a crossing of a rising edge with a falling edge.
  double candidates[10];
  int n = 0;
  candidates[n++] = xa;
  candidates[n++] = xb;
  candidates[n++] = xc;
  candidates[n++] = xd;
  candidates[n++] = ya;
  candidates[n++] = yb;
  candidates[n++] = yc;
  candidates[n++] = yd;
  double cross;
  if (LaneRiseFallCrossing(xa, xb, yc, yd, &cross)) candidates[n++] = cross;
  if (LaneRiseFallCrossing(ya, yb, xc, xd, &cross)) candidates[n++] = cross;

  double best = 0.0;
  for (int i = 0; i < n; ++i) {
    const double t = candidates[i];
    best = std::max(best, std::min(LaneMembership(xa, xb, xc, xd, t),
                                   LaneMembership(ya, yb, yc, yd, t)));
  }
  return best;
}

/// d(X = Y): sup-min equality degree. Mirrors EqualityDegree.
inline double EqualityLane(double xa, double xb, double xc, double xd,
                           double ya, double yb, double yc, double yd) {
  if (LaneSupportsDisjoint(xa, xd, ya, yd)) return 0.0;
  if (LaneCoresIntersect(xb, xc, yb, yc)) return 1.0;
  return EqualityLaneSlow(xa, xb, xc, xd, ya, yb, yc, yd);
}

/// d(X <> Y). Mirrors NotEqualDegree.
inline double NotEqualLane(double xa, double xd, double ya, double yd) {
  if (xa == xd && ya == yd) return xa != ya ? 1.0 : 0.0;
  // At least one support is non-degenerate, so a pair (x0, y0) with
  // x0 != y0 and membership arbitrarily close to 1 exists.
  return 1.0;
}

/// d(X <= Y): Poss(X <= Y). Mirrors LessEqualDegree (xc, xd unused:
/// only X's nondecreasing envelope matters).
inline double LessEqualLane(double xa, double xb, double ya, double yb,
                            double yc, double yd) {
  double candidates[7];
  int n = 0;
  candidates[n++] = xa;
  candidates[n++] = xb;
  candidates[n++] = ya;
  candidates[n++] = yb;
  candidates[n++] = yc;
  candidates[n++] = yd;
  double cross;
  if (LaneRiseFallCrossing(xa, xb, yc, yd, &cross)) candidates[n++] = cross;
  double best = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = candidates[i];
    best = std::max(best, std::min(LaneMembership(ya, yb, yc, yd, v),
                                   LaneSupAtOrBelow(xa, xb, v)));
  }
  return best;
}

/// d(X < Y): Poss(X < Y). Mirrors LessDegree, including the two
/// vertical-edge limit corrections.
inline double LessLane(double xa, double xb, double xc, double xd,
                       double ya, double yb, double yc, double yd) {
  (void)xc;
  if (xa == xd && ya == yd) return xa < ya ? 1.0 : 0.0;
  double candidates[7];
  int n = 0;
  candidates[n++] = xa;
  candidates[n++] = xb;
  candidates[n++] = ya;
  candidates[n++] = yb;
  candidates[n++] = yc;
  candidates[n++] = yd;
  double cross;
  if (LaneRiseFallCrossing(xa, xb, yc, yd, &cross)) candidates[n++] = cross;
  double best = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = candidates[i];
    best = std::max(best, std::min(LaneMembership(ya, yb, yc, yd, v),
                                   LaneSupStrictlyBelow(xa, xb, v)));
  }
  if (xa == xb) {
    best = std::max(best, LaneMembershipRightLimit(ya, yb, yc, yd, xa));
  }
  if (yc == yd) {
    best = std::max(best,
                    std::min(LaneMembershipLeftLimit(ya, yb, yc, yd, yd),
                             LaneSupStrictlyBelow(xa, xb, yd)));
  }
  return std::min(best, 1.0);
}

/// d(X ~= Y): equality against Y widened by the tolerance (fuzzy
/// addition of Triangle(-tol, 0, tol) is corner-wise). Mirrors
/// ApproxEqualDegree without constructing the widened Trapezoid.
inline double ApproxEqualLane(double xa, double xb, double xc, double xd,
                              double ya, double yb, double yc, double yd,
                              double tolerance) {
  return EqualityLane(xa, xb, xc, xd, ya - tolerance, yb, yc, yd + tolerance);
}

/// Lexicographic (SupportBegin, SupportEnd) comparison of Definition
/// 3.1. Mirrors CompareIntervalOrder.
inline int CompareIntervalOrderLane(double xa, double xd, double ya,
                                    double yd) {
  if (xa < ya) return -1;
  if (xa > ya) return 1;
  if (xd < yd) return -1;
  if (xd > yd) return 1;
  return 0;
}

/// The interval order refined by the inner corners b, then c, so that
/// only values with equal corners compare equal. Mirrors
/// Value::TotalOrderCompare on two fuzzy values.
inline int CompareTotalOrderLane(double xa, double xb, double xc, double xd,
                                 double ya, double yb, double yc, double yd) {
  const int cmp = CompareIntervalOrderLane(xa, xd, ya, yd);
  if (cmp != 0) return cmp;
  if (xb != yb) return xb < yb ? -1 : 1;
  if (xc != yc) return xc < yc ? -1 : 1;
  return 0;
}

/// Mirrors SupportsIntersect.
inline bool SupportsIntersectLane(double xa, double xd, double ya, double yd) {
  return xa <= yd && ya <= xd;
}

/// Mirrors SupportEntirelyBefore.
inline bool SupportEntirelyBeforeLane(double xd, double ya) {
  return xd < ya;
}

}  // namespace kernel
}  // namespace fuzzydb

#endif  // FUZZYDB_FUZZY_DEGREE_KERNELS_H_
