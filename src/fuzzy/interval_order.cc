#include "fuzzy/interval_order.h"

#include "fuzzy/degree_kernels.h"

namespace fuzzydb {

int CompareIntervalOrder(const Trapezoid& x, const Trapezoid& y) {
  return kernel::CompareIntervalOrderLane(x.SupportBegin(), x.SupportEnd(),
                                          y.SupportBegin(), y.SupportEnd());
}

bool IntervalOrderLess(const Trapezoid& x, const Trapezoid& y) {
  return CompareIntervalOrder(x, y) < 0;
}

bool SupportsIntersect(const Trapezoid& x, const Trapezoid& y) {
  return kernel::SupportsIntersectLane(x.SupportBegin(), x.SupportEnd(),
                                       y.SupportBegin(), y.SupportEnd());
}

bool SupportEntirelyBefore(const Trapezoid& x, const Trapezoid& y) {
  return kernel::SupportEntirelyBeforeLane(x.SupportEnd(), y.SupportBegin());
}

}  // namespace fuzzydb
