// The window scan of the extended merge-join (Section 3 of the paper).
//
// Both inputs are sorted on the interval order of their key columns
// (Definition 3.1). For each outer key r the scan first retires the
// inner tuples wholly before r (e(s) < b(r)); later outer keys begin no
// earlier, so retirement is permanent. It then extends the window up to
// the first inner tuple wholly after r (b(s) > e(r)). What lies between
// is Rng(r) (Definition 3.2), the only inner tuples r can join.
//
// Keys are read from support bounds hoisted once per input: re-deriving
// them from the tuples on every boundary test dominated the scan's cost.
//
// The heap-file merge-join (merge_join.h) keeps its own streaming
// window: it drops wholly-before inner tuples as it reads them, so it
// makes fewer boundary tests than this scan over a materialized input.
#ifndef FUZZYDB_ENGINE_MERGE_WINDOW_H_
#define FUZZYDB_ENGINE_MERGE_WINDOW_H_

#include <cstddef>
#include <vector>

#include "engine/exec_stats.h"
#include "fuzzy/trapezoid.h"

namespace fuzzydb {

/// The support interval [b, e] of one sort-key value.
struct SupportBounds {
  double begin = 0.0;
  double end = 0.0;
};

/// The support bounds of `key(x)` for every element x of `xs`, in order.
/// `key` returns the element's sort key as a `const Trapezoid&`.
template <typename T, typename Key>
std::vector<SupportBounds> HoistSupportBounds(const std::vector<T>& xs,
                                              Key key) {
  std::vector<SupportBounds> bounds;
  bounds.reserve(xs.size());
  for (const T& x : xs) {
    const Trapezoid& k = key(x);
    bounds.push_back(SupportBounds{k.SupportBegin(), k.SupportEnd()});
  }
  return bounds;
}

/// Positions [begin, end) of the sorted inner input.
struct WindowRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
};

/// Rng(r) over the sorted inner bounds, for outer key `r`. `*start` is
/// the scan position carried between the outer keys of one ascending
/// pass: 0 before the first key, afterwards what the previous call left.
/// Counts one comparison per boundary test and one tuple pair per inner
/// tuple in the window into *cpu (null = don't count).
WindowRange NextWindow(const std::vector<SupportBounds>& inner,
                       const SupportBounds& r, size_t* start, CpuStats* cpu);

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_MERGE_WINDOW_H_
