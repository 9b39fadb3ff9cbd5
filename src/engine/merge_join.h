// The file-based extended merge-join (Section 3 of the paper).
//
// Inputs are heap files previously sorted on their join attributes by the
// interval order of Definition 3.1 (see sort/external_sort.h). The join
// scans the outer file once; for each outer tuple r it examines exactly
// the window Rng(r) of inner tuples (Definition 3.2), which is kept in
// main memory ("the page stays in the main memory since some tuples in
// the page may join with the next R-tuple"). Inner pages are fetched at
// most once when the largest window fits in the buffer.
#ifndef FUZZYDB_ENGINE_MERGE_JOIN_H_
#define FUZZYDB_ENGINE_MERGE_JOIN_H_

#include <functional>

#include "common/status.h"
#include "engine/exec_stats.h"
#include "fuzzy/degree.h"
#include "storage/heap_file.h"

namespace fuzzydb {

class ExecTrace;
class QueryContext;

/// Describes the fuzzy join R |x| S.
struct FuzzyJoinSpec {
  /// Key columns (must hold fuzzy values): the window and the primary
  /// degree d(R.key op S.key) are driven by these.
  size_t outer_key = 0;
  size_t inner_key = 0;
  CompareOp key_op = CompareOp::kEq;

  /// Additional predicates evaluated on each windowed pair.
  struct Residual {
    size_t outer_col;
    size_t inner_col;
    CompareOp op;
  };
  std::vector<Residual> residuals;

  /// WITH D >= threshold pushdown (the optimization of [42], presented
  /// there as fuzzy equality indicators): pairs below the threshold can
  /// never reach the answer, and a key-equality degree >= z requires the
  /// z-cuts (not just the supports) to intersect, so the merge window
  /// retires and stops on alpha-cut bounds. When > 0 the join inputs
  /// must be sorted on the interval order of their z-cuts and pairs with
  /// combined degree < threshold are not emitted.
  double threshold = 0.0;

  /// Combined degree min(r.D, s.D, d(key), d(residuals...)) of the pair
  /// (r, s), folded in that order and stopping once it reaches 0 (the
  /// threshold is not applied). Counts one degree evaluation per
  /// comparison made into *cpu (null = don't count).
  double PairDegree(const Tuple& r, const Tuple& s, CpuStats* cpu) const;
};

/// Called for each pair whose combined degree
/// min(r.D, s.D, d(key), d(residuals...)) is positive.
using JoinEmit =
    std::function<Status(const Tuple& outer, const Tuple& inner, double d)>;

/// Runs the extended merge-join over two interval-order-sorted heap
/// files. CPU work is tallied in `cpu` (may be null). With `trace` set,
/// records a "merge-join" span (counter deltas, scanned/emitted rows).
/// With `query` set, cancellation/deadline are polled once per outer
/// tuple and the in-memory window is charged against the memory budget.
///
/// `batch_size` chunks each outer tuple's window for the batch
/// satisfaction-degree kernels (ExecOptions::batch_size, clamped to
/// [1, 1024]). Emitted pairs, degrees and CpuStats are identical for
/// every setting.
Status FileMergeJoin(PageFile* sorted_outer, PageFile* sorted_inner,
                     BufferPool* pool, const FuzzyJoinSpec& spec,
                     CpuStats* cpu, const JoinEmit& emit,
                     ExecTrace* trace = nullptr,
                     QueryContext* query = nullptr,
                     size_t batch_size = 1024);

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_MERGE_JOIN_H_
