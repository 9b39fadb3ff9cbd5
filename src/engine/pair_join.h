// The engine's one in-memory join, PairJoin: the extended merge-join of
// Section 3 of the paper and, without a key, nested pairing.
//
// Keyed, both inputs are sorted on the interval order of their key
// columns (Definition 3.1). For each outer key r the window scan first
// retires the inner tuples wholly before r (e(s) < b(r)); later outer
// keys begin no earlier, so retirement is permanent. It then extends the
// window up to the first inner tuple wholly after r (b(s) > e(r)). What
// lies between is Rng(r) (Definition 3.2), the only inner tuples r can
// join.
//
// The sorts run over flat records that carry each key's support bounds
// (SortByBounds), read once per input: re-deriving them from the tuples
// on every comparison or boundary test dominated the join's cost. The
// window scan reads its bounds from the sorted records.
//
// Under a WITH threshold a positive link or chain step keeps only pairs
// whose key degree can reach it. The same scan then runs on the keys'
// alpha-cuts at the threshold instead of their supports (PairKey::cut,
// KeyBounds), the bounds FileMergeJoin windows on too, and Rng(r)
// narrows.
//
// Callers: the unnesting engine's IN family, JA group-aggregate and
// chain step (unnested_evaluator.cc), and pass 3 of the partitioned file
// join (partitioned_join.cc). The heap-file merge-join (merge_join.h)
// keeps its own streaming window: it drops wholly-before inner tuples as
// it reads them, so it makes fewer boundary tests than this scan over a
// materialized input.
#ifndef FUZZYDB_ENGINE_PAIR_JOIN_H_
#define FUZZYDB_ENGINE_PAIR_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "engine/degree_fold.h"
#include "engine/exec_stats.h"
#include "fuzzy/degree_kernels.h"
#include "fuzzy/trapezoid.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "relational/relation.h"

namespace fuzzydb {

/// A tuple surviving the local-predicate filter, with its adjusted degree
/// min(mu_R(r), d(p_local(r))).
struct FT {
  const Tuple* tuple = nullptr;
  double degree = 0.0;
};

/// The query's context, writable, for an operator's memory charge
/// (null = ungoverned). ParallelContext holds the context const
/// (operators only poll it); the underlying object always comes from the
/// non-const ExecOptions::context, so the cast is well-defined.
QueryContext* MutableQuery(const ParallelContext& ctx);

/// Lanes per batch: the knob clamped to [1, the SoA capacity].
size_t EffectiveBatchSize(const ParallelContext& ctx);

/// The support interval [b, e] of one sort-key value.
struct SupportBounds {
  double begin = 0.0;
  double end = 0.0;
};

/// The bounds both merge windows -- a keyed pair join's and
/// FileMergeJoin's -- sort and window one key value on: its support
/// [b, e] at cut 0, otherwise its closed alpha-cut at `cut`,
/// widened by a few ulps of the corners' magnitude. Two values whose
/// equality degree computes to >= cut have intersecting cuts, and the
/// widening keeps rounding in the cut and in the degree kernels from
/// separating such a pair. An infinite corner makes the cut arithmetic
/// NaN; the support bound stands in for it.
SupportBounds KeyBounds(const Trapezoid& key, double cut);

/// Definition 3.1's order on support bounds. It runs the lane that
/// IntervalOrderLess runs, so a sort of bounds records makes the same
/// decisions, and counts the same comparisons, as a sort of the values
/// the bounds were read from.
inline bool BoundsLess(const SupportBounds& x, const SupportBounds& y) {
  return kernel::CompareIntervalOrderLane(x.begin, x.end, y.begin, y.end) < 0;
}

/// Sorts records by BoundsLess on their `bounds` member with
/// ParallelSort and adds the comparisons it counts to *comparisons (null
/// = don't count). Each comparison reads two records and nothing else.
/// Returns the query's stop status like ParallelSort.
template <typename Record>
[[nodiscard]] Status SortByBounds(const ParallelContext& ctx,
                                  std::vector<Record>* records,
                                  uint64_t* comparisons) {
  return ParallelSort(ctx, records, comparisons, [](uint64_t* count) {
    return [count](const Record& x, const Record& y) {
      ++*count;
      return BoundsLess(x.bounds, y.bounds);
    };
  });
}

/// One buffered pair of a pair join: outer row `r` (its index in the
/// caller's outer side) and inner tuple `s`.
struct PairEntry {
  size_t r = 0;
  const FT* s = nullptr;
};

/// One batch of pairs, handed to a pair join's sink. Lane k is pairs[k];
/// fold->degree[k] starts at min(weight of r, d_S(s)). A batch never
/// spans a morsel, and each morsel's last batch (possibly empty) is
/// marked morsel_end.
struct PairBatch {
  const PairEntry* pairs = nullptr;
  size_t count = 0;
  size_t worker = 0;  // the ParallelFor worker slot
  size_t morsel = 0;  // the morsel's index among the outer positions
  bool morsel_end = false;
  FoldScratch* fold = nullptr;
  CpuStats* cpu = nullptr;  // the worker's stats slot; null = don't count
  BatchTally* tally = nullptr;
};

/// Consumes one batch. Runs concurrently for distinct workers.
using PairSink = std::function<Status(const PairBatch&)>;

/// The key of a keyed pair join: fuzzy column outer_col of each outer
/// row's tuple and inner_col of the inner tuples.
/// With `cut` > 0 the sink needs only pairs whose key equality degree can
/// reach it, so both sides sort and window on KeyBounds at `cut` instead
/// of their supports: the WITH threshold pushdown of Zhang & Wang [42].
struct PairKey {
  size_t outer_col = 0;
  size_t inner_col = 0;
  double cut = 0.0;
  uint64_t est_pairs = TraceNode::kNoCount;  // merge-window's est=
};

/// The lanes of a batch whose terms read inner tuple s as the local side
/// and outer row r's tuple as the enclosing side.
inline auto PairLanes(const PairBatch& batch, const std::vector<FT>& outer) {
  return [&batch, &outer](size_t k) {
    const PairEntry& e = batch.pairs[k];
    return LaneTuples{e.s->tuple, outer[e.r].tuple};
  };
}

/// The engine's one in-memory join. Outer row r is outer[r]: its degree
/// is the row's weight and, when keyed, its tuple holds the key.
///
/// Keyed, it is the extended merge-join of Section 3: {bounds, row}
/// records of the outer keys are sorted (interval-sort [outer-view
/// colN]), the inner is sorted on key->inner_col, and each outer row
/// meets exactly the inner tuples of Rng(r) (Definition 3.2), as
/// NextWindow finds them (merge-window) on the bounds the sorts left --
/// the KeyBounds at key->cut.
/// Unkeyed, every outer row meets every inner tuple (nested-pairing),
/// with a stop check before each row. *inner is left in key order.
///
/// Parallelization: the outer positions are cut into morsels. The
/// window logic is read-only over the inner side, so morsels are
/// independent. A keyed morsel replays the serial scan *state* at its
/// entry: the serial window start before position `begin` is
/// min{i : e(inner[i]) >= b(outer[begin - 1])}, which an (uncounted)
/// binary search finds on the monotone prefix-max of inner support ends
/// (the raw ends are not monotone under the interval order). Counted
/// comparisons therefore sum to the serial totals for every thread count.
///
/// Pairs are buffered per worker and handed to `sink` in batches of at
/// most batch_size, flushed when full and at every morsel end, so the
/// batch decomposition is thread-count-invariant. Worker stats -- the
/// sink's included -- and batch tallies fold into this operator's span
/// at the barrier. Returns the first sink error, else the query's stop
/// status.
Status PairJoin(const std::vector<FT>& outer, std::vector<FT>* inner,
                const PairKey* key, const ParallelContext& ctx,
                CpuStats* cpu, ExecTrace* trace, const PairSink& sink);

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_PAIR_JOIN_H_
