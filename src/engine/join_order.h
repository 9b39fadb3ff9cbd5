// Join-order selection for unnested chain queries.
//
// Section 8 of the paper: "To evaluate Query Q'_K, an optimal join order
// may be determined by using, say, a dynamic programming [35] method, to
// minimize the sizes of the intermediate relations."
//
// The flat form of a chain query joins R_1 - R_2 - ... - R_K along
// linking predicates between adjacent levels only, so the join graph is a
// path. Left-deep orders that avoid cross products are exactly the
// *contiguous extension* orders: start at some level, then repeatedly
// extend the joined interval one level to the left or right. Given each
// link's estimated selectivity (from column statistics, see
// stats/column_stats.h), this module runs an interval dynamic program
// minimizing the summed sizes of the intermediate relations, returning
// the sequence of levels to join. Any order yields the same
// fuzzy answer (min is commutative/associative and dedup is max); only
// the intermediate sizes differ.
#ifndef FUZZYDB_ENGINE_JOIN_ORDER_H_
#define FUZZYDB_ENGINE_JOIN_ORDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fuzzydb {

/// Estimated statistics of a chain query's flat join.
struct ChainStats {
  /// Filtered cardinality of each level, |R'_k|.
  std::vector<double> cardinality;
  /// selectivity[k]: fraction of (R'_k, R'_{k+1}) pairs with a positive
  /// combined link + adjacent-correlation degree. Size K-1.
  std::vector<double> selectivity;
};

/// The chosen order: levels[0] is the starting level; every subsequent
/// entry is adjacent to the interval joined so far. `estimated_cost` is
/// the DP's sum of intermediate sizes.
struct ChainJoinOrder {
  std::vector<size_t> levels;
  double estimated_cost = 0.0;
};

/// Interval DP over contiguous extension orders. `stats.cardinality`
/// must be non-empty and `stats.selectivity` one element shorter.
ChainJoinOrder PlanChainJoinOrder(const ChainStats& stats);

/// Estimated number of tuples of the join of levels [lo, hi]:
/// prod(card) * prod(selectivity of internal links).
double EstimateIntervalSize(const ChainStats& stats, size_t lo, size_t hi);

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_JOIN_ORDER_H_
