// The operator cost model behind cost-based physical planning.
//
// Costs are abstract microseconds built from two counters the
// benchmarks already measure: degree evaluations
// (CpuStats::degree_evaluations) and sort/merge comparisons
// (CpuStats::comparisons). The absolute scale is irrelevant -- the
// planner only compares costs -- but keeping the units physical makes
// the weights auditable against bench output.
//
// The model costs the chain steps of Section 8: CostChainMergeStep /
// CostChainNestedStep cost one in-memory extension of a partial
// chain-join result, and ChooseChainStepAlgorithm picks the cheaper --
// replacing the fixed "merge iff both key columns fuzzy" rule when
// ExecOptions::cost_based is set. The file executor's algorithms are
// fixed by its runners (engine/executor.h) and are not costed.
//
// Everything here is a pure function of its inputs, so planning is
// deterministic and thread-count invariant.
#ifndef FUZZYDB_ENGINE_COST_MODEL_H_
#define FUZZYDB_ENGINE_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

namespace fuzzydb {

/// Per-unit resource weights in abstract microseconds. Defaults were
/// calibrated against the Release-mode BENCH_fig3 counters.
struct CostWeights {
  double degree_eval_us = 0.05;  // one fuzzy-degree evaluation
  double comparison_us = 0.01;   // one sort/merge comparison
};

/// The two ways to extend a chain-join result by one relation.
enum class JoinAlgorithm {
  kNestedLoop,
  kMergeWindow,
};

/// One in-memory chain-join step, nested-loop flavor: every (partial
/// row, incoming tuple) pair gets a degree evaluation.
double CostChainNestedStep(uint64_t rows, uint64_t incoming,
                           const CostWeights& w = {});

/// One in-memory chain-join step, merge-window flavor: sort both sides
/// by interval order, then evaluate degrees only on the estimated
/// windowed pairs.
double CostChainMergeStep(uint64_t rows, uint64_t incoming,
                          double est_pairs, const CostWeights& w = {});

/// Cheaper of the two chain-step flavors. `merge_legal` gates on the
/// semantic requirement (both key columns fuzzy); when the merge path
/// is illegal the nested loop wins unconditionally.
JoinAlgorithm ChooseChainStepAlgorithm(uint64_t rows, uint64_t incoming,
                                       double est_pairs, bool merge_legal,
                                       const CostWeights& w = {});

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_COST_MODEL_H_
