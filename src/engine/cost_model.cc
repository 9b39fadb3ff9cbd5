#include "engine/cost_model.h"

#include <algorithm>
#include <cmath>

namespace fuzzydb {

namespace {

/// n log2 n with the degenerate cases pinned at zero.
double NLogN(uint64_t n) {
  if (n < 2) return 0.0;
  const double d = static_cast<double>(n);
  return d * std::log2(d);
}

}  // namespace

double CostChainNestedStep(uint64_t rows, uint64_t incoming,
                           const CostWeights& w) {
  return static_cast<double>(rows) * static_cast<double>(incoming) *
         w.degree_eval_us;
}

double CostChainMergeStep(uint64_t rows, uint64_t incoming, double est_pairs,
                          const CostWeights& w) {
  // Both sides are sorted by interval order in memory (no IO), then the
  // window replay touches only the estimated overlapping pairs.
  const double sort_cmp = (NLogN(rows) + NLogN(incoming)) * w.comparison_us;
  return sort_cmp + std::max(0.0, est_pairs) * w.degree_eval_us;
}

JoinAlgorithm ChooseChainStepAlgorithm(uint64_t rows, uint64_t incoming,
                                       double est_pairs, bool merge_legal,
                                       const CostWeights& w) {
  if (!merge_legal) return JoinAlgorithm::kNestedLoop;
  const double merge = CostChainMergeStep(rows, incoming, est_pairs, w);
  const double nested = CostChainNestedStep(rows, incoming, w);
  return merge <= nested ? JoinAlgorithm::kMergeWindow
                         : JoinAlgorithm::kNestedLoop;
}

}  // namespace fuzzydb
