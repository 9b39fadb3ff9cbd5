// The batched degree fold: one comparison min-folded into a chunk of
// lane degrees.
//
// The paper's join cost is the fold min(mu_R, mu_S, d(key),
// d(residuals)) over each window Rng(r) (Section 3). The filter's
// min(mu(t), d(p1), d(p2), ...) and the subquery pair term
// min(d_S(s), d(corr(r, s)), f(d(r.Y op s.Z))) are the same fold over
// other lane layouts. FoldComparison is one step of it, and every
// batched operator is a short sequence of such steps
// (docs/architecture.md, "Batch execution"). Its contract:
//
//  - A lane takes part only while its degree is > 0. A lane at 0 has
//    left the fold for good, since min cannot raise it.
//  - degree_evaluations advances once per participating lane, whichever
//    path evaluates it, so CpuStats do not depend on the batch size.
//  - When one side is a column and every participating operand lane is
//    fuzzy, the lanes are gathered into TrapezoidBatch SoA arrays and
//    evaluated by one BatchSatisfactionDegree call. That call counts as
//    one batch of `live` rows and one fuzzydb_batch_fill sample.
//    Otherwise every lane calls Value::Compare. The kernels are
//    bit-identical to the scalar degree (degree_batch_test), so the
//    folded degrees are too.
#ifndef FUZZYDB_ENGINE_DEGREE_FOLD_H_
#define FUZZYDB_ENGINE_DEGREE_FOLD_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/exec_stats.h"
#include "fuzzy/degree_batch.h"
#include "fuzzy/trapezoid_batch.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "relational/tuple.h"

namespace fuzzydb {

/// The tuples one lane reads its column operands from: its own tuple
/// and, for a correlated pair term, the enclosing (outer) tuple.
struct LaneTuples {
  const Tuple* local = nullptr;
  const Tuple* outer = nullptr;
};

/// One side of a folded comparison: a column of the lane's own tuple, a
/// column of its enclosing tuple, or a constant (which must outlive the
/// fold). Constants stay scalar: nothing is splatted into lanes.
struct FoldOperand {
  enum class Kind { kLocalColumn, kOuterColumn, kConstant };
  Kind kind = Kind::kConstant;
  size_t column = 0;
  const Value* constant = nullptr;

  static FoldOperand Local(size_t column) {
    return {Kind::kLocalColumn, column, nullptr};
  }
  static FoldOperand Outer(size_t column) {
    return {Kind::kOuterColumn, column, nullptr};
  }
  static FoldOperand Constant(const Value& value) {
    return {Kind::kConstant, 0, &value};
  }

  bool is_column() const { return kind != Kind::kConstant; }

  /// This operand's value in `lane`.
  const Value& Of(const LaneTuples& lane) const {
    if (!is_column()) return *constant;
    const Tuple* t = kind == Kind::kOuterColumn ? lane.outer : lane.local;
    return t->ValueAt(column);
  }
};

/// One fold step: lane degree d becomes min(d, f(d(lhs op rhs))), with
/// f(x) = 1 - x when `negate` (the ALL link) and f(x) = x otherwise.
struct FoldTerm {
  FoldOperand lhs;
  CompareOp op = CompareOp::kEq;
  FoldOperand rhs;
  double tolerance = 1.0;  // for ~=; Value::Compare's default
  bool negate = false;
};

/// One worker's batch-kernel usage, which its operator adds to its span
/// at the barrier (sums are permutation-invariant, so the totals do not
/// depend on the thread count). `fill` (null when metrics are off)
/// receives one fuzzydb_batch_fill sample per kernel call.
struct BatchTally {
  Histogram* fill = nullptr;
  uint64_t batches = 0;  // kernel calls
  uint64_t rows = 0;     // lanes those calls evaluated
};

/// A tally that samples into the engine's fuzzydb_batch_fill histogram
/// while metrics are enabled.
inline BatchTally EngineBatchTally() {
  EngineMetrics* metrics = EngineMetrics::IfEnabled();
  return BatchTally{metrics == nullptr ? nullptr : metrics->batch_fill};
}

/// One worker's lanes, reused across chunks: the degrees the folds
/// update, plus the operand, result and selection lanes of one fold.
/// ~100 KiB: heap-allocate once per worker, never on a hot stack frame.
struct FoldScratch {
  std::array<double, TrapezoidBatch::kCapacity> degree;
  TrapezoidBatch lhs;
  TrapezoidBatch rhs;
  std::array<double, TrapezoidBatch::kCapacity> result;
  std::array<uint32_t, TrapezoidBatch::kCapacity> active;
};

namespace degree_fold_internal {

/// Gathers column `op` of the lanes active[0, live) into `out`. Returns
/// false at the first non-fuzzy value (the fold then runs per lane).
/// The operand's tuple side is decided once per gather, not per lane.
template <typename Lanes>
bool GatherFuzzy(const Lanes& lanes, const FoldOperand& op,
                 const uint32_t* active, size_t live, TrapezoidBatch* out) {
  const bool from_outer = op.kind == FoldOperand::Kind::kOuterColumn;
  const size_t column = op.column;
  out->Clear();
  for (size_t j = 0; j < live; ++j) {
    const LaneTuples lane = lanes(active[j]);
    const Value& v = (from_outer ? lane.outer : lane.local)->ValueAt(column);
    if (!v.is_fuzzy()) return false;
    out->PushBack(v.AsFuzzy());
  }
  return true;
}

/// True when `op` is fuzzy in every active lane; column lanes are then
/// gathered into `batch`.
template <typename Lanes>
bool FuzzySide(const Lanes& lanes, const FoldOperand& op,
               const uint32_t* active, size_t live, TrapezoidBatch* batch) {
  return op.is_column() ? GatherFuzzy(lanes, op, active, live, batch)
                        : op.constant->is_fuzzy();
}

}  // namespace degree_fold_internal

/// Folds `term` into scratch->degree[0, count). `lanes(k)` returns lane
/// k's LaneTuples; it is a template parameter, so the per-lane reads
/// inline. Counts into *cpu (null = don't count) and *tally as the file
/// comment describes. Returns the number of lanes that took part: 0
/// means every lane had already left, nothing was evaluated, and later
/// folds over the chunk can be skipped.
template <typename Lanes>
size_t FoldComparison(const Lanes& lanes, size_t count, const FoldTerm& term,
                      FoldScratch* scratch, CpuStats* cpu,
                      BatchTally* tally) {
  using degree_fold_internal::FuzzySide;
  double* degree = scratch->degree.data();
  uint32_t* active = scratch->active.data();
  size_t live = 0;
  for (size_t k = 0; k < count; ++k) {
    active[live] = static_cast<uint32_t>(k);
    live += static_cast<size_t>(degree[k] > 0.0);
  }
  if (live == 0) return 0;
  if (cpu != nullptr) cpu->degree_evaluations += live;

  double* result = scratch->result.data();
  if ((term.lhs.is_column() || term.rhs.is_column()) &&
      FuzzySide(lanes, term.lhs, active, live, &scratch->lhs) &&
      FuzzySide(lanes, term.rhs, active, live, &scratch->rhs)) {
    if (!term.lhs.is_column()) {
      BatchSatisfactionDegree(term.lhs.constant->AsFuzzy(), term.op,
                              scratch->rhs, term.tolerance, result);
    } else if (!term.rhs.is_column()) {
      BatchSatisfactionDegree(scratch->lhs, term.op,
                              term.rhs.constant->AsFuzzy(), term.tolerance,
                              result);
    } else {
      BatchSatisfactionDegree(scratch->lhs, term.op, scratch->rhs,
                              term.tolerance, result);
    }
    ++tally->batches;
    tally->rows += live;
    if (tally->fill != nullptr) tally->fill->Record(live);
  } else {
    for (size_t j = 0; j < live; ++j) {
      const LaneTuples lane = lanes(active[j]);
      result[j] = term.lhs.Of(lane).Compare(term.op, term.rhs.Of(lane),
                                            term.tolerance);
    }
  }

  const bool negate = term.negate;
  for (size_t j = 0; j < live; ++j) {
    const double d = negate ? 1.0 - result[j] : result[j];
    double& lane_degree = degree[active[j]];
    lane_degree = std::min(lane_degree, d);
  }
  return live;
}

/// Folds `terms` in order, stopping at the first fold no lane takes
/// part in: the batched operators' whole degree computation per chunk.
template <typename Lanes>
void FoldComparisons(const Lanes& lanes, size_t count,
                     const std::vector<FoldTerm>& terms, FoldScratch* scratch,
                     CpuStats* cpu, BatchTally* tally) {
  for (const FoldTerm& term : terms) {
    if (FoldComparison(lanes, count, term, scratch, cpu, tally) == 0) return;
  }
}

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_DEGREE_FOLD_H_
