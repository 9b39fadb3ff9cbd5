#include "engine/merge_join.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/query_context.h"
#include "engine/degree_fold.h"
#include "engine/pair_join.h"
#include "fuzzy/trapezoid_batch.h"
#include "obs/metrics.h"
#include "obs/op_scope.h"

namespace fuzzydb {

double FuzzyJoinSpec::PairDegree(const Tuple& r, const Tuple& s,
                                 CpuStats* cpu) const {
  double d = std::min(r.degree(), s.degree());
  if (d <= 0.0) return 0.0;
  if (cpu != nullptr) ++cpu->degree_evaluations;
  d = std::min(d, r.ValueAt(outer_key).Compare(key_op, s.ValueAt(inner_key)));
  for (const Residual& residual : residuals) {
    if (d <= 0.0) break;
    if (cpu != nullptr) ++cpu->degree_evaluations;
    d = std::min(d, r.ValueAt(residual.outer_col)
                        .Compare(residual.op, s.ValueAt(residual.inner_col)));
  }
  return d;
}

Status FileMergeJoin(PageFile* sorted_outer, PageFile* sorted_inner,
                     BufferPool* pool, const FuzzyJoinSpec& spec,
                     CpuStats* cpu, const JoinEmit& emit, ExecTrace* trace,
                     QueryContext* query, size_t batch_size,
                     QueryProgress* progress) {
  OpScope op(Op::kMergeJoin, trace, progress, cpu,
             pool == nullptr ? nullptr : &pool->stats());
  uint64_t outer_rows = 0;
  uint64_t emitted = 0;
  EngineMetrics* metrics = EngineMetrics::IfEnabled();
  Histogram* window_hist =
      metrics == nullptr ? nullptr : metrics->merge_window_length;
  const size_t batch =
      std::clamp<size_t>(batch_size, 1, TrapezoidBatch::kCapacity);
  auto scratch = std::make_unique<FoldScratch>();
  BatchTally tally = EngineBatchTally();
  std::vector<const Tuple*> chunk(batch);
  // r's key and residual operands, as constants: each window chunk is
  // one scalar-vs-batch fold per comparison of the spec.
  std::vector<FoldTerm> terms(1 + spec.residuals.size());
  HeapFileScanner outer_scan(sorted_outer, pool);
  HeapFileScanner inner_scan(sorted_inner, pool);

  // The in-memory window of inner tuples: tuples retired from the front
  // as the outer key advances, extended at the back on demand. The
  // window is the operator's resident memory: charged as tuples enter,
  // released as they retire (the scope release keeps the budget balanced
  // on early returns).
  std::deque<Tuple> window;
  ScopedBudget window_budget(query);
  bool inner_exhausted = false;
  Tuple pending_inner;   // read past the window end, not yet needed
  bool has_pending = false;

  // The window works on KeyBounds at the threshold: the support
  // interval without one, else the widened threshold-cut.
  const auto inner_bounds = [&spec](const Tuple& s) {
    return KeyBounds(s.ValueAt(spec.inner_key).AsFuzzy(), spec.threshold);
  };
  Tuple r;
  bool has_r = false;
  while (true) {
    FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
    FUZZYDB_RETURN_IF_ERROR(outer_scan.Next(&r, &has_r));
    if (!has_r) break;
    ++outer_rows;
    const Value& rv = r.ValueAt(spec.outer_key);
    if (!rv.is_fuzzy()) {
      return Status::InvalidArgument("merge-join key must be fuzzy");
    }
    const SupportBounds rb = KeyBounds(rv.AsFuzzy(), spec.threshold);

    // Retire window tuples wholly before r (e(s.X) < b(r.X)); later outer
    // tuples have keys no smaller, so retirement is permanent.
    while (!window.empty()) {
      if (cpu != nullptr) ++cpu->comparisons;
      if (inner_bounds(window.front()).end < rb.begin) {
        window_budget.Release(SerializedTupleSize(window.front()));
        window.pop_front();
      } else {
        break;
      }
    }

    // Extend the window until the first inner tuple wholly after r
    // (b(s.X) > e(r.X)); that tuple is kept pending for the next r.
    if (has_pending) {
      if (cpu != nullptr) ++cpu->comparisons;
      const SupportBounds pk = inner_bounds(pending_inner);
      if (pk.end < rb.begin) {
        // The pending tuple fell wholly before this (and thus every
        // later) outer tuple: drop it without ever entering the window.
        has_pending = false;
      } else if (pk.begin <= rb.end) {
        FUZZYDB_RETURN_IF_ERROR(
            window_budget.Charge(SerializedTupleSize(pending_inner)));
        window.push_back(std::move(pending_inner));
        has_pending = false;
      }
    }
    while (!has_pending && !inner_exhausted) {
      Tuple s;
      bool has_s = false;
      FUZZYDB_RETURN_IF_ERROR(inner_scan.Next(&s, &has_s));
      if (!has_s) {
        inner_exhausted = true;
        break;
      }
      if (cpu != nullptr) ++cpu->comparisons;
      const SupportBounds sk = inner_bounds(s);
      if (sk.end < rb.begin) {
        continue;  // wholly before r: skip (can never join later either)
      }
      if (sk.begin > rb.end) {
        pending_inner = std::move(s);
        has_pending = true;
        break;
      }
      FUZZYDB_RETURN_IF_ERROR(window_budget.Charge(SerializedTupleSize(s)));
      window.push_back(std::move(s));
    }

    // Join r against its window Rng(r) in chunks: lanes start at
    // min(mu_R, mu_S), fold the key, then each residual, exactly as
    // FuzzyJoinSpec::PairDegree does per pair. Survivors are emitted in
    // window order.
    if (window_hist != nullptr) window_hist->Record(window.size());
    terms[0] = FoldTerm{FoldOperand::Constant(rv), spec.key_op,
                        FoldOperand::Local(spec.inner_key)};
    for (size_t i = 0; i < spec.residuals.size(); ++i) {
      const FuzzyJoinSpec::Residual& residual = spec.residuals[i];
      terms[i + 1] =
          FoldTerm{FoldOperand::Constant(r.ValueAt(residual.outer_col)),
                   residual.op, FoldOperand::Local(residual.inner_col)};
    }
    const auto lanes = [&chunk](size_t k) { return LaneTuples{chunk[k]}; };
    double* degree = scratch->degree.data();
    auto it = window.begin();
    size_t remaining = window.size();
    while (remaining > 0) {
      const size_t count = std::min(batch, remaining);
      for (size_t k = 0; k < count; ++k) {
        chunk[k] = &*it++;
        degree[k] = std::min(r.degree(), chunk[k]->degree());
      }
      remaining -= count;
      if (cpu != nullptr) cpu->tuple_pairs += count;
      FoldComparisons(lanes, count, terms, scratch.get(), cpu, &tally);
      for (size_t k = 0; k < count; ++k) {
        const double d = degree[k];
        if (d > 0.0 && d >= spec.threshold) {
          ++emitted;
          FUZZYDB_RETURN_IF_ERROR(emit(r, *chunk[k], d));
        }
      }
    }
  }
  op.AddBatches(tally.batches, tally.rows);
  op.SetInputRows(outer_rows);
  op.SetOutputRows(emitted);
  return Status::OK();
}

}  // namespace fuzzydb
